#ifndef IVR_SERVICE_SESSION_MANAGER_H_
#define IVR_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/core/clock.h"
#include "ivr/core/result.h"
#include "ivr/iface/session_log.h"
#include "ivr/obs/metrics.h"
#include "ivr/profile/profile_store.h"

namespace ivr {

/// Tuning knobs for a SessionManager.
struct SessionManagerOptions {
  /// Number of lock shards the session table is split across. More shards
  /// = less contention between unrelated sessions.
  size_t num_shards = 8;

  /// Capacity cap, enforced per shard as ceil(max_sessions / num_shards):
  /// beginning a session in a full shard evicts that shard's
  /// least-recently-used session first. 0 = unlimited.
  size_t max_sessions = 0;

  /// Sessions idle longer than this are eligible for TTL eviction (swept
  /// opportunistically on BeginSession and explicitly by
  /// EvictIdleSessions). 0 = no TTL.
  TimeMs idle_ttl_ms = 0;

  /// When non-empty, ended/evicted sessions persist their interaction log
  /// to "<persist_dir>/<session_id>.log" as a crash-safe chunked journal
  /// (SessionLogWriter). Empty = no persistence.
  std::string persist_dir;

  /// When > 0, a session's log is additionally flushed to disk every time
  /// it accumulates this many unpersisted events, so even an un-ended,
  /// un-evicted session loses at most this many events to a crash.
  size_t persist_every_events = 0;

  /// Time source for idle accounting. Defaults to an internal monotonic
  /// op counter (each manager operation is one tick), which keeps tests
  /// deterministic; inject a real or simulated clock for wall-time TTLs.
  std::function<TimeMs()> clock;
};

/// Aggregate + per-shard counters, for capacity planning and tests.
struct SessionManagerStats {
  struct Shard {
    size_t active = 0;
    size_t peak = 0;
    uint64_t begun = 0;
    uint64_t evicted_idle = 0;
    uint64_t evicted_capacity = 0;
  };
  std::vector<Shard> shards;

  size_t active = 0;
  uint64_t begun = 0;
  uint64_t ended = 0;
  uint64_t evicted_idle = 0;
  uint64_t evicted_capacity = 0;
  /// Evictions skipped because the "service.evict" fault site fired; the
  /// victim stays resident (the shard may run over capacity).
  uint64_t evictions_skipped = 0;
  /// Persistence attempts that failed (fault site "service.persist", an
  /// I/O error, or a "sessionlog.append" fault inside the writer).
  uint64_t persist_failures = 0;
  /// Interaction events durably appended to session journals.
  uint64_t events_persisted = 0;
  /// Operations rejected because the session id was unknown (or, for
  /// BeginSession, already taken).
  uint64_t rejected_ops = 0;

  std::string ToString() const;
};

/// The multi-session service layer: a sharded, thread-safe table of live
/// SessionContexts driven through one shared (stateless, const)
/// AdaptiveEngine. This is the piece that turns the single-session
/// library the paper's experiments use into something shaped like the
/// deployed systems the paper studies — many users interleaving sessions
/// against one index.
///
/// Concurrency protocol:
///  - each shard has a mutex guarding only its id->entry map;
///  - each entry has its own mutex guarding the SessionContext and its
///    journal writer, so searches in different sessions never serialize
///    on a shard;
///  - lock order is shard.mu before entry.mu, and ops release the shard
///    lock before doing session work;
///  - entries are handed out as shared_ptr with a `live` flag, so a
///    session evicted between lookup and use is rejected instead of
///    resurrected (no lost updates, no use-after-evict).
///
/// Determinism: given the same per-session operation sequences, results
/// are bit-identical regardless of thread count, because all mutable
/// state is per-session and the engine is const.
class SessionManager {
 public:
  /// Resolves the engine to use for one operation. With a live
  /// (generational) index, each manager operation resolves the CURRENT
  /// generation's engine and holds the returned shared_ptr for the whole
  /// operation — a session naturally straddles publishes, each of its
  /// operations pinned to one complete generation (session state —
  /// events, evidence, profile — is engine-independent, and shot ids are
  /// stable because the live collection is append-only). The resolver
  /// must be thread-safe and never return null.
  using EngineResolver =
      std::function<std::shared_ptr<const AdaptiveEngine>()>;

  /// `engine` must outlive the manager. The engine is used exclusively
  /// through its const context-taking API.
  SessionManager(const AdaptiveEngine& engine, SessionManagerOptions options);

  /// Generational variant: every operation asks `resolver` for the
  /// engine to serve against (see EngineResolver).
  SessionManager(EngineResolver resolver, SessionManagerOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a user profile the manager will snapshot into sessions of
  /// that user. AlreadyExists if the user id is taken.
  Status AddProfile(UserProfile profile);

  /// Opens a session. The user's registered profile (when present) is
  /// snapshotted into the session at this moment — later profile edits do
  /// not retroactively change a live session. AlreadyExists when the
  /// session id is live. May evict (capacity LRU within the shard, plus an
  /// opportunistic TTL sweep of the shard).
  Status BeginSession(const std::string& session_id,
                      const std::string& user_id);

  /// Answers a query within a session; NotFound when the session is not
  /// live (the manager rejects rather than implicitly opening).
  Result<ResultList> Search(const std::string& session_id,
                            const Query& query, size_t k);

  /// Records an interaction event; NotFound when the session is not live.
  Status ObserveEvent(const std::string& session_id,
                      const InteractionEvent& event);

  /// Ends a session: persists its remaining events (failures are counted,
  /// not returned — the session still ends), closes its journal, removes
  /// it. NotFound when the session is not live.
  Status EndSession(const std::string& session_id);

  /// Evicts every session idle past the TTL. Returns how many. No-op
  /// (returns 0) when idle_ttl_ms is 0.
  size_t EvictIdleSessions();

  bool Contains(const std::string& session_id) const;
  size_t num_active() const;

  SessionManagerStats Stats() const;

  /// The base engine's report, with personalisation counters summed over
  /// every session the manager has served (live ones plus those already
  /// ended or evicted) and the manager's service counters folded in. A
  /// session finishing while the report is built may be missed, never
  /// counted twice.
  HealthReport Health() const;

  const SessionManagerOptions& options() const { return options_; }

 private:
  struct Entry {
    std::mutex mu;
    SessionContext ctx;       // guarded by mu
    SessionLogWriter writer;  // guarded by mu
    /// False once ended/evicted: a holder of a stale shared_ptr must not
    /// touch the context any more.
    bool live = true;  // guarded by mu
    std::atomic<TimeMs> last_active{0};
    std::atomic<uint64_t> touch_seq{0};
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<Entry>> sessions;
    size_t peak = 0;
    uint64_t begun = 0;
    uint64_t evicted_idle = 0;
    uint64_t evicted_capacity = 0;
  };

  Shard& ShardFor(const std::string& session_id);
  const Shard& ShardFor(const std::string& session_id) const;

  TimeMs NowMs();
  void Touch(Entry* entry);

  /// Looks an entry up (shard lock held only for the lookup).
  std::shared_ptr<Entry> FindEntry(const std::string& session_id) const;

  /// Persists `entry`'s unpersisted events as one journal chunk. Requires
  /// entry->mu held. Counts failures instead of propagating them.
  void PersistLocked(Entry* entry);

  /// Finalises a removed entry: marks it dead, folds its degraded-mode
  /// counters into the manager's, persists the tail, closes the journal.
  /// Must NOT be called with any shard lock held.
  void FinalizeEvicted(const std::shared_ptr<Entry>& entry);

  /// Removes TTL-expired and (if `need_capacity_victim`) the LRU entry
  /// from `shard` into `victims`. Requires shard->mu held. Honours the
  /// "service.evict" fault site by skipping (and counting) the eviction.
  void CollectVictimsLocked(
      Shard* shard, bool need_capacity_victim,
      std::vector<std::shared_ptr<Entry>>* victims);

  EngineResolver resolver_;
  SessionManagerOptions options_;
  size_t max_per_shard_ = 0;  // 0 = unlimited

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex profiles_mu_;
  ProfileStore profiles_;

  std::atomic<uint64_t> touch_counter_{0};
  std::atomic<TimeMs> op_clock_{0};
  std::atomic<uint64_t> ended_{0};
  std::atomic<uint64_t> evictions_skipped_{0};
  std::atomic<uint64_t> persist_failures_{0};
  std::atomic<uint64_t> events_persisted_{0};
  std::atomic<uint64_t> rejected_ops_{0};
  // Degraded-mode counters of finalised sessions (see Health()).
  obs::RelaxedU64 finished_feedback_skipped_ = 0;
  obs::RelaxedU64 finished_profile_reranks_skipped_ = 0;

  /// Registry pointers resolved once at construction. The `sessions_active`
  /// gauge mirrors map membership exactly (inc on insert, dec on every
  /// removal path including destruction); `lru_depth` tracks the occupancy
  /// of the most recently grown shard.
  struct Metrics {
    obs::Counter* sessions_opened;
    obs::Counter* sessions_evicted;
    obs::Counter* sessions_ended;
    obs::Counter* persist_failures;
    obs::Counter* events_persisted;
    obs::Counter* rejected_ops;
    obs::Gauge* sessions_active;
    obs::Gauge* lru_depth;
    obs::LatencyHistogram* begin_session_us;
    obs::LatencyHistogram* persist_us;
    obs::LatencyHistogram* evict_us;
    obs::LatencyHistogram* shard_lock_wait_us;
  };
  Metrics metrics_;
};

}  // namespace ivr

#endif  // IVR_SERVICE_SESSION_MANAGER_H_

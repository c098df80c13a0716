#ifndef IVR_INGEST_LIVE_ENGINE_H_
#define IVR_INGEST_LIVE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/cache/result_cache.h"
#include "ivr/core/result.h"
#include "ivr/ingest/manifest.h"
#include "ivr/obs/metrics.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/sub_index.h"
#include "ivr/video/generator.h"

namespace ivr {

/// Configuration of a LiveEngine.
struct IngestOptions {
  /// Directory holding the segment files and the MANIFEST journal.
  std::string dir;
  /// Options for the per-generation engines built on publish.
  EngineOptions engine;
  AdaptiveOptions adaptive;
  /// Default profile snapshotted into the per-generation AdaptiveEngines
  /// (null = none).
  std::shared_ptr<const UserProfile> profile;
  /// Shared result cache attached to every generation's engine. Each
  /// engine prefixes its cache keys with its segment-set epoch (the
  /// generation), so one cache safely spans generations: a query pinned
  /// to generation G can never hit a G+1 entry, or vice versa, and
  /// entries of still-pinned older generations stay warm across
  /// publishes (nothing is ever invalidated wholesale).
  std::shared_ptr<ResultCache> cache;
  /// Compact the on-disk segments into one once their count reaches this
  /// threshold (0 = only explicit Merge() calls compact).
  size_t merge_after_segments = 0;
  /// Run compaction on a background thread instead of inline at the end
  /// of the triggering Publish().
  bool background_merge = false;
};

/// One fully-built generation. Everything a query needs — the retrieval
/// engine over the generation's sub-index shards, the adaptive policy,
/// and the live topic/qrels views — with shared ownership, so a reader
/// that acquired the snapshot before a publish keeps a complete,
/// immutable generation alive for as long as it needs it.
struct EngineSnapshot {
  uint64_t generation = 0;
  /// The search topics and judgements of the immutable base collection
  /// (segments carry documents only), aliased into the base's lifetime.
  std::shared_ptr<const TopicSet> topics;
  std::shared_ptr<const Qrels> qrels;
  std::shared_ptr<const RetrievalEngine> engine;
  /// Co-owns `engine`: holding `adaptive` alone (what a SessionManager
  /// resolver hands out) keeps this generation's index alive.
  std::shared_ptr<const AdaptiveEngine> adaptive;

  size_t num_shots() const {
    return engine != nullptr ? engine->num_shots() : 0;
  }
};

/// Point-in-time ingest counters (monotonic unless noted).
struct IngestStats {
  uint64_t generation = 0;       ///< generation currently served
  size_t segments = 0;           ///< published segments (level)
  size_t pending_videos = 0;     ///< buffered, unpublished (level)
  size_t pending_shots = 0;      ///< buffered, unpublished (level)
  size_t live_shots = 0;         ///< shots in the served snapshot (level)
  uint64_t shots_appended = 0;
  uint64_t publishes = 0;
  uint64_t publish_failures = 0;
  uint64_t merges = 0;
  uint64_t merge_failures = 0;
  /// Startup salvage: segment files on disk that no intact manifest
  /// record references (e.g. a crash between segment write and manifest
  /// append), and manifest-referenced segments dropped because they were
  /// torn/corrupt (the reader fell back to an older generation).
  uint64_t orphan_segments_dropped = 0;
  uint64_t torn_segments_dropped = 0;
  /// Torn manifest journal tails dropped on replay.
  uint64_t torn_manifest_chunks = 0;
  /// Orphaned atomic-write temp files (".tmpXXXXXX") swept at startup —
  /// each one is the residue of a crash inside WriteFileAtomic, between
  /// temp creation and rename.
  uint64_t stale_temp_files_removed = 0;
};

/// The generational index: an immutable base collection plus published
/// immutable delta segments, each carrying its own immutable sub-index
/// (inverted postings, doc store, keyframes, concepts), served through
/// an atomically swapped snapshot, with new documents buffered in a
/// pending in-memory delta until the next Publish().
///
/// Per-segment sub-indexes are what make publish cost proportional to
/// the delta: a publish builds ONE sub-index over the frozen pending
/// delta and assembles the next engine from the already-built base and
/// segment shards — it never re-tokenizes or re-indexes the corpus. The
/// searcher merges top-k across shards under each modality's strict
/// total order with scorers prepared from the summed collection
/// statistics, so segmented serving is bit-identical to a monolithic
/// full rebuild (the `ivr_ingest --check` oracle).
///
/// Write path:
///  - Append buffers whole videos into the pending delta (mu_ only;
///    buffered documents are NOT searchable until published).
///  - Publish freezes the pending delta under mu_, then does the heavy
///    work — delta sub-index build, segment file write (checksummed
///    envelope + WriteFileAtomic), next-generation engine assembly —
///    OUTSIDE mu_ (appends and readers proceed concurrently), and
///    retakes mu_ only to fsync-append the manifest record (the commit
///    point) and swap the snapshot. Any failure before the manifest
///    append restores the frozen delta in front of whatever was
///    appended meanwhile, leaving generation G serving and the full
///    pending delta intact for retry.
///  - Merge compacts all published segments into one file (and their
///    sub-indexes into one shard, built outside mu_) and atomically
///    rewrites the manifest; the document set, generation, epoch and
///    serving snapshot are unchanged (crash-safe at every point: the
///    old segments stay referenced until the rewritten manifest lands).
///  - publish_mu_ serializes Publish/Merge against each other (lock
///    order publish_mu_ -> mu_), which is what keeps the shard list a
///    publish froze authoritative while it builds outside mu_.
///
/// Read path (Acquire): copies the current snapshot shared_ptr under a
/// dedicated pointer-sized lock (never held while building an index). A
/// query pins ONE snapshot for its whole lifetime, so it observes either
/// generation G or G+1 in full — never a mix — and publishes never wait
/// for readers (RCU-style: superseded generations die when their last
/// reader releases them).
///
/// Startup replays the manifest with salvage semantics: a torn journal
/// tail falls back to the last intact record, a record referencing a
/// torn/missing segment falls back to the newest fully-loadable older
/// record (counted per dropped segment), unreferenced segment files are
/// ignored as orphans (counted), and stale WriteFileAtomic temp files
/// are deleted (counted). Fault sites: "ingest.append",
/// "ingest.publish", "ingest.merge", "ingest.manifest".
class LiveEngine {
 public:
  /// Opens the ingest directory (created if missing), sweeps stale
  /// atomic-write temp files, replays the manifest, builds one sub-index
  /// per salvageable published segment, and assembles the serving
  /// snapshot over `base` plus those segments. `base` is the immutable
  /// generation-0 collection (its topics/qrels are the live ones;
  /// segments carry documents only).
  static Result<std::unique_ptr<LiveEngine>> Open(GeneratedCollection base,
                                                  IngestOptions options);

  ~LiveEngine();

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// The current generation's snapshot; never null. The critical section
  /// is one shared_ptr copy — publishes build the next generation outside
  /// this lock, so readers never wait on index construction. Hold the
  /// returned pointer for the whole query (or session operation) — that
  /// is the torn-read-free contract.
  std::shared_ptr<const EngineSnapshot> Acquire() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Copies video `id` of `source` (with its stories and shots) into the
  /// pending delta, remapping ids. External ids are namespaced
  /// "g<generation>.<ordinal>/<original>" so videos ingested from
  /// collections that reuse the generator's id scheme never collide with
  /// the base (or each other) in the document store. Fault site:
  /// "ingest.append".
  Status AppendVideoFrom(const VideoCollection& source, VideoId id);

  /// Publishes the pending delta as the next generation and returns its
  /// id; a no-op returning the current generation when nothing is
  /// pending. On error the pending delta is retained for retry. Fault
  /// site: "ingest.publish" (plus the file/manifest sites underneath).
  Result<uint64_t> Publish();

  /// Compacts the published segments into one (no-op below two
  /// segments). Fault site: "ingest.merge".
  Status Merge();

  IngestStats Stats() const;

  const IngestOptions& options() const { return options_; }

  /// The immutable generation-0 collection (topics/qrels are the live
  /// ones for every generation). Valid for the engine's lifetime.
  const GeneratedCollection& base() const { return *base_; }

  /// Materializes base + published segments into one standalone
  /// collection — the monolithic equivalent of the serving snapshot
  /// (what --export writes and the --check oracle rebuilds from). The
  /// pending delta is not included. O(corpus) copy.
  GeneratedCollection ExportCollection() const;

  /// The manifest journal path inside `dir` (exposed for tests/tools).
  static std::string ManifestPath(const std::string& dir);
  /// The segment file name publish gives generation `gen`.
  static std::string SegmentName(uint64_t gen);

 private:
  struct Segment {
    std::string name;
    /// The delta's documents (shared with its sub-index slice).
    std::shared_ptr<const GeneratedCollection> data;
    /// The immutable per-segment sub-index, built once at publish (or
    /// replay) and reused by every subsequent generation's engine.
    std::shared_ptr<const SubIndex> sub;
    /// Global id of the segment's local shot 0.
    ShotId doc_offset = 0;
  };

  LiveEngine(GeneratedCollection base, IngestOptions options);

  /// Fresh pending delta bound to the base topic space. Requires mu_.
  void ResetPendingLocked();
  /// Puts a frozen-but-unpublished delta back in FRONT of the pending
  /// buffer (appends may have landed since the freeze). Requires mu_.
  void RestorePendingLocked(const GeneratedCollection& delta);
  /// Assembles the full serving stack for `generation` over `shards`.
  /// Touches only immutable state (base_, options_) — callable without
  /// mu_; that is the point: this is the publish-path heavy step.
  Result<std::shared_ptr<const EngineSnapshot>> BuildServing(
      uint64_t generation,
      std::vector<std::shared_ptr<const SubIndex>> shards) const;
  /// The serving shard list: base plus every published segment, in
  /// global-id order. Requires mu_ (or publish_mu_, see segments_).
  std::vector<std::shared_ptr<const SubIndex>> ShardsLocked() const;
  /// Deletes stale ".tmpXXXXXX" files a crashed WriteFileAtomic left in
  /// the ingest directory. Requires mu_ (called from Open).
  Status SweepStaleTempsLocked();
  /// Replays the manifest, loads the salvageable segments and builds
  /// their sub-indexes. Requires mu_ (called from Open before the
  /// object escapes).
  Status ReplayManifestLocked();
  bool NeedsMergeLocked() const {
    return options_.merge_after_segments > 0 &&
           segments_.size() >= options_.merge_after_segments;
  }
  /// The compaction body; requires publish_mu_ (NOT mu_ — it takes and
  /// drops mu_ around the heavy build itself).
  Status MergeHoldingPublishLock();
  void MergeThreadMain();
  void UpdateGaugesLocked() const;

  IngestOptions options_;
  ManifestLog manifest_;

  /// Serializes the structural writers (Publish/Merge) against each
  /// other so they can do their heavy work outside mu_ while the shard
  /// list they froze stays authoritative. Lock order: publish_mu_
  /// before mu_; never taken by the append/read paths.
  std::mutex publish_mu_;

  mutable std::mutex mu_;
  /// Immutable after Open (shared with every snapshot's topics/qrels
  /// aliases and with base_sub_'s slice) — readable without mu_.
  std::shared_ptr<const GeneratedCollection> base_;
  /// The base collection's sub-index, built once at Open.
  std::shared_ptr<const SubIndex> base_sub_;
  /// Written under publish_mu_ + mu_ together; readable under either
  /// (Publish/Merge read it outside mu_ while holding publish_mu_).
  std::vector<Segment> segments_;
  GeneratedCollection pending_;         // guarded by mu_
  uint64_t generation_ = 0;             // guarded by mu_
  uint64_t next_generation_ = 1;        // guarded by mu_
  uint64_t shots_appended_ = 0;         // guarded by mu_
  uint64_t publishes_ = 0;              // guarded by mu_
  uint64_t publish_failures_ = 0;       // guarded by mu_
  uint64_t merges_ = 0;                 // guarded by mu_
  uint64_t merge_failures_ = 0;         // guarded by mu_
  uint64_t orphan_segments_dropped_ = 0;   // guarded by mu_
  uint64_t torn_segments_dropped_ = 0;     // guarded by mu_
  uint64_t torn_manifest_chunks_ = 0;      // guarded by mu_
  uint64_t stale_temp_files_removed_ = 0;  // guarded by mu_

  /// Swaps in `snapshot` as the serving generation; the superseded
  /// snapshot is released outside snapshot_mu_ (its destructor may tear
  /// down a whole engine stack).
  void StoreSnapshot(std::shared_ptr<const EngineSnapshot> snapshot) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      snapshot_.swap(snapshot);
    }
  }

  /// The RCU pivot: a pointer-sized critical section on its own mutex so
  /// Acquire() never contends with mu_. Written under mu_ + snapshot_mu_
  /// (publish commit), read under snapshot_mu_ alone.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;  // guarded by snapshot_mu_

  std::condition_variable merge_cv_;
  std::thread merge_thread_;
  bool stop_merge_ = false;  // guarded by mu_

  /// Registry pointers resolved once at construction (obs contract).
  struct Metrics {
    obs::Counter* shots_appended;
    obs::Counter* publishes;
    obs::Counter* publish_failures;
    obs::Counter* merges;
    obs::Counter* merge_failures;
    obs::Counter* orphan_segments_dropped;
    obs::Counter* torn_segments_dropped;
    obs::Counter* torn_manifest_chunks;
    obs::Counter* stale_temp_files_removed;
    obs::Gauge* generation;
    obs::Gauge* segments;
    obs::Gauge* pending_shots;
    obs::Gauge* live_shots;
    obs::LatencyHistogram* publish_us;
    obs::LatencyHistogram* merge_us;
  };
  Metrics metrics_;
};

}  // namespace ivr

#endif  // IVR_INGEST_LIVE_ENGINE_H_

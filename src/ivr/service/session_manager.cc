#include "ivr/service/session_manager.h"

#include <algorithm>
#include <utility>

#include "ivr/core/fault_injection.h"
#include "ivr/core/file_util.h"
#include "ivr/core/logging.h"
#include "ivr/core/string_util.h"
#include "ivr/obs/trace.h"

namespace ivr {
namespace {

/// Session ids become journal file names; anything outside a conservative
/// character set is mapped to '_' so an id can never escape persist_dir.
std::string SanitizeForFilename(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

}  // namespace

std::string SessionManagerStats::ToString() const {
  std::string out = StrFormat(
      "sessions: active=%zu begun=%llu ended=%llu evicted_idle=%llu "
      "evicted_capacity=%llu evictions_skipped=%llu persist_failures=%llu "
      "events_persisted=%llu rejected_ops=%llu",
      active, static_cast<unsigned long long>(begun),
      static_cast<unsigned long long>(ended),
      static_cast<unsigned long long>(evicted_idle),
      static_cast<unsigned long long>(evicted_capacity),
      static_cast<unsigned long long>(evictions_skipped),
      static_cast<unsigned long long>(persist_failures),
      static_cast<unsigned long long>(events_persisted),
      static_cast<unsigned long long>(rejected_ops));
  for (size_t i = 0; i < shards.size(); ++i) {
    const Shard& s = shards[i];
    if (s.begun == 0 && s.active == 0) continue;
    out += StrFormat("\n  shard %zu: active=%zu peak=%zu begun=%llu "
                     "evicted_idle=%llu evicted_capacity=%llu",
                     i, s.active, s.peak,
                     static_cast<unsigned long long>(s.begun),
                     static_cast<unsigned long long>(s.evicted_idle),
                     static_cast<unsigned long long>(s.evicted_capacity));
  }
  return out;
}

SessionManager::SessionManager(const AdaptiveEngine& engine,
                               SessionManagerOptions options)
    // Non-owning: the classic static-engine contract (engine outlives the
    // manager), expressed as a resolver with a no-op deleter.
    : SessionManager(
          [engine_ptr = &engine] {
            return std::shared_ptr<const AdaptiveEngine>(
                engine_ptr, [](const AdaptiveEngine*) {});
          },
          std::move(options)) {}

SessionManager::SessionManager(EngineResolver resolver,
                               SessionManagerOptions options)
    : resolver_(std::move(resolver)), options_(std::move(options)) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.max_sessions > 0) {
    max_per_shard_ = (options_.max_sessions + options_.num_shards - 1) /
                     options_.num_shards;
    if (max_per_shard_ == 0) max_per_shard_ = 1;
  }
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  obs::Registry& registry = obs::Registry::Global();
  metrics_.sessions_opened = registry.GetCounter("service.sessions_opened");
  metrics_.sessions_evicted =
      registry.GetCounter("service.sessions_evicted");
  metrics_.sessions_ended = registry.GetCounter("service.sessions_ended");
  metrics_.persist_failures =
      registry.GetCounter("service.persist_failures");
  metrics_.events_persisted =
      registry.GetCounter("service.events_persisted");
  metrics_.rejected_ops = registry.GetCounter("service.rejected_ops");
  metrics_.sessions_active = registry.GetGauge("service.sessions_active");
  metrics_.lru_depth = registry.GetGauge("service.lru_depth");
  metrics_.begin_session_us =
      registry.GetHistogram("service.begin_session_us");
  metrics_.persist_us = registry.GetHistogram("service.persist_us");
  metrics_.evict_us = registry.GetHistogram("service.evict_us");
  metrics_.shard_lock_wait_us =
      registry.GetHistogram("service.shard_lock_wait_us");
  if (!options_.persist_dir.empty()) {
    const Status made = MakeDirectory(options_.persist_dir);
    if (!made.ok()) {
      IVR_LOG(Warning) << "session persist dir unavailable ("
                       << made.message()
                       << "); session logs will not be persisted";
      options_.persist_dir.clear();
    }
  }
}

SessionManager::~SessionManager() {
  // Best-effort final flush: persist whatever is still resident so a
  // clean shutdown loses nothing.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::shared_ptr<Entry>> victims;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (auto& [id, entry] : shard->sessions) victims.push_back(entry);
      shard->sessions.clear();
    }
    metrics_.sessions_active->Add(
        -static_cast<int64_t>(victims.size()));
    for (const std::shared_ptr<Entry>& entry : victims) {
      FinalizeEvicted(entry);
    }
  }
}

Status SessionManager::AddProfile(UserProfile profile) {
  std::lock_guard<std::mutex> lock(profiles_mu_);
  return profiles_.Add(std::move(profile));
}

SessionManager::Shard& SessionManager::ShardFor(
    const std::string& session_id) {
  return *shards_[std::hash<std::string>{}(session_id) % shards_.size()];
}

const SessionManager::Shard& SessionManager::ShardFor(
    const std::string& session_id) const {
  return *shards_[std::hash<std::string>{}(session_id) % shards_.size()];
}

TimeMs SessionManager::NowMs() {
  if (options_.clock) return options_.clock();
  // Default: a monotonic op counter, so "idle" means "ops elapsed without
  // touching this session" — deterministic for tests.
  return ++op_clock_;
}

void SessionManager::Touch(Entry* entry) {
  entry->last_active.store(NowMs(), std::memory_order_relaxed);
  entry->touch_seq.store(++touch_counter_, std::memory_order_relaxed);
}

std::shared_ptr<SessionManager::Entry> SessionManager::FindEntry(
    const std::string& session_id) const {
  const Shard& shard = ShardFor(session_id);
  const obs::Stopwatch wait;
  std::lock_guard<std::mutex> lock(shard.mu);
  metrics_.shard_lock_wait_us->Record(wait.ElapsedUs());
  const auto it = shard.sessions.find(session_id);
  return it == shard.sessions.end() ? nullptr : it->second;
}

void SessionManager::PersistLocked(Entry* entry) {
  if (options_.persist_dir.empty()) return;
  SessionContext& ctx = entry->ctx;
  if (ctx.events.size() <= ctx.events_persisted) return;

  const obs::Stopwatch persist_watch;
  FaultInjector& faults = FaultInjector::Global();
  if (faults.enabled() && faults.ShouldFail("service.persist")) {
    ++persist_failures_;
    metrics_.persist_failures->Inc();
    IVR_LOG(Warning) << "injected persist failure for session '"
                     << ctx.session_id << "'";
    return;
  }
  if (!entry->writer.is_open()) {
    const std::string path = options_.persist_dir + "/" +
                             SanitizeForFilename(ctx.session_id) + ".log";
    const Status opened = entry->writer.Open(path);
    if (!opened.ok()) {
      ++persist_failures_;
      metrics_.persist_failures->Inc();
      IVR_LOG(Warning) << "cannot open session journal: "
                       << opened.message();
      return;
    }
  }
  const std::vector<InteractionEvent> batch(
      ctx.events.begin() + static_cast<ptrdiff_t>(ctx.events_persisted),
      ctx.events.end());
  const Status appended = entry->writer.Append(batch);
  if (!appended.ok()) {
    ++persist_failures_;
    metrics_.persist_failures->Inc();
    IVR_LOG(Warning) << "session journal append failed: "
                     << appended.message();
    return;
  }
  ctx.events_persisted = ctx.events.size();
  events_persisted_ += batch.size();
  metrics_.events_persisted->Inc(batch.size());
  metrics_.persist_us->Record(persist_watch.ElapsedUs());
}

void SessionManager::FinalizeEvicted(const std::shared_ptr<Entry>& entry) {
  const obs::Stopwatch evict_watch;
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->live) return;
  entry->live = false;
  finished_feedback_skipped_.Add(entry->ctx.feedback_skipped);
  finished_profile_reranks_skipped_.Add(entry->ctx.profile_reranks_skipped);
  PersistLocked(entry.get());
  if (entry->writer.is_open()) {
    const Status closed = entry->writer.Close();
    if (!closed.ok()) {
      ++persist_failures_;
      metrics_.persist_failures->Inc();
      IVR_LOG(Warning) << "session journal close failed: "
                       << closed.message();
    }
  }
  metrics_.evict_us->Record(evict_watch.ElapsedUs());
}

void SessionManager::CollectVictimsLocked(
    Shard* shard, bool need_capacity_victim,
    std::vector<std::shared_ptr<Entry>>* victims) {
  FaultInjector& faults = FaultInjector::Global();
  const auto evict_allowed = [&]() {
    if (faults.enabled() && faults.ShouldFail("service.evict")) {
      ++evictions_skipped_;
      return false;
    }
    return true;
  };

  // Opportunistic TTL sweep.
  if (options_.idle_ttl_ms > 0) {
    const TimeMs now = NowMs();
    for (auto it = shard->sessions.begin(); it != shard->sessions.end();) {
      const TimeMs idle =
          now - it->second->last_active.load(std::memory_order_relaxed);
      if (idle >= options_.idle_ttl_ms) {
        if (!evict_allowed()) {
          ++it;
          continue;
        }
        victims->push_back(it->second);
        it = shard->sessions.erase(it);
        ++shard->evicted_idle;
        metrics_.sessions_evicted->Inc();
        metrics_.sessions_active->Add(-1);
      } else {
        ++it;
      }
    }
  }

  // Capacity LRU: evict the least-recently-touched session of this shard.
  if (need_capacity_victim && max_per_shard_ > 0 &&
      shard->sessions.size() >= max_per_shard_) {
    auto lru = shard->sessions.end();
    uint64_t lru_seq = 0;
    for (auto it = shard->sessions.begin(); it != shard->sessions.end();
         ++it) {
      const uint64_t seq =
          it->second->touch_seq.load(std::memory_order_relaxed);
      if (lru == shard->sessions.end() || seq < lru_seq) {
        lru = it;
        lru_seq = seq;
      }
    }
    if (lru != shard->sessions.end() && evict_allowed()) {
      victims->push_back(lru->second);
      shard->sessions.erase(lru);
      ++shard->evicted_capacity;
      metrics_.sessions_evicted->Inc();
      metrics_.sessions_active->Add(-1);
    }
  }
}

Status SessionManager::BeginSession(const std::string& session_id,
                                    const std::string& user_id) {
  obs::ScopedSpan span("service.begin_session");
  const obs::Stopwatch begin_watch;
  // Snapshot the profile up front (separate lock domain from shards).
  std::shared_ptr<const UserProfile> profile;
  {
    std::lock_guard<std::mutex> lock(profiles_mu_);
    const Result<const UserProfile*> found = profiles_.Get(user_id);
    if (found.ok()) {
      profile = std::make_shared<const UserProfile>(**found);
    }
  }
  const std::shared_ptr<const AdaptiveEngine> engine = resolver_();
  if (profile == nullptr) profile = engine->default_profile();

  auto entry = std::make_shared<Entry>();
  entry->ctx = engine->MakeContext(session_id, user_id);
  entry->ctx.profile = std::move(profile);

  std::vector<std::shared_ptr<Entry>> victims;
  Shard& shard = ShardFor(session_id);
  {
    const obs::Stopwatch wait;
    std::lock_guard<std::mutex> lock(shard.mu);
    metrics_.shard_lock_wait_us->Record(wait.ElapsedUs());
    const auto it = shard.sessions.find(session_id);
    if (it != shard.sessions.end()) {
      ++rejected_ops_;
      metrics_.rejected_ops->Inc();
      return Status::AlreadyExists("session '" + session_id +
                                   "' is already live");
    }
    CollectVictimsLocked(&shard, /*need_capacity_victim=*/true, &victims);
    shard.sessions.emplace(session_id, entry);
    ++shard.begun;
    shard.peak = std::max(shard.peak, shard.sessions.size());
    metrics_.sessions_opened->Inc();
    metrics_.sessions_active->Add(1);
    metrics_.lru_depth->Set(static_cast<int64_t>(shard.sessions.size()));
  }
  Touch(entry.get());
  // Persist evicted sessions outside every lock but the victims' own.
  for (const std::shared_ptr<Entry>& victim : victims) {
    FinalizeEvicted(victim);
  }
  metrics_.begin_session_us->Record(begin_watch.ElapsedUs());
  return Status::OK();
}

Result<ResultList> SessionManager::Search(const std::string& session_id,
                                          const Query& query, size_t k) {
  const std::shared_ptr<Entry> entry = FindEntry(session_id);
  if (entry == nullptr) {
    ++rejected_ops_;
    metrics_.rejected_ops->Inc();
    return Status::NotFound("no live session '" + session_id + "'");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->live) {
    ++rejected_ops_;
    metrics_.rejected_ops->Inc();
    return Status::NotFound("session '" + session_id + "' was evicted");
  }
  Touch(entry.get());
  // Pin ONE generation for the whole search: the shared_ptr keeps its
  // snapshot alive even if a publish lands mid-query.
  const std::shared_ptr<const AdaptiveEngine> engine = resolver_();
  return engine->Search(&entry->ctx, query, k);
}

Status SessionManager::ObserveEvent(const std::string& session_id,
                                    const InteractionEvent& event) {
  const std::shared_ptr<Entry> entry = FindEntry(session_id);
  if (entry == nullptr) {
    ++rejected_ops_;
    metrics_.rejected_ops->Inc();
    return Status::NotFound("no live session '" + session_id + "'");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (!entry->live) {
    ++rejected_ops_;
    metrics_.rejected_ops->Inc();
    return Status::NotFound("session '" + session_id + "' was evicted");
  }
  Touch(entry.get());
  const std::shared_ptr<const AdaptiveEngine> engine = resolver_();
  engine->ObserveEvent(&entry->ctx, event);
  if (options_.persist_every_events > 0 &&
      entry->ctx.events.size() - entry->ctx.events_persisted >=
          options_.persist_every_events) {
    PersistLocked(entry.get());
  }
  return Status::OK();
}

Status SessionManager::EndSession(const std::string& session_id) {
  std::shared_ptr<Entry> entry;
  Shard& shard = ShardFor(session_id);
  {
    const obs::Stopwatch wait;
    std::lock_guard<std::mutex> lock(shard.mu);
    metrics_.shard_lock_wait_us->Record(wait.ElapsedUs());
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
      ++rejected_ops_;
      metrics_.rejected_ops->Inc();
      return Status::NotFound("no live session '" + session_id + "'");
    }
    entry = it->second;
    shard.sessions.erase(it);
  }
  ++ended_;
  metrics_.sessions_ended->Inc();
  metrics_.sessions_active->Add(-1);
  // Persistence failures are counted in health, not surfaced here: the
  // session ends either way.
  FinalizeEvicted(entry);
  return Status::OK();
}

size_t SessionManager::EvictIdleSessions() {
  if (options_.idle_ttl_ms <= 0) return 0;
  size_t evicted = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::shared_ptr<Entry>> victims;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      CollectVictimsLocked(shard.get(), /*need_capacity_victim=*/false,
                           &victims);
    }
    for (const std::shared_ptr<Entry>& victim : victims) {
      FinalizeEvicted(victim);
    }
    evicted += victims.size();
  }
  return evicted;
}

bool SessionManager::Contains(const std::string& session_id) const {
  return FindEntry(session_id) != nullptr;
}

size_t SessionManager::num_active() const {
  size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->sessions.size();
  }
  return n;
}

SessionManagerStats SessionManager::Stats() const {
  SessionManagerStats stats;
  stats.shards.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    SessionManagerStats::Shard& out = stats.shards[i];
    out.active = shard.sessions.size();
    out.peak = shard.peak;
    out.begun = shard.begun;
    out.evicted_idle = shard.evicted_idle;
    out.evicted_capacity = shard.evicted_capacity;
    stats.active += out.active;
    stats.begun += out.begun;
    stats.evicted_idle += out.evicted_idle;
    stats.evicted_capacity += out.evicted_capacity;
  }
  stats.ended = ended_.load(std::memory_order_relaxed);
  stats.evictions_skipped =
      evictions_skipped_.load(std::memory_order_relaxed);
  stats.persist_failures = persist_failures_.load(std::memory_order_relaxed);
  stats.events_persisted = events_persisted_.load(std::memory_order_relaxed);
  stats.rejected_ops = rejected_ops_.load(std::memory_order_relaxed);
  return stats;
}

HealthReport SessionManager::Health() const {
  const std::shared_ptr<const AdaptiveEngine> engine = resolver_();
  HealthReport report = engine->engine().Health();
  // Finalised sessions first: one finishing mid-report is then skipped by
  // the live scan below rather than counted twice.
  report.feedback_skipped = finished_feedback_skipped_;
  report.profile_reranks_skipped = finished_profile_reranks_skipped_;
  const bool wants_profile = engine->options().use_profile;
  bool all_profiled = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::shared_ptr<Entry>> entries;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [id, entry] : shard->sessions) {
        entries.push_back(entry);
      }
    }
    for (const std::shared_ptr<Entry>& entry : entries) {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (!entry->live) continue;
      ++report.sessions_active;
      report.feedback_skipped += entry->ctx.feedback_skipped;
      report.profile_reranks_skipped += entry->ctx.profile_reranks_skipped;
      if (entry->ctx.profile == nullptr) all_profiled = false;
    }
  }
  report.profile_available = !wants_profile || all_profiled;
  const SessionManagerStats stats = Stats();
  report.sessions_evicted = stats.evicted_idle + stats.evicted_capacity;
  report.session_persist_failures = stats.persist_failures;
  return report;
}

}  // namespace ivr

#include "ivr/ingest/live_engine.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ivr/core/fault_injection.h"
#include "ivr/core/file_util.h"
#include "ivr/core/logging.h"
#include "ivr/core/string_util.h"
#include "ivr/ingest/segment.h"

namespace ivr {
namespace {

/// Appends every video of `src` (with its stories and shots) to `dst`,
/// offsetting the dense ids. Because Add* assigns id = current size, the
/// remap of any id is a pure offset addition, which keeps appending
/// deterministic and order-preserving.
void AppendCollection(const VideoCollection& src, VideoCollection* dst) {
  const VideoId video_off = static_cast<VideoId>(dst->num_videos());
  const StoryId story_off = static_cast<StoryId>(dst->num_stories());
  const ShotId shot_off = static_cast<ShotId>(dst->num_shots());
  for (const Video& v : src.videos()) {
    Video copy = v;
    copy.stories.clear();
    copy.stories.reserve(v.stories.size());
    for (const StoryId s : v.stories) copy.stories.push_back(s + story_off);
    dst->AddVideo(std::move(copy));
  }
  for (const NewsStory& s : src.stories()) {
    NewsStory copy = s;
    copy.video = s.video + video_off;
    copy.shots.clear();
    copy.shots.reserve(s.shots.size());
    for (const ShotId sh : s.shots) copy.shots.push_back(sh + shot_off);
    dst->AddStory(std::move(copy));
  }
  for (const Shot& sh : src.shots()) {
    Shot copy = sh;
    copy.story = sh.story + story_off;
    copy.video = sh.video + video_off;
    dst->AddShot(std::move(copy));
  }
}

/// Copies one video of `src` into `dst` with dst-local dense ids. Every
/// copied external id (and the video name) is prefixed with `ns`: the
/// document store requires globally unique externals, and source
/// collections routinely reuse the generator's "vNNN/..." scheme, so the
/// live index namespaces each appended video by the generation it will
/// publish into. Returns the number of shots copied.
Result<size_t> CopyVideoInto(const VideoCollection& src, VideoId id,
                             const std::string& ns, VideoCollection* dst) {
  IVR_ASSIGN_OR_RETURN(const Video* video, src.video(id));
  Video vcopy = *video;
  vcopy.name = ns + video->name;
  vcopy.stories.clear();
  const VideoId new_video = dst->AddVideo(std::move(vcopy));
  size_t shots = 0;
  for (const StoryId story_id : video->stories) {
    IVR_ASSIGN_OR_RETURN(const NewsStory* story, src.story(story_id));
    NewsStory scopy = *story;
    scopy.video = new_video;
    scopy.shots.clear();
    const StoryId new_story = dst->AddStory(std::move(scopy));
    dst->mutable_video(new_video)->stories.push_back(new_story);
    for (const ShotId shot_id : story->shots) {
      IVR_ASSIGN_OR_RETURN(const Shot* shot, src.shot(shot_id));
      Shot shcopy = *shot;
      shcopy.external_id = ns + shot->external_id;
      shcopy.story = new_story;
      shcopy.video = new_video;
      const ShotId new_shot = dst->AddShot(std::move(shcopy));
      dst->mutable_story(new_story)->shots.push_back(new_shot);
      ++shots;
    }
  }
  return shots;
}

/// A VideoCollection view that shares ownership of the enclosing
/// GeneratedCollection (aliasing constructor): what SubIndex::Build
/// keeps alive.
std::shared_ptr<const VideoCollection> CollectionView(
    const std::shared_ptr<const GeneratedCollection>& data) {
  return std::shared_ptr<const VideoCollection>(data, &data->collection);
}

}  // namespace

std::string LiveEngine::ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST";
}

std::string LiveEngine::SegmentName(uint64_t gen) {
  return StrFormat("seg-%06llu.seg", static_cast<unsigned long long>(gen));
}

LiveEngine::LiveEngine(GeneratedCollection base, IngestOptions options)
    : options_(std::move(options)),
      manifest_(ManifestPath(options_.dir)),
      base_(std::make_shared<const GeneratedCollection>(std::move(base))) {
  obs::Registry& reg = obs::Registry::Global();
  metrics_.shots_appended = reg.GetCounter("ingest.shots_appended");
  metrics_.publishes = reg.GetCounter("ingest.publishes");
  metrics_.publish_failures = reg.GetCounter("ingest.publish_failures");
  metrics_.merges = reg.GetCounter("ingest.merges");
  metrics_.merge_failures = reg.GetCounter("ingest.merge_failures");
  metrics_.orphan_segments_dropped =
      reg.GetCounter("ingest.orphan_segments_dropped");
  metrics_.torn_segments_dropped =
      reg.GetCounter("ingest.torn_segments_dropped");
  metrics_.torn_manifest_chunks =
      reg.GetCounter("ingest.torn_manifest_chunks");
  metrics_.stale_temp_files_removed =
      reg.GetCounter("ingest.stale_temp_files_removed");
  metrics_.generation = reg.GetGauge("ingest.generation");
  metrics_.segments = reg.GetGauge("ingest.segments");
  metrics_.pending_shots = reg.GetGauge("ingest.pending_shots");
  metrics_.live_shots = reg.GetGauge("ingest.live_shots");
  metrics_.publish_us = reg.GetHistogram("ingest.publish_us");
  metrics_.merge_us = reg.GetHistogram("ingest.merge_us");
}

LiveEngine::~LiveEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_merge_ = true;
  }
  merge_cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
}

Result<std::unique_ptr<LiveEngine>> LiveEngine::Open(GeneratedCollection base,
                                                     IngestOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("IngestOptions.dir must be set");
  }
  IVR_RETURN_IF_ERROR(MakeDirectory(options.dir));
  std::unique_ptr<LiveEngine> live(
      new LiveEngine(std::move(base), std::move(options)));
  {
    std::lock_guard<std::mutex> lock(live->mu_);
    IVR_RETURN_IF_ERROR(live->SweepStaleTempsLocked());
    IVR_ASSIGN_OR_RETURN(
        live->base_sub_,
        SubIndex::Build(CollectionView(live->base_), live->options_.engine,
                        /*shot_key_offset=*/0));
    live->ResetPendingLocked();
    IVR_RETURN_IF_ERROR(live->ReplayManifestLocked());
    IVR_ASSIGN_OR_RETURN(
        std::shared_ptr<const EngineSnapshot> snapshot,
        live->BuildServing(live->generation_, live->ShardsLocked()));
    live->StoreSnapshot(std::move(snapshot));
    live->UpdateGaugesLocked();
  }
  if (live->options_.background_merge) {
    live->merge_thread_ = std::thread(&LiveEngine::MergeThreadMain,
                                      live.get());
  }
  return live;
}

void LiveEngine::ResetPendingLocked() {
  pending_ = GeneratedCollection();
  pending_.collection.SetTopicNames(base_->collection.topic_names());
}

void LiveEngine::RestorePendingLocked(const GeneratedCollection& delta) {
  // Appends may have landed between the freeze and this failure; the
  // restored buffer is the frozen delta followed by them, preserving
  // append order. Copying (rather than moving) keeps `delta` valid for
  // any in-flight sub-index/snapshot still aliasing its collection.
  GeneratedCollection restored;
  restored.collection.SetTopicNames(base_->collection.topic_names());
  AppendCollection(delta.collection, &restored.collection);
  AppendCollection(pending_.collection, &restored.collection);
  pending_ = std::move(restored);
}

Status LiveEngine::SweepStaleTempsLocked() {
  IVR_ASSIGN_OR_RETURN(const std::vector<std::string> entries,
                       ListDirectory(options_.dir));
  for (const std::string& name : entries) {
    if (!IsAtomicTempName(name)) continue;
    if (RemoveFile(options_.dir + "/" + name).ok()) {
      ++stale_temp_files_removed_;
      metrics_.stale_temp_files_removed->Inc();
      IVR_LOG(Warning) << "ingest: removed stale temp file " << name;
    }
  }
  return Status::OK();
}

Status LiveEngine::ReplayManifestLocked() {
  IVR_ASSIGN_OR_RETURN(const ManifestLoadResult loaded, manifest_.Load());
  torn_manifest_chunks_ = loaded.torn_chunks;
  metrics_.torn_manifest_chunks->Inc(loaded.torn_chunks);
  if (loaded.torn_chunks > 0) {
    IVR_LOG(Warning) << "ingest: dropped torn manifest tail of "
                     << manifest_.path();
  }

  uint64_t max_generation = 0;
  for (const ManifestRecord& record : loaded.records) {
    max_generation = std::max(max_generation, record.generation);
  }

  // Newest fully-loadable record wins; segments that fail their checksum
  // are counted once and poison every record referencing them.
  std::unordered_map<std::string, GeneratedCollection> cache;
  std::unordered_set<std::string> bad;
  const ManifestRecord* serving = nullptr;
  for (size_t i = loaded.records.size(); i-- > 0;) {
    const ManifestRecord& record = loaded.records[i];
    bool ok = true;
    for (const std::string& name : record.segments) {
      if (bad.count(name) > 0) {
        ok = false;
        continue;
      }
      if (cache.count(name) > 0) continue;
      Result<GeneratedCollection> seg =
          LoadSegment(options_.dir + "/" + name);
      if (seg.ok()) {
        cache.emplace(name, std::move(seg).value());
      } else {
        bad.insert(name);
        ++torn_segments_dropped_;
        metrics_.torn_segments_dropped->Inc();
        IVR_LOG(Warning) << "ingest: dropped torn segment " << name << " ("
                         << seg.status().ToString() << ")";
        ok = false;
      }
    }
    if (ok) {
      serving = &record;
      break;
    }
  }

  std::unordered_set<std::string> served_names;
  if (serving != nullptr) {
    generation_ = serving->generation;
    // Rebuild each salvaged segment's sub-index at its replay offset —
    // the same offsets publish used, because the manifest records
    // segments in publish order.
    ShotId offset = static_cast<ShotId>(base_->collection.num_shots());
    for (const std::string& name : serving->segments) {
      served_names.insert(name);
      auto data = std::make_shared<const GeneratedCollection>(
          std::move(cache.at(name)));
      IVR_ASSIGN_OR_RETURN(
          std::shared_ptr<const SubIndex> sub,
          SubIndex::Build(CollectionView(data), options_.engine, offset));
      segments_.push_back(Segment{name, data, std::move(sub), offset});
      offset += static_cast<ShotId>(data->collection.num_shots());
    }
    if (serving != &loaded.records.back()) {
      IVR_LOG(Warning) << "ingest: salvage fell back to generation "
                       << generation_ << " of " << max_generation;
    }
  } else {
    generation_ = 0;
    if (!loaded.records.empty()) {
      IVR_LOG(Warning)
          << "ingest: no manifest record fully loadable; serving base only";
    }
  }
  next_generation_ = std::max(max_generation, generation_) + 1;

  // Segment files no intact record reaches are orphans (a crash between
  // segment write and manifest append leaves exactly this); they are
  // ignored, counted, and eventually overwritten by a future publish.
  IVR_ASSIGN_OR_RETURN(const std::vector<std::string> entries,
                       ListDirectory(options_.dir));
  for (const std::string& name : entries) {
    if (!EndsWith(name, ".seg")) continue;
    if (served_names.count(name) > 0 || bad.count(name) > 0) continue;
    ++orphan_segments_dropped_;
    metrics_.orphan_segments_dropped->Inc();
    IVR_LOG(Warning) << "ingest: ignoring orphan segment " << name;
  }
  return Status::OK();
}

std::vector<std::shared_ptr<const SubIndex>> LiveEngine::ShardsLocked()
    const {
  std::vector<std::shared_ptr<const SubIndex>> shards;
  shards.reserve(segments_.size() + 1);
  shards.push_back(base_sub_);
  for (const Segment& segment : segments_) shards.push_back(segment.sub);
  return shards;
}

Result<std::shared_ptr<const EngineSnapshot>> LiveEngine::BuildServing(
    uint64_t generation,
    std::vector<std::shared_ptr<const SubIndex>> shards) const {
  IVR_ASSIGN_OR_RETURN(
      std::unique_ptr<RetrievalEngine> built,
      RetrievalEngine::BuildSegmented(std::move(shards), options_.engine));
  built->SetCacheKeyEpoch(generation);
  if (options_.cache != nullptr) built->AttachCache(options_.cache);
  std::shared_ptr<const RetrievalEngine> engine(std::move(built));
  // The adaptive engine only points at its RetrievalEngine, and resolvers
  // hand out `adaptive` alone: its deleter co-owns the engine, so holding
  // the adaptive engine keeps this generation's index alive.
  std::shared_ptr<const AdaptiveEngine> adaptive(
      new AdaptiveEngine(*engine, options_.adaptive, options_.profile),
      [engine](const AdaptiveEngine* dead) { delete dead; });

  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->generation = generation;
  snapshot->topics =
      std::shared_ptr<const TopicSet>(base_, &base_->topics);
  snapshot->qrels = std::shared_ptr<const Qrels>(base_, &base_->qrels);
  snapshot->engine = std::move(engine);
  snapshot->adaptive = std::move(adaptive);
  return std::shared_ptr<const EngineSnapshot>(std::move(snapshot));
}

Status LiveEngine::AppendVideoFrom(const VideoCollection& source,
                                   VideoId id) {
  std::lock_guard<std::mutex> lock(mu_);
  IVR_RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("ingest.append"));
  // The namespace is deterministic in (target generation, ordinal within
  // the pending delta) and frozen into the segment file at publish, so
  // replayed, exported and live views of a document agree on its id.
  const std::string ns =
      StrFormat("g%llu.%zu/",
                static_cast<unsigned long long>(next_generation_),
                pending_.collection.num_videos());
  IVR_ASSIGN_OR_RETURN(const size_t shots,
                       CopyVideoInto(source, id, ns, &pending_.collection));
  shots_appended_ += shots;
  metrics_.shots_appended->Inc(shots);
  UpdateGaugesLocked();
  return Status::OK();
}

Result<uint64_t> LiveEngine::Publish() {
  obs::Stopwatch watch;
  std::lock_guard<std::mutex> publish_lock(publish_mu_);

  // Freeze: take the pending delta and the current shard list under mu_.
  uint64_t gen = 0;
  std::shared_ptr<const GeneratedCollection> delta;
  std::vector<std::shared_ptr<const SubIndex>> shards;
  ShotId delta_offset = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.collection.num_shots() == 0 &&
        pending_.collection.num_videos() == 0) {
      return generation_;  // nothing to publish
    }
    {
      const Status injected =
          FaultInjector::Global().MaybeFail("ingest.publish");
      if (!injected.ok()) {
        ++publish_failures_;
        metrics_.publish_failures->Inc();
        return injected;
      }
    }
    // The generation id is consumed at the freeze so appends that land
    // during the build namespace themselves into the NEXT delta and can
    // never collide with the frozen one.
    gen = next_generation_++;
    delta = std::make_shared<const GeneratedCollection>(std::move(pending_));
    ResetPendingLocked();
    delta_offset = static_cast<ShotId>(base_->collection.num_shots());
    for (const Segment& segment : segments_) {
      delta_offset += static_cast<ShotId>(segment.sub->num_shots());
    }
    shards = ShardsLocked();
  }

  // Build, OUTSIDE mu_: appends and readers proceed concurrently. The
  // frozen shard list stays authoritative because only Publish/Merge
  // mutate segments_ and both hold publish_mu_. This is the step whose
  // cost scales with the delta, not the corpus: one sub-index build over
  // the delta, one segment file write, one engine assembly from
  // already-built shards.
  const auto fail = [&](Status status) -> Status {
    std::lock_guard<std::mutex> lock(mu_);
    RestorePendingLocked(*delta);
    ++publish_failures_;
    metrics_.publish_failures->Inc();
    return status;
  };

  Result<std::shared_ptr<const SubIndex>> sub =
      SubIndex::Build(CollectionView(delta), options_.engine, delta_offset);
  if (!sub.ok()) return fail(sub.status());
  shards.push_back(*sub);

  // Segment file first, manifest append last: the manifest fsync is the
  // commit point. A crash in between leaves an orphan segment file and
  // generation G intact on disk.
  const std::string name = SegmentName(gen);
  {
    const Status saved = SaveSegment(*delta, options_.dir + "/" + name);
    if (!saved.ok()) return fail(saved);
  }

  Result<std::shared_ptr<const EngineSnapshot>> snapshot =
      BuildServing(gen, std::move(shards));
  if (!snapshot.ok()) return fail(snapshot.status());

  // Commit, under mu_ again: manifest append, then the in-memory swap.
  bool inline_merge = false;
  bool trigger_merge = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ManifestRecord record;
    record.generation = gen;
    for (const Segment& segment : segments_) {
      record.segments.push_back(segment.name);
    }
    record.segments.push_back(name);
    {
      const Status appended = manifest_.Append(record);
      if (!appended.ok()) {
        RestorePendingLocked(*delta);
        ++publish_failures_;
        metrics_.publish_failures->Inc();
        return appended;
      }
    }

    // Committed. No cache invalidation: the new engine's keys carry the
    // new epoch, and readers still pinned to older generations keep
    // their warm (epoch-prefixed) entries.
    segments_.push_back(
        Segment{name, delta, std::move(sub).value(), delta_offset});
    generation_ = gen;
    ++publishes_;
    metrics_.publishes->Inc();
    StoreSnapshot(std::move(snapshot).value());
    UpdateGaugesLocked();

    if (NeedsMergeLocked()) {
      if (options_.background_merge) {
        trigger_merge = true;
      } else {
        inline_merge = true;
      }
    }
  }
  metrics_.publish_us->Record(watch.ElapsedUs());
  if (inline_merge) {
    // Inline auto-merge (still under publish_mu_): compaction failures
    // degrade (more segments than the policy wants) rather than failing
    // the publish.
    const Status merged = MergeHoldingPublishLock();
    if (!merged.ok()) {
      IVR_LOG(Warning) << "ingest: auto-merge failed: " << merged.ToString();
    }
  }
  if (trigger_merge) merge_cv_.notify_all();
  return gen;
}

Status LiveEngine::Merge() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  return MergeHoldingPublishLock();
}

Status LiveEngine::MergeHoldingPublishLock() {
  obs::Stopwatch watch;
  uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (segments_.size() < 2) return Status::OK();
    {
      const Status injected =
          FaultInjector::Global().MaybeFail("ingest.merge");
      if (!injected.ok()) {
        ++merge_failures_;
        metrics_.merge_failures->Inc();
        return injected;
      }
    }
    gen = generation_;
  }
  const auto fail = [this](Status status) -> Status {
    std::lock_guard<std::mutex> lock(mu_);
    ++merge_failures_;
    metrics_.merge_failures->Inc();
    return status;
  };

  // Heavy work outside mu_ (concatenate + one sub-index build over the
  // compacted documents); reading segments_ here is safe under
  // publish_mu_ alone because every writer of segments_ holds both
  // locks. The compacted sub-index covers the same contiguous id range
  // at the same offset as the shards it replaces, so rankings — and the
  // cache epoch — are unchanged.
  auto merged = std::make_shared<GeneratedCollection>();
  merged->collection.SetTopicNames(base_->collection.topic_names());
  for (const Segment& segment : segments_) {
    AppendCollection(segment.data->collection, &merged->collection);
  }
  std::shared_ptr<const GeneratedCollection> merged_data = std::move(merged);
  const ShotId offset = static_cast<ShotId>(base_->collection.num_shots());
  Result<std::shared_ptr<const SubIndex>> sub =
      SubIndex::Build(CollectionView(merged_data), options_.engine, offset);
  if (!sub.ok()) return fail(sub.status());

  // The merged name embeds the generation; at least one publish separates
  // two merges (a merge leaves a single segment), so names never clash.
  const std::string name = StrFormat(
      "seg-%06llu-m.seg", static_cast<unsigned long long>(gen));
  {
    const Status saved = SaveSegment(*merged_data, options_.dir + "/" + name);
    if (!saved.ok()) return fail(saved);
  }
  ManifestRecord record;
  record.generation = gen;
  record.segments.push_back(name);

  std::vector<std::string> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    {
      const Status rewritten = manifest_.Rewrite(record);
      if (!rewritten.ok()) {
        ++merge_failures_;
        metrics_.merge_failures->Inc();
        return rewritten;
      }
    }
    // Committed: the rewritten manifest references only the merged file.
    // The serving snapshot is NOT swapped — its shards stay alive via
    // shared ownership; the next publish assembles from the compacted
    // list.
    for (const Segment& segment : segments_) {
      if (segment.name != name) retired.push_back(segment.name);
    }
    segments_.clear();
    segments_.push_back(
        Segment{name, merged_data, std::move(sub).value(), offset});
    ++merges_;
    metrics_.merges->Inc();
    UpdateGaugesLocked();
  }
  // Retired segment files are deleted best-effort (a survivor is counted
  // as an orphan on the next startup).
  for (const std::string& old_name : retired) {
    (void)RemoveFile(options_.dir + "/" + old_name);
  }
  metrics_.merge_us->Record(watch.ElapsedUs());
  return Status::OK();
}

void LiveEngine::MergeThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    merge_cv_.wait(lock,
                   [this] { return stop_merge_ || NeedsMergeLocked(); });
    if (stop_merge_) return;
    lock.unlock();
    const Status merged = Merge();  // publish_mu_ -> mu_ inside
    lock.lock();
    if (!merged.ok()) {
      IVR_LOG(Warning) << "ingest: background merge failed: "
                       << merged.ToString();
      // Back off until the next publish re-notifies; without this a
      // persistently failing merge (fault injection) would spin.
      const uint64_t seen = publishes_;
      merge_cv_.wait(
          lock, [this, seen] { return stop_merge_ || publishes_ != seen; });
      if (stop_merge_) return;
    }
  }
}

GeneratedCollection LiveEngine::ExportCollection() const {
  std::lock_guard<std::mutex> lock(mu_);
  GeneratedCollection out;
  out.collection.SetTopicNames(base_->collection.topic_names());
  AppendCollection(base_->collection, &out.collection);
  for (const Segment& segment : segments_) {
    AppendCollection(segment.data->collection, &out.collection);
  }
  out.topics = base_->topics;
  out.qrels = base_->qrels;
  out.options = base_->options;
  return out;
}

IngestStats LiveEngine::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestStats stats;
  stats.generation = generation_;
  stats.segments = segments_.size();
  stats.pending_videos = pending_.collection.num_videos();
  stats.pending_shots = pending_.collection.num_shots();
  const std::shared_ptr<const EngineSnapshot> snapshot = Acquire();
  stats.live_shots = snapshot != nullptr ? snapshot->num_shots() : 0;
  stats.shots_appended = shots_appended_;
  stats.publishes = publishes_;
  stats.publish_failures = publish_failures_;
  stats.merges = merges_;
  stats.merge_failures = merge_failures_;
  stats.orphan_segments_dropped = orphan_segments_dropped_;
  stats.torn_segments_dropped = torn_segments_dropped_;
  stats.torn_manifest_chunks = torn_manifest_chunks_;
  stats.stale_temp_files_removed = stale_temp_files_removed_;
  return stats;
}

void LiveEngine::UpdateGaugesLocked() const {
  metrics_.generation->Set(static_cast<int64_t>(generation_));
  metrics_.segments->Set(static_cast<int64_t>(segments_.size()));
  metrics_.pending_shots->Set(
      static_cast<int64_t>(pending_.collection.num_shots()));
  const std::shared_ptr<const EngineSnapshot> snapshot = Acquire();
  metrics_.live_shots->Set(
      snapshot != nullptr ? static_cast<int64_t>(snapshot->num_shots()) : 0);
}

}  // namespace ivr

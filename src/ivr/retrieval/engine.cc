#include "ivr/retrieval/engine.h"

#include <algorithm>
#include <utility>

#include "ivr/cache/result_cache.h"
#include "ivr/core/fault_injection.h"
#include "ivr/core/logging.h"
#include "ivr/core/thread_pool.h"
#include "ivr/index/score_accumulator.h"
#include "ivr/obs/trace.h"
#include "ivr/retrieval/fusion.h"

namespace ivr {
namespace {

// ---------------------------------------------------------------------------
// Cache-key fingerprints.
//
// Keys embed every input that determines a ranking as raw bytes — doubles
// included — and the cache compares keys byte-for-byte, so a hit can only
// return the exact list the same inputs produced: no hashing, no rounding,
// no collision can break the bit-identical-serving guarantee. Keys live
// only inside one process (never persisted), so native endianness is fine.
//
// Canonicalisation: analysed text terms are sorted lexicographically —
// the searcher processes terms in lexicographic order regardless of the
// query map's iteration order, so two orderings of the same terms score
// identically and may share an entry. Visual-example order and concept-id
// order are preserved: they set the floating-point accumulation order in
// fusion, where reordering could change low bits.

void AppendRaw(std::string* key, const void* data, size_t n) {
  key->append(static_cast<const char*>(data), n);
}

void AppendU32(std::string* key, uint32_t v) { AppendRaw(key, &v, sizeof v); }

void AppendU64(std::string* key, uint64_t v) { AppendRaw(key, &v, sizeof v); }

void AppendDouble(std::string* key, double v) {
  AppendRaw(key, &v, sizeof v);
}

void AppendLengthPrefixed(std::string* key, const std::string& s) {
  AppendU32(key, static_cast<uint32_t>(s.size()));
  key->append(s);
}

void AppendTermQuery(std::string* key, const TermQuery& query) {
  std::vector<const std::string*> terms;
  terms.reserve(query.weights.size());
  for (const auto& entry : query.weights) {
    terms.push_back(&entry.first);
  }
  std::sort(terms.begin(), terms.end(),
            [](const std::string* a, const std::string* b) {
              return *a < *b;
            });
  AppendU32(key, static_cast<uint32_t>(terms.size()));
  for (const std::string* term : terms) {
    AppendLengthPrefixed(key, *term);
    AppendDouble(key, query.weights.at(*term));
    AppendU32(key, query.QueryTf(*term));
  }
}

void AppendHistogram(std::string* key, const ColorHistogram& example) {
  const std::vector<double>& bins = example.bins();
  AppendU32(key, static_cast<uint32_t>(bins.size()));
  AppendRaw(key, bins.data(), bins.size() * sizeof(double));
}

std::string TermsKey(const TermQuery& query, size_t k,
                     const std::string& scorer) {
  std::string key("T1|");
  AppendLengthPrefixed(&key, scorer);
  AppendU64(&key, k);
  AppendTermQuery(&key, query);
  return key;
}

std::string VisualKey(const ColorHistogram& example, size_t k,
                      VisualSimilarity similarity) {
  std::string key("V1|");
  AppendU32(&key, static_cast<uint32_t>(similarity));
  AppendU64(&key, k);
  AppendHistogram(&key, example);
  return key;
}

std::string ConceptsKey(const std::vector<ConceptId>& concepts, size_t k,
                        uint64_t detector_seed) {
  std::string key("C1|");
  AppendU64(&key, detector_seed);
  AppendU64(&key, k);
  AppendU32(&key, static_cast<uint32_t>(concepts.size()));
  for (const ConceptId id : concepts) {
    AppendU32(&key, id);
  }
  return key;
}

std::string FusedKey(const Query& query, const TermQuery& terms, size_t k,
                     const EngineOptions& options) {
  std::string key("F1|");
  AppendLengthPrefixed(&key, options.scorer);
  AppendDouble(&key, options.text_weight);
  AppendDouble(&key, options.visual_weight);
  AppendDouble(&key, options.concept_weight);
  AppendU32(&key, static_cast<uint32_t>(options.visual_similarity));
  AppendU64(&key, options.detector_seed);
  AppendU64(&key, options.candidate_pool);
  AppendU64(&key, k);
  AppendTermQuery(&key, terms);
  AppendU32(&key, static_cast<uint32_t>(query.examples.size()));
  for (const ColorHistogram& example : query.examples) {
    AppendHistogram(&key, example);
  }
  AppendU32(&key, static_cast<uint32_t>(query.concepts.size()));
  for (const ConceptId id : query.concepts) {
    AppendU32(&key, id);
  }
  return key;
}

}  // namespace

RetrievalEngine::RetrievalEngine(EngineOptions options,
                                 std::unique_ptr<Scorer> scorer)
    : options_(std::move(options)), scorer_(std::move(scorer)) {
  obs::Registry& registry = obs::Registry::Global();
  metrics_.queries = registry.GetCounter("engine.queries");
  metrics_.degraded_queries = registry.GetCounter("engine.degraded_queries");
  metrics_.text_faults = registry.GetCounter("engine.text_faults");
  metrics_.visual_faults = registry.GetCounter("engine.visual_faults");
  metrics_.concept_faults = registry.GetCounter("engine.concept_faults");
  metrics_.concepts_dropped = registry.GetCounter("engine.concepts_dropped");
  metrics_.search_us = registry.GetHistogram("engine.search_us");
  metrics_.text_us = registry.GetHistogram("engine.text_us");
  metrics_.visual_us = registry.GetHistogram("engine.visual_us");
  metrics_.concept_us = registry.GetHistogram("engine.concept_us");
}

namespace {

Status ValidateOptions(const EngineOptions& options) {
  if (options.text_weight < 0.0 || options.visual_weight < 0.0 ||
      options.text_weight + options.visual_weight <= 0.0) {
    return Status::InvalidArgument("fusion weights must be non-negative "
                                   "and not both zero");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RetrievalEngine>> RetrievalEngine::Build(
    const VideoCollection& collection, EngineOptions options) {
  std::unique_ptr<Scorer> scorer = MakeScorer(options.scorer);
  if (scorer == nullptr) {
    return Status::InvalidArgument("unknown scorer: " + options.scorer);
  }
  IVR_RETURN_IF_ERROR(ValidateOptions(options));
  auto engine = std::unique_ptr<RetrievalEngine>(
      new RetrievalEngine(std::move(options), std::move(scorer)));
  // Non-owning alias: the caller guarantees the collection outlives the
  // engine (the documented single-shard contract).
  std::shared_ptr<const VideoCollection> slice(
      std::shared_ptr<const VideoCollection>(), &collection);
  IVR_ASSIGN_OR_RETURN(
      std::shared_ptr<const SubIndex> sub,
      SubIndex::Build(std::move(slice), engine->options_,
                      /*shot_key_offset=*/0));
  IVR_RETURN_IF_ERROR(engine->AdoptShards({std::move(sub)}));
  return engine;
}

Result<std::unique_ptr<RetrievalEngine>> RetrievalEngine::BuildSegmented(
    std::vector<std::shared_ptr<const SubIndex>> shards,
    EngineOptions options) {
  std::unique_ptr<Scorer> scorer = MakeScorer(options.scorer);
  if (scorer == nullptr) {
    return Status::InvalidArgument("unknown scorer: " + options.scorer);
  }
  IVR_RETURN_IF_ERROR(ValidateOptions(options));
  auto engine = std::unique_ptr<RetrievalEngine>(
      new RetrievalEngine(std::move(options), std::move(scorer)));
  IVR_RETURN_IF_ERROR(engine->AdoptShards(std::move(shards)));
  return engine;
}

Status RetrievalEngine::AdoptShards(
    std::vector<std::shared_ptr<const SubIndex>> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("engine needs at least one shard");
  }
  shards_ = std::move(shards);
  index_segments_.clear();
  index_segments_.reserve(shards_.size());
  keyframe_rows_.clear();
  keyframe_rows_.reserve(shards_.size());
  num_shots_ = 0;
  concepts_available_ = options_.use_concepts;
  for (const std::shared_ptr<const SubIndex>& shard : shards_) {
    if (shard == nullptr) {
      return Status::InvalidArgument("null shard");
    }
    index_segments_.push_back(
        IndexSegment{&shard->index(), static_cast<DocId>(num_shots_)});
    keyframe_rows_.push_back(HistogramRows::Of(
        shard->collection().shots(), &Shot::keyframe, num_shots_));
    num_shots_ += shard->num_shots();
    if (shard->concepts() == nullptr) concepts_available_ = false;
  }
  return Status::OK();
}

size_t RetrievalEngine::ShardOf(ShotId shot) const {
  if (shot >= num_shots_) return shards_.size();
  // Shards are few (segments compact under the merge policy); a linear
  // scan from the back beats binary search at these sizes.
  size_t s = shards_.size();
  while (s > 0 && index_segments_[s - 1].doc_offset > shot) --s;
  return s - 1;
}

const Shot* RetrievalEngine::FindShot(ShotId shot) const {
  const size_t s = ShardOf(shot);
  if (s >= shards_.size()) return nullptr;
  const Result<const Shot*> found = shards_[s]->collection().shot(
      shot - index_segments_[s].doc_offset);
  return found.ok() ? *found : nullptr;
}

ResultList RetrievalEngine::Search(const Query& query, size_t k,
                                   SearchDiagnostics* diagnostics) const {
  obs::ScopedSpan span("engine.search");
  const obs::Stopwatch total;
  metrics_.queries->Inc();
  FaultInjector& faults = FaultInjector::Global();
  const bool chaos = faults.enabled();
  // Parse once: the cache fingerprint and the text modality share it.
  TermQuery terms;
  if (query.HasText()) terms = ParseText(query.text);
  ResultCache* const cache = cache_.get();
  const bool cacheable =
      cache != nullptr &&
      (query.HasText() || query.HasExamples() || query.HasConcepts());
  std::string cache_key;
  uint64_t cache_generation = 0;
  if (cacheable) {
    cache_key = EpochKey(FusedKey(query, terms, k, options_));
    cache_generation = cache->generation();
    ResultList cached;
    if (cache->Lookup(cache_key, &cached)) {
      span.Annotate("cache", "hit");
      metrics_.search_us->Record(total.ElapsedUs());
      return cached;
    }
  }
  std::vector<ResultList> lists;
  std::vector<double> weights;
  bool degraded = false;
  if (query.HasText()) {
    // "engine.text" stands in for any fault on the posting-read path:
    // the modality is served empty-handed rather than crashing the query.
    if (chaos && faults.ShouldFail("engine.text")) {
      text_faults_.fetch_add(1, std::memory_order_relaxed);
      metrics_.text_faults->Inc();
      if (diagnostics != nullptr) diagnostics->text_faulted = true;
      degraded = true;
    } else {
      const obs::Stopwatch modality;
      lists.push_back(SearchTerms(terms, options_.candidate_pool));
      weights.push_back(options_.text_weight);
      metrics_.text_us->Record(modality.ElapsedUs());
    }
  }
  if (query.HasExamples()) {
    if (chaos && faults.ShouldFail("engine.visual")) {
      visual_faults_.fetch_add(1, std::memory_order_relaxed);
      metrics_.visual_faults->Inc();
      if (diagnostics != nullptr) diagnostics->visual_faulted = true;
      degraded = true;
    } else {
      const obs::Stopwatch modality;
      // Average the evidence over all examples.
      std::vector<ResultList> visual;
      visual.reserve(query.examples.size());
      for (const ColorHistogram& example : query.examples) {
        visual.push_back(SearchVisual(example, options_.candidate_pool));
      }
      lists.push_back(CombSum(visual));
      weights.push_back(options_.visual_weight);
      metrics_.visual_us->Record(modality.ElapsedUs());
    }
  }
  if (query.HasConcepts()) {
    if (!concepts_available_) {
      // Degrade loudly, not silently: the query asked for a modality this
      // engine cannot serve, which biases any evaluation built on it.
      concepts_dropped_.fetch_add(1, std::memory_order_relaxed);
      metrics_.concepts_dropped->Inc();
      if (diagnostics != nullptr) diagnostics->concepts_dropped = true;
      degraded = true;
      if (!degradation_logged_.exchange(true, std::memory_order_relaxed)) {
        IVR_LOG(Warning)
            << "concept query on an engine without a concept index; "
               "concept evidence dropped from fusion (logged once; see "
               "num_degraded_queries())";
      }
    } else if (chaos && faults.ShouldFail("engine.concept")) {
      concept_faults_.fetch_add(1, std::memory_order_relaxed);
      metrics_.concept_faults->Inc();
      if (diagnostics != nullptr) diagnostics->concepts_faulted = true;
      degraded = true;
    } else {
      const obs::Stopwatch modality;
      lists.push_back(
          SearchConceptsMerged(query.concepts, options_.candidate_pool));
      weights.push_back(options_.concept_weight);
      metrics_.concept_us->Record(modality.ElapsedUs());
    }
  }
  if (degraded) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
    metrics_.degraded_queries->Inc();
    span.Annotate("degraded", "true");
  }
  ResultList fused;
  if (!lists.empty()) {
    fused = lists.size() == 1 ? std::move(lists.front())
                              : WeightedLinear(lists, weights);
    fused.Truncate(k);
  }
  // Degraded rankings are transient (a fault fired on this call); caching
  // one would keep serving it after the fault cleared.
  if (cacheable && !degraded) {
    cache->Insert(cache_key, fused, cache_generation);
  }
  metrics_.search_us->Record(total.ElapsedUs());
  return fused;
}

std::vector<ResultList> RetrievalEngine::BatchSearch(
    const std::vector<Query>& queries, size_t k, size_t threads) const {
  if (threads == 0) threads = ThreadPool::DefaultThreadCount();
  std::vector<ResultList> results(queries.size());
  // Workers write into their query's slot: output order — and, because
  // every per-query computation is independent and deterministic, every
  // score — matches the sequential path bit for bit.
  ParallelFor(queries.size(), threads,
              [this, &queries, k, &results](size_t i, size_t /*worker*/) {
                results[i] = Search(queries[i], k);
              });
  return results;
}

HealthReport RetrievalEngine::Health() const {
  HealthReport report;
  report.concept_index_available =
      !options_.use_concepts || concepts_available_;
  report.degraded_queries =
      degraded_queries_.load(std::memory_order_relaxed);
  report.text_faults = text_faults_.load(std::memory_order_relaxed);
  report.visual_faults = visual_faults_.load(std::memory_order_relaxed);
  report.concept_faults = concept_faults_.load(std::memory_order_relaxed);
  report.concepts_dropped =
      concepts_dropped_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    report.cache_lookup_faults = cache_->Stats().lookup_faults;
  }
  report.faults_injected = FaultInjector::Global().num_injected();
  return report;
}

ResultList RetrievalEngine::SearchConceptsMerged(
    const std::vector<ConceptId>& concepts, size_t k) const {
  // Per-shard top-k under the same strict total order (mean confidence
  // desc, global ShotId asc), merged and re-truncated: per-shot scores
  // depend only on shot content and the global detection key, so the
  // merged list is bit-identical to a monolithic concept index's.
  std::vector<RankedShot> items;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ResultList local = shards_[s]->concepts()->SearchAll(concepts, k);
    const ShotId offset = static_cast<ShotId>(index_segments_[s].doc_offset);
    for (size_t i = 0; i < local.size(); ++i) {
      const RankedShot& entry = local.at(i);
      items.push_back(RankedShot{entry.shot + offset, entry.score});
    }
  }
  ResultList out(std::move(items));
  out.Truncate(k);
  return out;
}

Result<ResultList> RetrievalEngine::SearchConcepts(
    const std::vector<ConceptId>& concepts, size_t k) const {
  if (!concepts_available_) {
    return Status::FailedPrecondition(
        "engine was built without use_concepts");
  }
  ResultCache* const cache = cache_.get();
  std::string key;
  uint64_t generation = 0;
  if (cache != nullptr && !concepts.empty()) {
    key = EpochKey(ConceptsKey(concepts, k, options_.detector_seed));
    generation = cache->generation();
    ResultList cached;
    if (cache->Lookup(key, &cached)) return cached;
  }
  ResultList out = SearchConceptsMerged(concepts, k);
  if (cache != nullptr && !concepts.empty()) {
    cache->Insert(key, out, generation);
  }
  return out;
}

ResultList RetrievalEngine::SearchTerms(const TermQuery& query,
                                        size_t k) const {
  ResultCache* const cache = cache_.get();
  std::string key;
  uint64_t generation = 0;
  if (cache != nullptr && !query.empty()) {
    key = EpochKey(TermsKey(query, k, options_.scorer));
    generation = cache->generation();
    ResultList cached;
    if (cache->Lookup(key, &cached)) return cached;
  }
  // One flat accumulator per thread, reused across queries: steady-state
  // text search allocates nothing and stays safe under BatchSearch and
  // parallel session sweeps.
  static thread_local ScoreAccumulator accum;
  const Searcher searcher(index_segments_, *scorer_);
  const std::vector<SearchHit> hits = searcher.Search(query, k, &accum);
  // The hits are unique docs, best-first under the same (score desc, id
  // asc) order a ResultList keeps, so they are adopted as they are.
  std::vector<RankedShot> items;
  items.reserve(hits.size());
  for (const SearchHit& hit : hits) {
    items.push_back(RankedShot{static_cast<ShotId>(hit.doc), hit.score});
  }
  ResultList out = ResultList::FromRanked(std::move(items));
  if (cache != nullptr && !query.empty()) {
    cache->Insert(key, out, generation);
  }
  return out;
}

ResultList RetrievalEngine::SearchVisual(const ColorHistogram& example,
                                         size_t k) const {
  ResultCache* const cache = cache_.get();
  std::string key;
  uint64_t generation = 0;
  if (cache != nullptr) {
    key = EpochKey(VisualKey(example, k, options_.visual_similarity));
    generation = cache->generation();
    ResultList cached;
    if (cache->Lookup(key, &cached)) return cached;
  }
  // One scan over every shard's rows under their global ids: scores
  // depend only on content and the order (similarity desc, ShotId asc) is
  // strict, so this is exactly a monolithic scan of the concatenation.
  const std::vector<Neighbor> top = NearestNeighbors(
      options_.visual_similarity, example, keyframe_rows_, k);
  std::vector<RankedShot> items;
  items.reserve(top.size());
  for (const Neighbor& n : top) {
    items.push_back(RankedShot{static_cast<ShotId>(n.index), n.score});
  }
  ResultList out = ResultList::FromRanked(std::move(items));
  if (cache != nullptr) {
    cache->Insert(key, out, generation);
  }
  return out;
}

std::string RetrievalEngine::EpochKey(std::string key) const {
  if (cache_key_epoch_ == 0) return key;
  return "G" + std::to_string(cache_key_epoch_) + "|" + key;
}

TermQuery RetrievalEngine::ParseText(const std::string& text) const {
  const Searcher searcher(index_segments_, *scorer_);
  return searcher.ParseQuery(text);
}

double RetrievalEngine::ScoreShot(const TermQuery& query, ShotId shot) const {
  const Searcher searcher(index_segments_, *scorer_);
  return searcher.ScoreDocument(query, static_cast<DocId>(shot));
}

std::string RetrievalEngine::IndexedText(ShotId shot) const {
  const size_t s = ShardOf(shot);
  if (s >= shards_.size()) return std::string();
  Result<const Document*> doc = shards_[s]->docs().Get(
      static_cast<DocId>(shot - index_segments_[s].doc_offset));
  if (!doc.ok()) return std::string();
  std::string text = (*doc)->text;
  auto it = (*doc)->fields.find("headline");
  if (it != (*doc)->fields.end()) {
    text += " ";
    text += it->second;
  }
  return text;
}

}  // namespace ivr

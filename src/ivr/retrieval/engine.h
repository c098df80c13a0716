#ifndef IVR_RETRIEVAL_ENGINE_H_
#define IVR_RETRIEVAL_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/features/concept_detector.h"
#include "ivr/obs/metrics.h"
#include "ivr/features/similarity.h"
#include "ivr/index/document_store.h"
#include "ivr/index/inverted_index.h"
#include "ivr/index/scorer.h"
#include "ivr/index/searcher.h"
#include "ivr/retrieval/concept_index.h"
#include "ivr/retrieval/engine_options.h"
#include "ivr/retrieval/health.h"
#include "ivr/retrieval/result_list.h"
#include "ivr/retrieval/sub_index.h"
#include "ivr/video/collection.h"

namespace ivr {

class ResultCache;

/// A multimodal query: free text, optional visual examples, optional
/// high-level concept targets (available when the engine was built with
/// use_concepts).
struct Query {
  std::string text;
  std::vector<ColorHistogram> examples;
  std::vector<ConceptId> concepts;

  bool HasText() const { return !text.empty(); }
  bool HasExamples() const { return !examples.empty(); }
  bool HasConcepts() const { return !concepts.empty(); }
};

/// The news-video retrieval engine of the framework (the paper's Section 3
/// "recording, analysing, indexing and retrieving news videos" backend,
/// minus the recording hardware). It indexes one document per shot — ASR
/// transcript plus story headline metadata — and answers multimodal
/// queries by fusing text and visual-example evidence.
///
/// Per-query degradation report: which parts of a multimodal query the
/// engine could not honour. Silent modality drops skew experiments, so
/// callers that care (sweeps, tools) pass one in and check it.
struct SearchDiagnostics {
  /// The query carried concepts but the engine was built without
  /// use_concepts (or concept construction was degraded away) — the
  /// concept modality was dropped from fusion.
  bool concepts_dropped = false;
  /// A modality the query carried faulted (injected or real I/O fault on
  /// its read path) and was served without: the result is degraded, not
  /// wrong. "text" covers posting reads.
  bool text_faulted = false;
  bool visual_faulted = false;
  bool concepts_faulted = false;

  bool any_degradation() const {
    return concepts_dropped || text_faulted || visual_faulted ||
           concepts_faulted;
  }
};

/// How deep to fetch a modality for a search that keeps `k` results. A
/// lone ranked list that goes straight to Truncate(k) is fetched only
/// min(k, pool) deep: every modality selects under a strict total order
/// (score desc, id asc), so that is exactly the prefix of its top `pool`.
/// Lists that are fused or reranked keep the whole pool, because
/// normalisation and reranking read entries past the k-th.
inline size_t CandidateDepth(size_t k, size_t pool, bool lone_list) {
  return lone_list ? std::min(k, pool) : pool;
}

/// The engine itself is stateless across queries; all personalisation and
/// feedback adaptation lives above it (AdaptiveEngine). Search is safe to
/// call from multiple threads concurrently.
///
/// Internally the engine serves one or more immutable SubIndex shards,
/// each covering a contiguous slice of the global ShotId space. Every
/// query path ranks under the modality's strict total order (score desc,
/// id asc): text scores every shard's postings with scorers prepared
/// from the summed collection statistics, concepts merge per-shard top-k,
/// and visual search scans every shard's keyframes in one pass. So a
/// segmented engine ranks bit-identically to a monolithic engine built
/// over the concatenated collection — the invariant `ivr_ingest --check`
/// enforces.
class RetrievalEngine {
 public:
  /// Builds a single-shard engine over `collection`, which must outlive
  /// the engine.
  static Result<std::unique_ptr<RetrievalEngine>> Build(
      const VideoCollection& collection,
      EngineOptions options = EngineOptions());

  /// Builds an engine over prebuilt immutable shards. Shards must be
  /// non-empty, built with these same options, and supplied in ascending
  /// global-id order (shard i's shot_key_offset must equal the total shot
  /// count of shards 0..i-1 — the engine recomputes and checks offsets).
  static Result<std::unique_ptr<RetrievalEngine>> BuildSegmented(
      std::vector<std::shared_ptr<const SubIndex>> shards,
      EngineOptions options = EngineOptions());

  RetrievalEngine(const RetrievalEngine&) = delete;
  RetrievalEngine& operator=(const RetrievalEngine&) = delete;

  /// Multimodal search: runs each present modality and fuses with the
  /// configured weights. A dropped modality (concept query on a
  /// concept-less engine) is reported through `diagnostics` when non-null,
  /// logged once per engine, and counted in num_degraded_queries().
  ResultList Search(const Query& query, size_t k,
                    SearchDiagnostics* diagnostics = nullptr) const;

  /// Answers every query and returns the result lists in input order,
  /// fanned out over up to `threads` workers (0 = hardware concurrency).
  /// Rankings are bit-identical to sequential Search() calls: workers
  /// merge by query index, never by completion order.
  std::vector<ResultList> BatchSearch(const std::vector<Query>& queries,
                                      size_t k, size_t threads = 0) const;

  /// How many queries so far were answered degraded (a modality silently
  /// unavailable). Monotonic, thread-safe.
  uint64_t num_degraded_queries() const {
    return degraded_queries_.load(std::memory_order_relaxed);
  }

  /// Engine-lifetime degraded-mode counters (see health.h). Thread-safe.
  HealthReport Health() const;

  /// Attaches a shared base-ranking cache (nullptr detaches). Search,
  /// SearchTerms, SearchVisual and SearchConcepts then serve repeated
  /// queries from the cache — bit-identical to uncached serving, because
  /// keys are exact byte fingerprints and hits return copies of the
  /// stored lists. One cache may be shared by several engines built with
  /// identical options over the same collection (the simulate/serve
  /// per-worker engines); attach before serving, not while searches are
  /// in flight. Degraded (faulted-modality) results are never inserted.
  void AttachCache(std::shared_ptr<ResultCache> cache) {
    cache_ = std::move(cache);
  }
  ResultCache* cache() const { return cache_.get(); }

  /// Scopes this engine's cache keys to a segment-set epoch: when
  /// nonzero, every cache fingerprint is prefixed with "G<epoch>|", so
  /// engines over DIFFERENT generations of a live collection can share
  /// one cache without a query pinned to an old generation ever hitting
  /// (or polluting) a newer generation's entries. Compaction (merge)
  /// keeps the epoch: a merged engine ranks bit-identically, so its
  /// entries stay valid. Set together with AttachCache, before serving.
  /// 0 (the default) leaves keys unprefixed — identical to the
  /// pre-generational format.
  void SetCacheKeyEpoch(uint64_t epoch) { cache_key_epoch_ = epoch; }
  uint64_t cache_key_epoch() const { return cache_key_epoch_; }

  /// Text-only search over an explicit weighted term query (used by
  /// feedback/expansion components).
  ResultList SearchTerms(const TermQuery& query, size_t k) const;

  /// Visual-only search by example keyframe.
  ResultList SearchVisual(const ColorHistogram& example, size_t k) const;

  /// Concept-only search; FailedPrecondition unless built with
  /// use_concepts (and every shard's concept index survived construction).
  Result<ResultList> SearchConcepts(const std::vector<ConceptId>& concepts,
                                    size_t k) const;

  /// Parses raw text into the engine's analysed term space.
  TermQuery ParseText(const std::string& text) const;

  /// Absolute text score of one shot for a term query.
  double ScoreShot(const TermQuery& query, ShotId shot) const;

  /// Indexed text of one shot (what Rocchio feeds back); empty for bad id.
  std::string IndexedText(ShotId shot) const;

  /// Resolves a global ShotId to its shot (nullptr when out of range).
  /// The segmented replacement for handing out a monolithic collection.
  const Shot* FindShot(ShotId shot) const;

  /// The analyzer every shard's text index shares (same options).
  const Analyzer& analyzer() const {
    return shards_.front()->index().analyzer();
  }
  const EngineOptions& options() const { return options_; }
  size_t num_shots() const { return num_shots_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  RetrievalEngine(EngineOptions options, std::unique_ptr<Scorer> scorer);

  /// Adopts `shards` (ascending, contiguous) and precomputes offsets.
  Status AdoptShards(std::vector<std::shared_ptr<const SubIndex>> shards);
  /// Shard containing global shot id, or npos. The local id is
  /// `shot - index_segments_[i].doc_offset`.
  size_t ShardOf(ShotId shot) const;
  /// Uncached concept-bag search merged across shards; requires
  /// concepts_available_.
  ResultList SearchConceptsMerged(const std::vector<ConceptId>& concepts,
                                  size_t k) const;

  EngineOptions options_;
  std::unique_ptr<Scorer> scorer_;
  std::vector<std::shared_ptr<const SubIndex>> shards_;
  /// Parallel to shards_: the text-index view Searcher consumes
  /// (doc_offset = global id of the shard's local doc 0).
  std::vector<IndexSegment> index_segments_;
  /// Parallel to shards_: each shard's keyframes, read in place from its
  /// slice's shots, with first_id = the shard's global offset.
  std::vector<HistogramRows> keyframe_rows_;
  size_t num_shots_ = 0;
  /// All shards carry a concept index (vacuously false when use_concepts
  /// is off, or when any shard's concept construction was degraded away).
  bool concepts_available_ = false;
  std::shared_ptr<ResultCache> cache_;
  uint64_t cache_key_epoch_ = 0;

  /// Applies the generation epoch prefix to a cache fingerprint.
  std::string EpochKey(std::string key) const;
  mutable std::atomic<uint64_t> degraded_queries_{0};
  mutable std::atomic<uint64_t> text_faults_{0};
  mutable std::atomic<uint64_t> visual_faults_{0};
  mutable std::atomic<uint64_t> concept_faults_{0};
  mutable std::atomic<uint64_t> concepts_dropped_{0};
  mutable std::atomic<bool> degradation_logged_{false};

  /// Registry pointers resolved once at construction; Search touches only
  /// these (relaxed increments), never the registry mutex.
  struct Metrics {
    obs::Counter* queries;
    obs::Counter* degraded_queries;
    obs::Counter* text_faults;
    obs::Counter* visual_faults;
    obs::Counter* concept_faults;
    obs::Counter* concepts_dropped;
    obs::LatencyHistogram* search_us;
    obs::LatencyHistogram* text_us;
    obs::LatencyHistogram* visual_us;
    obs::LatencyHistogram* concept_us;
  };
  Metrics metrics_;
};

}  // namespace ivr

#endif  // IVR_RETRIEVAL_ENGINE_H_

#include "ivr/index/searcher.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "ivr/core/thread_pool.h"
#include "ivr/obs/metrics.h"

namespace ivr {
namespace {

/// `a` ranks strictly before `b`.
inline bool Better(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Query terms in lexicographic order so that score accumulation order —
/// and therefore floating-point results — never depends on hash-map
/// iteration order.
std::vector<std::pair<const std::string*, double>> OrderedTerms(
    const TermQuery& query) {
  std::vector<std::pair<const std::string*, double>> terms;
  terms.reserve(query.weights.size());
  for (const auto& [term, weight] : query.weights) {
    if (weight == 0.0) continue;
    terms.emplace_back(&term, weight);
  }
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  return terms;
}

/// Selects the top k of the accumulator's candidates with a bounded
/// min-heap (the heap's top is the worst kept hit), then emits them
/// best-first. Equivalent to sorting all candidates with Better() and
/// truncating, at O(candidates * log k).
std::vector<SearchHit> SelectTopK(const ScoreAccumulator& accum, size_t k) {
  std::vector<SearchHit> heap;
  if (k == 0) return heap;
  heap.reserve(std::min(k, accum.touched().size()));
  // With Better() as the comparator, std::*_heap keeps the WORST kept hit
  // at heap.front().
  for (DocId doc : accum.touched()) {
    const SearchHit hit{doc, accum.score(doc)};
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), Better);
    } else if (Better(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
  }
  // sort_heap orders ascending w.r.t. the comparator, which for Better()
  // means best-first — exactly the output order.
  std::sort_heap(heap.begin(), heap.end(), Better);
  return heap;
}

}  // namespace

Searcher::Searcher(std::vector<IndexSegment> segments, const Scorer& scorer)
    : segments_(std::move(segments)), scorer_(scorer) {
  assert(!segments_.empty());
  for (const IndexSegment& segment : segments_) {
    assert(segment.index != nullptr);
    assert(segment.doc_offset ==
           stats_.num_documents);  // contiguous, ascending
    stats_ += segment.index->stats();
  }
}

TermQuery ParseTermQuery(const Analyzer& analyzer, std::string_view text) {
  TermQuery query;
  for (const std::string& term : analyzer.Analyze(text)) {
    query.weights[term] = 1.0;
    query.counts[term] += 1;
  }
  return query;
}

TermQuery Searcher::ParseQuery(std::string_view text) const {
  return ParseTermQuery(segments_.front().index->analyzer(), text);
}

std::vector<SearchHit> Searcher::Search(const TermQuery& query,
                                        size_t k) const {
  return Search(query, k, &scratch_);
}

std::vector<SearchHit> Searcher::Search(const TermQuery& query, size_t k,
                                        ScoreAccumulator* accum) const {
#ifndef IVR_OBS_OFF
  // Searchers are constructed per query, so the registry pointers live in
  // function-local statics: one mutexed lookup per process, a guard-bit
  // load afterwards. Postings are tallied locally and published with a
  // single relaxed add per query.
  struct CachedMetrics {
    obs::Counter* queries =
        obs::Registry::Global().GetCounter("searcher.queries");
    obs::Counter* postings_scanned =
        obs::Registry::Global().GetCounter("searcher.postings_scanned");
    obs::Counter* candidates_scored =
        obs::Registry::Global().GetCounter("searcher.candidates_scored");
  };
  static const CachedMetrics metrics;
  uint64_t postings_scanned = 0;
#endif
  accum->Reset(stats_.num_documents);
  // Per-segment posting lists for the current term, resolved once before
  // scoring so df/cf can be summed exactly as a monolithic index would
  // count them.
  std::vector<const PostingList*> lists(segments_.size());
  for (const auto& [term, weight] : OrderedTerms(query)) {
    size_t df = 0;
    uint64_t cf = 0;
    bool any = false;
    for (size_t s = 0; s < segments_.size(); ++s) {
      const PostingList* pl = segments_[s].index->LookupAnalyzed(*term);
      lists[s] = pl;
      if (pl == nullptr) continue;
      any = true;
      df += pl->document_frequency();
      cf += pl->collection_frequency();
    }
    if (!any) continue;
    const PreparedTerm prepared =
        scorer_.Prepare(stats_, df, cf, query.QueryTf(*term));
    // Segment order is ascending doc_offset, so the global accumulation
    // order per term equals the monolithic posting list's document order.
    for (size_t s = 0; s < segments_.size(); ++s) {
      const PostingList* pl = lists[s];
      if (pl == nullptr) continue;
      const InvertedIndex& index = *segments_[s].index;
      const DocId offset = segments_[s].doc_offset;
#ifndef IVR_OBS_OFF
      postings_scanned += pl->postings().size();
#endif
      for (const Posting& p : pl->postings()) {
        const double partial = scorer_.ScorePosting(
            stats_, prepared, p.tf, index.document_length(p.doc));
        accum->Add(offset + p.doc, weight * partial);
      }
    }
  }
#ifndef IVR_OBS_OFF
  metrics.queries->Inc();
  metrics.postings_scanned->Inc(postings_scanned);
  metrics.candidates_scored->Inc(accum->touched().size());
#endif
  return SelectTopK(*accum, k);
}

std::vector<std::vector<SearchHit>> Searcher::BatchSearch(
    const std::vector<TermQuery>& queries, size_t k, size_t threads) const {
  if (threads == 0) threads = ThreadPool::DefaultThreadCount();
  std::vector<std::vector<SearchHit>> results(queries.size());
  // One scratch accumulator per worker; results merge by query index, so
  // the output order (and every score) is independent of scheduling.
  std::vector<ScoreAccumulator> accums(std::max<size_t>(1, threads));
  ParallelFor(queries.size(), threads,
              [this, &queries, k, &results, &accums](size_t i,
                                                     size_t worker) {
                results[i] = Search(queries[i], k, &accums[worker]);
              });
  return results;
}

std::vector<SearchHit> Searcher::SearchText(std::string_view text,
                                            size_t k) const {
  return Search(ParseQuery(text), k);
}

double Searcher::ScoreDocument(const TermQuery& query, DocId doc) const {
  // Locate the segment containing `doc`: the last segment whose offset is
  // <= doc (segments are ordered by ascending offset).
  size_t s = segments_.size();
  while (s > 0 && segments_[s - 1].doc_offset > doc) --s;
  if (s == 0) return 0.0;
  const InvertedIndex& index = *segments_[s - 1].index;
  const DocId local = doc - segments_[s - 1].doc_offset;
  if (local >= index.num_documents()) return 0.0;
  double score = 0.0;
  for (const auto& [term, weight] : OrderedTerms(query)) {
    size_t df = 0;
    uint64_t cf = 0;
    const Posting* posting = nullptr;
    for (const IndexSegment& segment : segments_) {
      const PostingList* pl = segment.index->LookupAnalyzed(*term);
      if (pl == nullptr) continue;
      df += pl->document_frequency();
      cf += pl->collection_frequency();
      if (segment.index == &index) posting = pl->Find(local);
    }
    if (posting == nullptr) continue;
    const PreparedTerm prepared =
        scorer_.Prepare(stats_, df, cf, query.QueryTf(*term));
    score += weight * scorer_.ScorePosting(stats_, prepared, posting->tf,
                                           index.document_length(local));
  }
  return score;
}

}  // namespace ivr

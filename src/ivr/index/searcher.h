#ifndef IVR_INDEX_SEARCHER_H_
#define IVR_INDEX_SEARCHER_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/index/document.h"
#include "ivr/index/inverted_index.h"
#include "ivr/index/score_accumulator.h"
#include "ivr/index/scorer.h"

namespace ivr {

/// One search hit.
struct SearchHit {
  DocId doc = kInvalidDocId;
  double score = 0.0;

  friend bool operator==(const SearchHit& a, const SearchHit& b) {
    return a.doc == b.doc && a.score == b.score;
  }
};

/// A weighted bag-of-terms query in analysed term space. Produced from raw
/// text via Searcher::ParseQuery or built directly by feedback components
/// (Rocchio emits weighted terms).
struct TermQuery {
  /// Analysed term -> linear boost. Multiplies the term's partial score.
  std::unordered_map<std::string, double> weights;

  /// Analysed term -> repetition count in the raw query text (query tf).
  /// Terms absent here count once. Kept separate from `weights` because
  /// query-term repetition saturates inside the scorer (BM25's third
  /// component) rather than scaling the partial linearly, while feedback
  /// boosts stay linear.
  std::unordered_map<std::string, uint32_t> counts;

  /// Query-term frequency of `term` (1 when untracked).
  uint32_t QueryTf(const std::string& term) const {
    auto it = counts.find(term);
    return it == counts.end() ? 1u : it->second;
  }

  bool empty() const { return weights.empty(); }
};

/// Analyses raw text into a TermQuery: every analysed term weighs 1 and
/// a repeated term accumulates query-term frequency in `counts`.
TermQuery ParseTermQuery(const Analyzer& analyzer, std::string_view text);

/// One immutable index segment of a segmented collection: the segment's
/// inverted index plus the global DocId of its first document. Global ids
/// are `doc_offset + local id`; segments must be supplied in ascending
/// offset order and tile the global id space contiguously.
struct IndexSegment {
  const InvertedIndex* index = nullptr;
  DocId doc_offset = 0;
};

/// Term-at-a-time top-k retrieval over one or more InvertedIndex segments.
///
/// The hot path accumulates scores into a flat per-document array
/// (ScoreAccumulator) and selects the top k with a bounded min-heap, so a
/// query costs O(postings + candidates*log k) with no hashing and no
/// full-materialised hit list. Query terms are processed in lexicographic
/// order, making scores independent of hash-map iteration order — the
/// property BatchSearch relies on to be bit-identical to sequential
/// execution regardless of thread count.
///
/// Segmented search is bit-identical to a monolithic index over the
/// concatenated documents: scorers are prepared once per term from the
/// summed collection statistics (exact integer sums), and each segment's
/// postings are visited in segment order — exactly the document order of
/// the monolithic posting list, since global ids are offset + local id.
class Searcher {
 public:
  /// Single-index convenience: one segment at offset 0. The references
  /// must outlive the searcher.
  Searcher(const InvertedIndex& index, const Scorer& scorer)
      : Searcher(std::vector<IndexSegment>{{&index, 0}}, scorer) {}

  /// Multi-segment search. `segments` must be non-empty, ordered by
  /// ascending doc_offset, and contiguous (each offset equals the previous
  /// offset plus the previous segment's num_documents()). All indexes must
  /// share the same analyzer configuration and outlive the searcher.
  Searcher(std::vector<IndexSegment> segments, const Scorer& scorer);

  /// Analyses raw text into a TermQuery (duplicate terms accumulate
  /// query-term frequency in `counts`; every weight is 1).
  TermQuery ParseQuery(std::string_view text) const;

  /// Scores all matching documents and returns the top `k` by descending
  /// score (ties broken by ascending DocId for determinism). An empty query
  /// yields an empty result. Reuses an internal scratch accumulator, so a
  /// single Searcher must not run this overload from multiple threads —
  /// concurrent callers pass their own accumulator below.
  std::vector<SearchHit> Search(const TermQuery& query, size_t k) const;

  /// Same, accumulating into caller-owned scratch (one per thread).
  std::vector<SearchHit> Search(const TermQuery& query, size_t k,
                                ScoreAccumulator* accum) const;

  /// Runs every query and returns the rankings in input order, fanned out
  /// over up to `threads` workers (0 = hardware concurrency) with one
  /// scratch accumulator per worker. Results are bit-identical to calling
  /// Search() on each query sequentially, for any thread count.
  std::vector<std::vector<SearchHit>> BatchSearch(
      const std::vector<TermQuery>& queries, size_t k,
      size_t threads = 0) const;

  /// Convenience: parse + search.
  std::vector<SearchHit> SearchText(std::string_view text, size_t k) const;

  /// Scores a single document (global id) against a query (0 when nothing
  /// matches); used by rerankers that need absolute scores for arbitrary
  /// documents.
  double ScoreDocument(const TermQuery& query, DocId doc) const;

  /// Summed statistics across all segments.
  const CollectionStats& stats() const { return stats_; }

 private:
  std::vector<IndexSegment> segments_;
  CollectionStats stats_;
  const Scorer& scorer_;
  mutable ScoreAccumulator scratch_;
};

}  // namespace ivr

#endif  // IVR_INDEX_SEARCHER_H_

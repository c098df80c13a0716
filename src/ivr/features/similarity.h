#ifndef IVR_FEATURES_SIMILARITY_H_
#define IVR_FEATURES_SIMILARITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "ivr/features/histogram.h"

namespace ivr {

/// A scored neighbour returned by visual search.
struct Neighbor {
  size_t index = 0;     ///< row id: HistogramRows::first_id + position
  double score = 0.0;   ///< similarity in [0,1]; larger = more similar
};

/// Which similarity function visual search uses.
enum class VisualSimilarity {
  kHistogramIntersection,
  kCosine,
  kInverseL1,  ///< 1 / (1 + L1 distance)
};

double ComputeSimilarity(VisualSimilarity kind, const ColorHistogram& a,
                         const ColorHistogram& b);

/// A run of histograms scanned where they live: row i is the
/// ColorHistogram `stride` * i bytes past `first` and carries the id
/// `first_id + i`. A block over a vector of records (a collection's
/// shots) reads each record's histogram member in place, so no keyframe
/// copy exists just for search. The rows must outlive every scan.
struct HistogramRows {
  const ColorHistogram* first = nullptr;
  size_t count = 0;
  size_t stride = sizeof(ColorHistogram);
  size_t first_id = 0;

  /// The `member` histogram of every element of `items`.
  template <typename T>
  static HistogramRows Of(const std::vector<T>& items,
                          ColorHistogram T::*member, size_t first_id) {
    return HistogramRows{items.empty() ? nullptr : &(items.front().*member),
                         items.size(), sizeof(T), first_id};
  }

  const ColorHistogram& row(size_t i) const {
    return *reinterpret_cast<const ColorHistogram*>(
        reinterpret_cast<const char*>(first) + i * stride);
  }
};

/// The visual k-nearest-neighbour kernel: exact brute-force search over
/// every row of `blocks`, the one scan loop behind query-by-example.
///
/// Returns the top min(k, rows) rows by descending score, ties by
/// ascending row id — a strict total order when ids are unique, so the
/// result does not depend on how the rows are split into blocks. Every
/// score equals ComputeSimilarity(kind, query, row) bit for bit: the
/// metric is dispatched once per scan, four rows are scored per pass over
/// the bins with one accumulator each (summed in bin order, so no row's
/// sum is reassociated), and a row whose size differs from the query's
/// scores the pairwise functions' worst case, 0. Candidates go into a
/// per-thread buffer reused across calls (O(rows) per thread, safe under
/// concurrent callers); only the top k are selected and sorted.
std::vector<Neighbor> NearestNeighbors(VisualSimilarity kind,
                                       const ColorHistogram& query,
                                       std::span<const HistogramRows> blocks,
                                       size_t k);

}  // namespace ivr

#endif  // IVR_FEATURES_SIMILARITY_H_

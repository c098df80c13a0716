#include "ivr/features/similarity.h"

#include <algorithm>
#include <cmath>

namespace ivr {
namespace {

/// Score desc, row id asc. A function object, so the selection and the
/// sort inline the comparison.
struct Better {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  }
};

/// Scores R rows of the query's size. Each row's accumulators run over
/// the bins in order with the exact operations of the pairwise functions
/// in histogram.cc (query operand first), so every score is bit-identical
/// to ComputeSimilarity; the R independent chains only add ILP.
template <VisualSimilarity K, size_t R>
void ScoreRows(const double* q, size_t n, double query_norm,
               const double* const* rows, double* out) {
  double acc[R] = {};
  [[maybe_unused]] double norm[R] = {};
  for (size_t i = 0; i < n; ++i) {
    const double qi = q[i];
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
      const double ri = rows[r][i];
      if constexpr (K == VisualSimilarity::kHistogramIntersection) {
        acc[r] += std::min(qi, ri);
      } else if constexpr (K == VisualSimilarity::kCosine) {
        acc[r] += qi * ri;
        norm[r] += ri * ri;
      } else {
        acc[r] += std::fabs(qi - ri);
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    if constexpr (K == VisualSimilarity::kHistogramIntersection) {
      out[r] = acc[r];
    } else if constexpr (K == VisualSimilarity::kCosine) {
      out[r] = query_norm <= 0.0 || norm[r] <= 0.0
                   ? 0.0
                   : acc[r] / (std::sqrt(query_norm) * std::sqrt(norm[r]));
    } else {
      out[r] = 1.0 / (1.0 + acc[r]);
    }
  }
}

template <VisualSimilarity K>
void ScanRows(const ColorHistogram& query,
              std::span<const HistogramRows> blocks, Neighbor* out) {
  constexpr size_t kBatch = 4;
  const double* const q = query.bins().data();
  const size_t n = query.size();
  double query_norm = 0.0;
  if constexpr (K == VisualSimilarity::kCosine) {
    for (size_t i = 0; i < n; ++i) query_norm += q[i] * q[i];
  }
  const double* rows[kBatch];
  Neighbor* slots[kBatch];
  double scores[kBatch];
  size_t pending = 0;
  for (const HistogramRows& block : blocks) {
    for (size_t i = 0; i < block.count; ++i) {
      const ColorHistogram& row = block.row(i);
      Neighbor* slot = out++;
      slot->index = block.first_id + i;
      if (row.size() != n) {
        slot->score = 0.0;  // mismatched sizes: the worst case, as pairwise
        continue;
      }
      rows[pending] = row.bins().data();
      slots[pending] = slot;
      if (++pending == kBatch) {
        ScoreRows<K, kBatch>(q, n, query_norm, rows, scores);
        for (size_t r = 0; r < kBatch; ++r) slots[r]->score = scores[r];
        pending = 0;
      }
    }
  }
  for (size_t r = 0; r < pending; ++r) {
    ScoreRows<K, 1>(q, n, query_norm, &rows[r], &scores[r]);
    slots[r]->score = scores[r];
  }
}

}  // namespace

double ComputeSimilarity(VisualSimilarity kind, const ColorHistogram& a,
                         const ColorHistogram& b) {
  switch (kind) {
    case VisualSimilarity::kHistogramIntersection:
      return HistogramIntersection(a, b);
    case VisualSimilarity::kCosine:
      return CosineSimilarity(a, b);
    case VisualSimilarity::kInverseL1:
      return 1.0 / (1.0 + L1Distance(a, b));
  }
  return 0.0;
}

std::vector<Neighbor> NearestNeighbors(VisualSimilarity kind,
                                       const ColorHistogram& query,
                                       std::span<const HistogramRows> blocks,
                                       size_t k) {
  size_t total = 0;
  for (const HistogramRows& block : blocks) total += block.count;
  if (k == 0 || total == 0) return {};
  // One candidate per row, reused per thread: steady-state scans allocate
  // only the returned top k.
  static thread_local std::vector<Neighbor> candidates;
  candidates.resize(total);
  switch (kind) {
    case VisualSimilarity::kHistogramIntersection:
      ScanRows<VisualSimilarity::kHistogramIntersection>(query, blocks,
                                                         candidates.data());
      break;
    case VisualSimilarity::kCosine:
      ScanRows<VisualSimilarity::kCosine>(query, blocks, candidates.data());
      break;
    case VisualSimilarity::kInverseL1:
      ScanRows<VisualSimilarity::kInverseL1>(query, blocks,
                                             candidates.data());
      break;
  }
  const auto top = candidates.begin() + static_cast<long>(std::min(k, total));
  if (top != candidates.end()) {
    std::nth_element(candidates.begin(), top, candidates.end(), Better());
  }
  std::sort(candidates.begin(), top, Better());
  return std::vector<Neighbor>(candidates.begin(), top);
}

}  // namespace ivr

#include "ivr/retrieval/fusion.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "ivr/core/logging.h"

namespace ivr {
namespace {

ResultList FromMap(const std::unordered_map<ShotId, double>& scores) {
  std::vector<RankedShot> items;
  items.reserve(scores.size());
  for (const auto& [shot, score] : scores) {
    items.push_back(RankedShot{shot, score});
  }
  return ResultList(std::move(items));
}

}  // namespace

ResultList MinMaxNormalize(const ResultList& list) {
  if (list.empty()) return ResultList();
  const std::vector<RankedShot>& ranked = list.items();
  const double hi = ranked.front().score;
  const double lo = ranked.back().score;
  const double range = hi - lo;
  if (range <= 0.0) {
    // A constant-score list carries no ranking evidence. Mapping it to
    // all-ones would hand a degenerate modality maximal weight in
    // CombSum/CombMnz/WeightedLinear and let it dominate fusion; map to
    // the neutral midpoint instead. Logged once per process — this fires
    // on every single-entry list, which is common and harmless.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      IVR_LOG(Warning) << "MinMaxNormalize: constant-score list ("
                       << ranked.size() << " entries, score " << lo
                       << "); normalising to neutral 0.5";
    }
  }
  std::vector<RankedShot> items;
  items.reserve(ranked.size());
  for (const RankedShot& r : ranked) {
    const double s = range > 0.0 ? (r.score - lo) / range : 0.5;
    items.push_back(RankedShot{r.shot, s});
  }
  // The map is monotone, so rank order survives except inside a run of
  // equal normalised scores that rounding merged (the whole list when it
  // is constant): those ties go back to ShotId order. Each run is sorted
  // once, so the cost stays O(n log n).
  for (auto run = items.begin(); run != items.end();) {
    const double score = run->score;
    const auto end = std::find_if(
        run + 1, items.end(),
        [score](const RankedShot& r) { return r.score != score; });
    std::sort(run, end, [](const RankedShot& a, const RankedShot& b) {
      return a.shot < b.shot;
    });
    run = end;
  }
  return ResultList::FromRanked(std::move(items));
}

ResultList CombSum(const std::vector<ResultList>& lists) {
  // One list: every normalised score x is non-negative, so the sum
  // 0.0 + x == x and the fused list is the normalised list itself.
  if (lists.size() == 1) return MinMaxNormalize(lists.front());
  std::unordered_map<ShotId, double> acc;
  for (const ResultList& list : lists) {
    const ResultList norm = MinMaxNormalize(list);
    for (const RankedShot& r : norm.items()) {
      acc[r.shot] += r.score;
    }
  }
  return FromMap(acc);
}

ResultList CombMnz(const std::vector<ResultList>& lists) {
  std::unordered_map<ShotId, double> sum;
  std::unordered_map<ShotId, int> hits;
  for (const ResultList& list : lists) {
    const ResultList norm = MinMaxNormalize(list);
    for (const RankedShot& r : norm.items()) {
      sum[r.shot] += r.score;
      ++hits[r.shot];
    }
  }
  std::unordered_map<ShotId, double> acc;
  for (const auto& [shot, s] : sum) {
    acc[shot] = s * hits[shot];
  }
  return FromMap(acc);
}

ResultList WeightedLinear(const std::vector<ResultList>& lists,
                          const std::vector<double>& weights) {
  if (lists.size() != weights.size()) {
    // A caller bug: fusing min(lists, weights) silently drops evidence
    // (or weights). Flag it, then fuse the aligned prefix so callers
    // still get a ranking.
    IVR_LOG(Error) << "WeightedLinear: " << lists.size() << " lists vs "
                   << weights.size()
                   << " weights; fusing only the aligned prefix";
  }
  std::unordered_map<ShotId, double> acc;
  const size_t n = std::min(lists.size(), weights.size());
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) continue;
    const ResultList norm = MinMaxNormalize(lists[i]);
    for (const RankedShot& r : norm.items()) {
      acc[r.shot] += weights[i] * r.score;
    }
  }
  return FromMap(acc);
}

ResultList ReciprocalRankFusion(const std::vector<ResultList>& lists,
                                double k) {
  std::unordered_map<ShotId, double> acc;
  for (const ResultList& list : lists) {
    const auto& items = list.items();
    for (size_t rank = 0; rank < items.size(); ++rank) {
      acc[items[rank].shot] += 1.0 / (k + static_cast<double>(rank) + 1.0);
    }
  }
  return FromMap(acc);
}

ResultList BordaCount(const std::vector<ResultList>& lists) {
  std::unordered_map<ShotId, double> acc;
  for (const ResultList& list : lists) {
    const auto& items = list.items();
    const double n = static_cast<double>(items.size());
    for (size_t rank = 0; rank < items.size(); ++rank) {
      acc[items[rank].shot] += n - static_cast<double>(rank);
    }
  }
  return FromMap(acc);
}

}  // namespace ivr

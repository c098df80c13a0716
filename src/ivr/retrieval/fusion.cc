#include "ivr/retrieval/fusion.h"

#include <algorithm>
#include <atomic>

#include "ivr/core/logging.h"

namespace ivr {
namespace {

/// Fuses (shot, contribution) votes into one ranking. Each shot's votes
/// are summed in the order they were cast, starting from 0.0 as a
/// zero-initialised accumulator would (so a lone -0.0 vote fuses to
/// +0.0). With `times_count` each sum is multiplied by the shot's number
/// of votes (CombMNZ). Memory is O(votes) whatever the id range: fused
/// ids may come from outside the program.
ResultList Tally(std::vector<RankedShot> votes, bool times_count = false) {
  std::stable_sort(votes.begin(), votes.end(),
                   [](const RankedShot& a, const RankedShot& b) {
                     return a.shot < b.shot;
                   });
  // Compacts each shot's run of votes into its first slot.
  size_t fused = 0;
  for (size_t run = 0; run < votes.size();) {
    const ShotId shot = votes[run].shot;
    double sum = 0.0;
    size_t end = run;
    for (; end < votes.size() && votes[end].shot == shot; ++end) {
      sum += votes[end].score;
    }
    if (times_count) sum *= static_cast<double>(end - run);
    votes[fused++] = RankedShot{shot, sum};
    run = end;
  }
  votes.resize(fused);
  std::sort(votes.begin(), votes.end(),
            [](const RankedShot& a, const RankedShot& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.shot < b.shot;
            });
  return ResultList::FromRanked(std::move(votes));
}

/// Every entry of every list, min-max normalised, as one vote each.
std::vector<RankedShot> NormalizedVotes(const std::vector<ResultList>& lists) {
  std::vector<RankedShot> votes;
  for (const ResultList& list : lists) {
    const ResultList norm = MinMaxNormalize(list);
    votes.insert(votes.end(), norm.items().begin(), norm.items().end());
  }
  return votes;
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
  return Tally(NormalizedVotes(lists));
}

ResultList CombMnz(const std::vector<ResultList>& lists) {
  return Tally(NormalizedVotes(lists), /*times_count=*/true);
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
  std::vector<RankedShot> votes;
  const size_t n = std::min(lists.size(), weights.size());
  for (size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) continue;
    const ResultList norm = MinMaxNormalize(lists[i]);
    for (const RankedShot& r : norm.items()) {
      votes.push_back(RankedShot{r.shot, weights[i] * r.score});
    }
  }
  return Tally(std::move(votes));
}

ResultList ReciprocalRankFusion(const std::vector<ResultList>& lists,
                                double k) {
  std::vector<RankedShot> votes;
  for (const ResultList& list : lists) {
    const auto& items = list.items();
    for (size_t rank = 0; rank < items.size(); ++rank) {
      votes.push_back(RankedShot{
          items[rank].shot, 1.0 / (k + static_cast<double>(rank) + 1.0)});
    }
  }
  return Tally(std::move(votes));
}

ResultList BordaCount(const std::vector<ResultList>& lists) {
  std::vector<RankedShot> votes;
  for (const ResultList& list : lists) {
    const auto& items = list.items();
    const double n = static_cast<double>(items.size());
    for (size_t rank = 0; rank < items.size(); ++rank) {
      votes.push_back(
          RankedShot{items[rank].shot, n - static_cast<double>(rank)});
    }
  }
  return Tally(std::move(votes));
}

}  // namespace ivr

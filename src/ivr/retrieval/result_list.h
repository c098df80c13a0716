#ifndef IVR_RETRIEVAL_RESULT_LIST_H_
#define IVR_RETRIEVAL_RESULT_LIST_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "ivr/video/types.h"

namespace ivr {

/// One ranked entry of a result list.
struct RankedShot {
  ShotId shot = kInvalidShotId;
  double score = 0.0;

  friend bool operator==(const RankedShot& a, const RankedShot& b) {
    return a.shot == b.shot && a.score == b.score;
  }
};

/// The rank order of every result list: `a` ranks strictly before `b`
/// (higher score first, ties broken by the lower ShotId). Strict and total
/// over unique shots, so the top j of a ranking are the prefix of its top
/// k for every j <= k.
inline bool RanksBefore(const RankedShot& a, const RankedShot& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.shot < b.shot;
}

/// An ordered retrieval result over shots, ranked from construction on:
/// descending score with ties broken by ascending ShotId, so equal inputs
/// produce byte-identical rankings. A list that is already ranked (a
/// top-k selection, a monotone rescoring of a ranked list) is adopted
/// through FromRanked without sorting it again.
///
/// Thread safety: a plain value. Const accessors only read, so any number
/// of threads may read one shared list (the result cache hands one stored
/// ResultList to every session that hits); Truncate must not race with
/// readers.
class ResultList {
 public:
  ResultList() = default;
  /// Takes arbitrary (shot, score) pairs; duplicates keep the max score.
  explicit ResultList(std::vector<RankedShot> items);

  /// Adopts entries already in rank order (score desc, ShotId asc) with
  /// unique shots, without sorting. The contract is the caller's; debug
  /// builds assert it.
  static ResultList FromRanked(std::vector<RankedShot> ranked);

  /// Ranks entries whose shots are already unique and keeps the best k:
  /// selects them (nth_element) and sorts only those, never the rest.
  static ResultList TopK(std::vector<RankedShot> unique, size_t k);

  /// Keeps only the top k entries.
  void Truncate(size_t k);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// i-th ranked entry (0-based); requires i < size().
  const RankedShot& at(size_t i) const { return items_[i]; }

  /// 0-based rank of a shot, nullopt when absent.
  std::optional<size_t> RankOf(ShotId shot) const;

  bool Contains(ShotId shot) const { return RankOf(shot).has_value(); }

  double ScoreOf(ShotId shot) const;

  /// Shot ids in rank order.
  std::vector<ShotId> ShotIds() const;

  const std::vector<RankedShot>& items() const { return items_; }

  /// Bytes the entries occupy (cache accounting). Counts the entries, not
  /// the vector's capacity: a copy, which is what the cache stores, holds
  /// exactly size() of them.
  size_t MemoryBytes() const { return items_.size() * sizeof(RankedShot); }

 private:
  std::vector<RankedShot> items_;
};

}  // namespace ivr

#endif  // IVR_RETRIEVAL_RESULT_LIST_H_

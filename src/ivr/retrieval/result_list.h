#ifndef IVR_RETRIEVAL_RESULT_LIST_H_
#define IVR_RETRIEVAL_RESULT_LIST_H_

#include <atomic>
#include <cstddef>
#include <mutex>
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

/// An ordered retrieval result over shots. Always kept sorted by
/// descending score with ties broken by ascending ShotId, so equal inputs
/// produce byte-identical rankings. A list that is already ranked (a
/// top-k selection, a monotone rescoring of a ranked list) is adopted
/// through FromRanked without sorting it again.
///
/// Thread safety: const accessors are safe to call concurrently on a
/// shared list (the result cache hands one ResultList to every session
/// that hits). Construction from a vector sorts eagerly, and a list made
/// unsorted again via Add() resolves the pending sort exactly once behind
/// a mutex, so readers never observe a half-sorted vector. Mutators
/// (Add/Truncate) must not race with readers or each other.
class ResultList {
 public:
  ResultList() = default;
  /// Takes arbitrary (shot, score) pairs; duplicates keep the max score.
  /// Sorts eagerly so the new list is immediately shareable.
  explicit ResultList(std::vector<RankedShot> items);

  /// Adopts entries already in rank order (score desc, ShotId asc) with
  /// unique shots, without sorting. The contract is the caller's; debug
  /// builds assert it.
  static ResultList FromRanked(std::vector<RankedShot> ranked);

  ResultList(const ResultList& other);
  ResultList(ResultList&& other) noexcept;
  ResultList& operator=(const ResultList& other);
  ResultList& operator=(ResultList&& other) noexcept;

  /// Adds one entry (re-sorts lazily on next read).
  void Add(ShotId shot, double score);

  /// Keeps only the top k entries.
  void Truncate(size_t k);

  size_t size() const;
  bool empty() const { return size() == 0; }

  /// i-th ranked entry (0-based); requires i < size().
  const RankedShot& at(size_t i) const;

  /// 0-based rank of a shot, nullopt when absent.
  std::optional<size_t> RankOf(ShotId shot) const;

  bool Contains(ShotId shot) const { return RankOf(shot).has_value(); }

  double ScoreOf(ShotId shot) const;

  /// Shot ids in rank order.
  std::vector<ShotId> ShotIds() const;

  const std::vector<RankedShot>& items() const;

  /// Bytes of heap memory held by the entries (cache accounting).
  size_t MemoryBytes() const;

 private:
  void EnsureSorted() const;
  /// Dedups + sorts and publishes sorted_ = true. Callers either hold
  /// sort_mu_ or have exclusive access (constructors).
  void SortNow() const;

  mutable std::mutex sort_mu_;
  mutable std::vector<RankedShot> items_;
  mutable std::atomic<bool> sorted_{true};
};

}  // namespace ivr

#endif  // IVR_RETRIEVAL_RESULT_LIST_H_

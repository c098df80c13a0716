#include "ivr/retrieval/result_list.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ivr {
namespace {

bool Better(const RankedShot& a, const RankedShot& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.shot < b.shot;
}

[[maybe_unused]] bool IsRanked(const std::vector<RankedShot>& items) {
  if (std::adjacent_find(items.begin(), items.end(),
                         [](const RankedShot& a, const RankedShot& b) {
                           return !Better(a, b);
                         }) != items.end()) {
    return false;
  }
  std::vector<ShotId> shots;
  shots.reserve(items.size());
  for (const RankedShot& r : items) shots.push_back(r.shot);
  std::sort(shots.begin(), shots.end());
  return std::adjacent_find(shots.begin(), shots.end()) == shots.end();
}

}  // namespace

ResultList::ResultList(std::vector<RankedShot> items)
    : items_(std::move(items)), sorted_(false) {
  // Sort eagerly: freshly built lists are the ones handed to the result
  // cache and shared across threads, so they must never carry a pending
  // mutation into a const accessor.
  SortNow();
}

ResultList ResultList::FromRanked(std::vector<RankedShot> ranked) {
  assert(IsRanked(ranked));
  ResultList out;
  out.items_ = std::move(ranked);
  return out;
}

ResultList::ResultList(const ResultList& other) {
  other.EnsureSorted();
  items_ = other.items_;
  sorted_.store(true, std::memory_order_relaxed);
}

ResultList::ResultList(ResultList&& other) noexcept
    : items_(std::move(other.items_)),
      sorted_(other.sorted_.load(std::memory_order_relaxed)) {
  other.items_.clear();
  other.sorted_.store(true, std::memory_order_relaxed);
}

ResultList& ResultList::operator=(const ResultList& other) {
  if (this == &other) return *this;
  other.EnsureSorted();
  items_ = other.items_;
  sorted_.store(true, std::memory_order_relaxed);
  return *this;
}

ResultList& ResultList::operator=(ResultList&& other) noexcept {
  if (this == &other) return *this;
  items_ = std::move(other.items_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  other.items_.clear();
  other.sorted_.store(true, std::memory_order_relaxed);
  return *this;
}

void ResultList::Add(ShotId shot, double score) {
  items_.push_back(RankedShot{shot, score});
  sorted_.store(false, std::memory_order_release);
}

void ResultList::Truncate(size_t k) {
  EnsureSorted();
  if (items_.size() > k) items_.resize(k);
}

size_t ResultList::size() const {
  EnsureSorted();  // deduplication can shrink the list
  return items_.size();
}

const RankedShot& ResultList::at(size_t i) const {
  EnsureSorted();
  return items_[i];
}

std::optional<size_t> ResultList::RankOf(ShotId shot) const {
  EnsureSorted();
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].shot == shot) return i;
  }
  return std::nullopt;
}

double ResultList::ScoreOf(ShotId shot) const {
  const std::optional<size_t> rank = RankOf(shot);
  return rank.has_value() ? items_[*rank].score : 0.0;
}

std::vector<ShotId> ResultList::ShotIds() const {
  EnsureSorted();
  std::vector<ShotId> out;
  out.reserve(items_.size());
  for (const RankedShot& r : items_) {
    out.push_back(r.shot);
  }
  return out;
}

const std::vector<RankedShot>& ResultList::items() const {
  EnsureSorted();
  return items_;
}

size_t ResultList::MemoryBytes() const {
  EnsureSorted();
  return items_.capacity() * sizeof(RankedShot);
}

void ResultList::EnsureSorted() const {
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(sort_mu_);
  if (sorted_.load(std::memory_order_relaxed)) return;
  SortNow();
}

void ResultList::SortNow() const {
  // Deduplicate by shot (keeping the max score), then order by score.
  std::sort(items_.begin(), items_.end(),
            [](const RankedShot& a, const RankedShot& b) {
              if (a.shot != b.shot) return a.shot < b.shot;
              return a.score > b.score;
            });
  items_.erase(std::unique(items_.begin(), items_.end(),
                           [](const RankedShot& a, const RankedShot& b) {
                             return a.shot == b.shot;
                           }),
               items_.end());
  std::sort(items_.begin(), items_.end(), Better);
  sorted_.store(true, std::memory_order_release);
}

}  // namespace ivr

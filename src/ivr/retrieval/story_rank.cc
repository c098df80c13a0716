#include "ivr/retrieval/story_rank.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ivr {

std::vector<RankedStory> RankStories(const ResultList& shots,
                                     const VideoCollection& collection,
                                     size_t k,
                                     StoryAggregation aggregation) {
  struct Accum {
    double max = 0.0;
    double sum = 0.0;
    size_t count = 0;
    /// Best first: `shots` is ranked, so its entries arrive in order.
    std::vector<ShotId> supporting;
  };
  std::map<StoryId, Accum> by_story;
  for (const RankedShot& r : shots.items()) {
    Result<const Shot*> shot = collection.shot(r.shot);
    if (!shot.ok()) continue;
    Accum& a = by_story[(*shot)->story];
    a.max = a.count == 0 ? r.score : std::max(a.max, r.score);
    a.sum += r.score;
    ++a.count;
    a.supporting.push_back(r.shot);
  }

  std::vector<RankedStory> out;
  out.reserve(by_story.size());
  for (auto& [story, a] : by_story) {
    RankedStory ranked;
    ranked.story = story;
    switch (aggregation) {
      case StoryAggregation::kMax:
        ranked.score = a.max;
        break;
      case StoryAggregation::kSum:
        ranked.score = a.sum;
        break;
      case StoryAggregation::kMean:
        ranked.score = a.sum / static_cast<double>(a.count);
        break;
    }
    ranked.supporting_shots = std::move(a.supporting);
    out.push_back(std::move(ranked));
  }
  std::sort(out.begin(), out.end(),
            [](const RankedStory& x, const RankedStory& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.story < y.story;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace ivr

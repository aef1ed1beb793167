#include "rec/item_knn.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/obs.h"
#include "util/check.h"

namespace copyattack::rec {

namespace {

/// Neighbors kept per item (the classic top-N similarity list).
constexpr std::size_t kNeighbors = 30;
static_assert(kNeighbors > 0);

/// Shrinkage added to the cosine denominator; damps similarities
/// estimated from few co-occurrences.
constexpr double kShrinkage = 5.0;

}  // namespace

void ItemKnn::InitTraining(const data::Dataset& train, util::Rng& rng) {
  (void)rng;  // deterministic model
  neighbors_.assign(train.num_items(), {});
}

void ItemKnn::TrainEpoch(const data::Dataset& train, util::Rng& rng) {
  (void)rng;
  CA_CHECK_EQ(neighbors_.size(), train.num_items())
      << "InitTraining must run before TrainEpoch";
  serving_checkpoint_valid_ = false;  // similarity lists are rebuilt

  // Co-occurrence counting via each user's profile pairs. Quadratic in
  // profile length, linear in users — fine at this repository's scale.
  std::vector<std::unordered_map<data::ItemId, std::size_t>> co_counts(
      train.num_items());
  for (data::UserId u = 0; u < train.num_users(); ++u) {
    const data::Profile& profile = train.UserProfile(u);
    for (std::size_t i = 0; i < profile.size(); ++i) {
      for (std::size_t j = i + 1; j < profile.size(); ++j) {
        ++co_counts[profile[i]][profile[j]];
        ++co_counts[profile[j]][profile[i]];
      }
    }
  }

  for (data::ItemId item = 0; item < train.num_items(); ++item) {
    std::vector<std::pair<data::ItemId, float>> scored;
    scored.reserve(co_counts[item].size());
    const double pop_a = static_cast<double>(train.ItemPopularity(item));
    for (const auto& [other, count] : co_counts[item]) {
      const double pop_b = static_cast<double>(train.ItemPopularity(other));
      const double cosine =
          static_cast<double>(count) /
          (std::sqrt(pop_a * pop_b) + kShrinkage);
      scored.emplace_back(other, static_cast<float>(cosine));
    }
    const std::size_t keep = std::min(kNeighbors, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first < b.first;
                      });
    scored.resize(keep);
    neighbors_[item] = std::move(scored);
  }
}

void ItemKnn::BeginServing(const data::Dataset& current) {
  OBS_COUNTER_INC("rec.begin_serving");
  CA_CHECK_EQ(neighbors_.size(), current.num_items());
  serving_ = &current;
}

void ItemKnn::ObserveNewUser(const data::Dataset& current,
                             data::UserId user) {
  CA_CHECK_LT(user, current.num_users());
  serving_ = &current;  // profiles are read directly from the dataset
}

bool ItemKnn::CheckpointServing() {
  // All serving state lives in the dataset (rolled back by the caller) and
  // the frozen similarity lists, so the checkpoint is just "similarities
  // unchanged since". A retraining pass invalidates it.
  serving_checkpoint_valid_ = serving_ != nullptr;
  if (serving_checkpoint_valid_) OBS_COUNTER_INC("rec.serving_checkpoints");
  return serving_checkpoint_valid_;
}

bool ItemKnn::RollbackServing() {
  if (serving_checkpoint_valid_) OBS_COUNTER_INC("rec.serving_rollbacks");
  return serving_checkpoint_valid_;
}

float ItemKnn::Score(data::UserId user, data::ItemId item) const {
  CA_CHECK(serving_ != nullptr) << "BeginServing must be called first";
  CA_CHECK_LT(user, serving_->num_users());
  CA_CHECK_LT(item, neighbors_.size());
  // Sum of similarities from the candidate item's neighbor list to the
  // user's profile items.
  float score = 0.0f;
  for (const auto& [neighbor, similarity] : neighbors_[item]) {
    if (serving_->HasInteraction(user, neighbor)) {
      score += similarity;
    }
  }
  return score;
}

const std::vector<std::pair<data::ItemId, float>>& ItemKnn::Neighbors(
    data::ItemId item) const {
  CA_CHECK_LT(item, neighbors_.size());
  return neighbors_[item];
}

}  // namespace copyattack::rec

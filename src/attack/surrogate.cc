#include "attack/surrogate.h"

#include <cstdint>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"

namespace copyattack::attack {

namespace {

/// Fixed training seed — NOT derived from the campaign seed (see the
/// class comment).
constexpr std::uint64_t kSeed = 0x5A11E27ULL;

}  // namespace

TargetSurrogate::TargetSurrogate(const data::Dataset& observable) {
  OBS_SPAN("attack.surrogate_train");
  CA_CHECK_GT(observable.num_users(), 0U)
      << "surrogate needs observable interactions to train on";
  util::Rng rng(kSeed);
  mf_.InitTraining(observable, rng);
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    mf_.TrainEpoch(observable, rng);
    OBS_COUNTER_INC("attack.surrogate_epochs");
  }

  const math::Matrix& users = mf_.user_embeddings();
  mean_user_embedding_.assign(users.cols(), 0.0f);
  for (std::size_t r = 0; r < users.rows(); ++r) {
    const float* row = users.Row(r);
    for (std::size_t c = 0; c < users.cols(); ++c) {
      mean_user_embedding_[c] += row[c];
    }
  }
  for (float& v : mean_user_embedding_) {
    v /= static_cast<float>(users.rows());
  }
}

std::vector<float> TargetSurrogate::FoldInProfile(
    const data::Profile& profile) const {
  const math::Matrix& items = mf_.item_embeddings();
  std::vector<float> embedding(items.cols(), 0.0f);
  if (profile.empty()) return embedding;
  for (const data::ItemId item : profile) {
    const float* row = items.Row(item);
    for (std::size_t c = 0; c < items.cols(); ++c) embedding[c] += row[c];
  }
  for (float& v : embedding) v /= static_cast<float>(profile.size());
  return embedding;
}

float TargetSurrogate::Score(const std::vector<float>& user_vec,
                             data::ItemId item) const {
  const math::Matrix& items = mf_.item_embeddings();
  CA_CHECK_EQ(user_vec.size(), items.cols());
  const float* row = items.Row(item);
  float dot = 0.0f;
  for (std::size_t c = 0; c < items.cols(); ++c) dot += user_vec[c] * row[c];
  return dot;
}

}  // namespace copyattack::attack

#include "core/crafting_policy.h"

#include "math/sampling.h"
#include "math/vector_ops.h"
#include "nn/optimizer.h"
#include "nn/reinforce.h"
#include "obs/obs.h"
#include "util/check.h"

namespace copyattack::core {

namespace {

/// Hidden width of the MLP and the standard deviation of its Gaussian
/// initial weights.
constexpr std::size_t kMlpHiddenDim = 16;
constexpr float kInitStddev = 0.1f;
/// Entropy regularization (CopyAttack's, shared with the selection
/// policy).
constexpr double kEntropyBeta = 0.003;

}  // namespace

CraftingPolicy::CraftingPolicy(const math::Matrix* user_embeddings,
                               const math::Matrix* item_embeddings,
                               util::Rng& rng)
    : user_embeddings_(user_embeddings), item_embeddings_(item_embeddings) {
  CA_CHECK(user_embeddings != nullptr);
  CA_CHECK(item_embeddings != nullptr);
  const std::size_t state_dim =
      user_embeddings->cols() + item_embeddings->cols();
  mlp_ = std::make_unique<nn::Mlp>(
      "crafting/mlp",
      std::vector<std::size_t>{state_dim, kMlpHiddenDim, kNumCraftLevels},
      rng, nn::Activation::kRelu, kInitStddev);
}

std::vector<float> CraftingPolicy::StateVector(data::UserId user) const {
  CA_CHECK_NE(target_item_, data::kNoItem);
  CA_CHECK_LT(user, user_embeddings_->rows());
  std::vector<float> state;
  state.reserve(user_embeddings_->cols() + item_embeddings_->cols());
  const float* p = user_embeddings_->Row(user);
  state.insert(state.end(), p, p + user_embeddings_->cols());
  const float* q = item_embeddings_->Row(target_item_);
  state.insert(state.end(), q, q + item_embeddings_->cols());
  return state;
}

std::size_t CraftingPolicy::SampleLevel(data::UserId user, util::Rng& rng,
                                        CraftStepRecord* record,
                                        bool greedy) {
  CA_CHECK(record != nullptr);
  OBS_COUNTER_INC("crafting.samples");
  nn::MlpContext ctx;
  std::vector<float> probs = mlp_->Forward(StateVector(user), &ctx);
  math::SoftmaxInPlace(probs);
  const std::size_t action =
      greedy ? math::ArgMax(probs) : math::SampleCategorical(probs, rng);
  record->user = user;
  record->action = action;
  return action;
}

void CraftingPolicy::AccumulateGradients(const CraftStepRecord& record,
                                         double advantage) {
  CA_CHECK_NE(record.user, data::kNoUser);
  nn::MlpContext ctx;
  std::vector<float> probs = mlp_->Forward(StateVector(record.user), &ctx);
  math::SoftmaxInPlace(probs);
  std::vector<float> dlogits =
      nn::PolicyGradientLogits(probs, record.action, advantage);
  nn::AddEntropyBonusGrad(probs, kEntropyBeta,
                          std::vector<bool>(probs.size(), true), dlogits);
  mlp_->Backward(ctx, dlogits, nullptr);
}

void CraftingPolicy::ApplyUpdates(float learning_rate, float clip_norm) {
  nn::Sgd optimizer(learning_rate, clip_norm);
  optimizer.Step(mlp_->Parameters());
}

}  // namespace copyattack::core

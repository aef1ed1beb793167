#include "core/flat_policy.h"

#include <istream>
#include <ostream>

#include "core/crafting.h"
#include "math/sampling.h"
#include "math/vector_ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/check.h"

namespace copyattack::core {

FlatPolicyNetwork::FlatPolicyNetwork(const data::CrossDomainDataset* dataset,
                                     const math::Matrix* user_embeddings,
                                     const math::Matrix* item_embeddings,
                                     const Config& config,
                                     std::uint64_t seed)
    : dataset_(dataset),
      user_embeddings_(user_embeddings),
      item_embeddings_(item_embeddings),
      config_(config),
      baseline_(config.baseline_momentum) {
  CA_CHECK(dataset != nullptr);
  CA_CHECK(user_embeddings != nullptr);
  CA_CHECK(item_embeddings != nullptr);
  CA_CHECK_EQ(user_embeddings->rows(), dataset->source.num_users());

  config_.crafting.entropy_beta = config.entropy_beta;
  util::Rng init_rng(seed);
  const std::size_t state_dim =
      item_embeddings->cols() + config.rnn_hidden_dim;
  rnn_ = std::make_unique<nn::RnnEncoder>("flat/rnn",
                                          user_embeddings->cols(),
                                          config.rnn_hidden_dim, init_rng,
                                          config.init_stddev);
  mlp_ = std::make_unique<nn::Mlp>(
      "flat/mlp",
      std::vector<std::size_t>{state_dim, config.mlp_hidden_dim,
                               dataset->source.num_users()},
      init_rng, nn::Activation::kRelu, config.init_stddev);
  crafting_ = std::make_unique<CraftingPolicy>(
      user_embeddings, item_embeddings, config_.crafting, init_rng);
}

void FlatPolicyNetwork::BeginTargetItem(data::ItemId target_item) {
  target_item_ = target_item;
  baseline_ = nn::MovingBaseline(config_.baseline_momentum);
  static_user_mask_.assign(dataset_->source.num_users(), false);
  for (const data::UserId user : dataset_->SourceHolders(target_item)) {
    static_user_mask_[user] = true;
  }
  crafting_->SetTargetItem(target_item);
}

std::vector<float> FlatPolicyNetwork::StateVector(
    const std::vector<data::UserId>& selected,
    nn::RnnContext* rnn_ctx) const {
  std::vector<float> state;
  const std::size_t embed_dim = item_embeddings_->cols();
  state.reserve(embed_dim + config_.rnn_hidden_dim);
  const float* q = item_embeddings_->Row(target_item_);
  state.insert(state.end(), q, q + embed_dim);

  std::vector<std::vector<float>> sequence;
  sequence.reserve(selected.size());
  const std::size_t user_dim = user_embeddings_->cols();
  for (const data::UserId user : selected) {
    const float* row = user_embeddings_->Row(user);
    sequence.emplace_back(row, row + user_dim);
  }
  const std::vector<float> hidden = rnn_->Forward(sequence, rnn_ctx);
  state.insert(state.end(), hidden.begin(), hidden.end());
  return state;
}

double FlatPolicyNetwork::RunEpisode(AttackEnvironment& env,
                                     util::Rng& rng) {
  CA_CHECK_NE(target_item_, data::kNoItem);
  CA_CHECK_EQ(env.target_item(), target_item_);

  std::vector<bool> mask = static_user_mask_;
  std::vector<StepRecord> trajectory;
  std::vector<data::UserId> selected_order;
  double last_reward = 0.0;
  double previous_query_hr = 0.0;
  bool first_action = true;

  while (!env.done()) {
    bool any = false;
    for (std::size_t u = 0; u < mask.size() && !any; ++u) any = mask[u];
    if (!any) break;

    StepRecord step;
    data::UserId user = data::kNoUser;
    if (first_action) {
      // Uniform seed action over the masked candidates, as in CopyAttack.
      std::vector<data::UserId> pool;
      for (std::size_t u = 0; u < mask.size(); ++u) {
        if (mask[u]) pool.push_back(static_cast<data::UserId>(u));
      }
      user = pool[rng.UniformUint64(pool.size())];
      first_action = false;
    } else {
      nn::RnnContext rnn_ctx;
      nn::MlpContext mlp_ctx;
      std::vector<float> probs =
          mlp_->Forward(StateVector(selected_order, &rnn_ctx), &mlp_ctx);
      math::MaskedSoftmaxInPlace(probs, mask);
      user = static_cast<data::UserId>(
          eval_mode_ ? math::ArgMax(probs)
                     : math::SampleCategorical(probs, rng));
      step.has_selection = true;
      step.selected_prefix = selected_order;
      step.action = user;
      step.user_mask = mask;
    }

    CraftStepRecord craft_record;
    const std::size_t level =
        crafting_->SampleLevel(user, rng, &craft_record, eval_mode_);
    step.crafting = craft_record;
    data::Profile profile = ClipProfileAroundTarget(
        dataset_->source.UserProfile(user), target_item_,
        kCraftLevels[level]);

    mask[user] = false;
    selected_order.push_back(user);

    const auto result = env.Step(std::move(profile));
    if (result.queried) {
      last_reward = result.reward;
      // Delta shaping, matching CopyAttack's default (see RewardShaping).
      step.reward = result.reward - previous_query_hr;
      previous_query_hr = result.reward;
    }
    trajectory.push_back(std::move(step));
  }

  if (!eval_mode_) {
    UpdatePolicies(trajectory);
  }
  return last_reward;
}

void FlatPolicyNetwork::UpdatePolicies(
    const std::vector<StepRecord>& trajectory) {
  if (trajectory.empty()) return;
  std::vector<double> rewards;
  rewards.reserve(trajectory.size());
  for (const StepRecord& step : trajectory) rewards.push_back(step.reward);
  const std::vector<double> returns =
      nn::DiscountedReturns(rewards, config_.gamma);

  const double baseline_value = baseline_.value();
  baseline_.Update(returns.front());

  const std::size_t embed_dim = item_embeddings_->cols();
  for (std::size_t t = 0; t < trajectory.size(); ++t) {
    const double advantage = returns[t] - baseline_value;
    if (advantage == 0.0) continue;  // analyze:allow(float-eq): zero-advantage skip
    const StepRecord& step = trajectory[t];
    if (step.has_selection) {
      nn::RnnContext rnn_ctx;
      nn::MlpContext mlp_ctx;
      std::vector<float> probs =
          mlp_->Forward(StateVector(step.selected_prefix, &rnn_ctx),
                        &mlp_ctx);
      math::MaskedSoftmaxInPlace(probs, step.user_mask);
      std::vector<float> dlogits = nn::PolicyGradientLogits(
          probs, step.action, advantage, step.user_mask);
      nn::AddEntropyBonusGrad(probs, config_.entropy_beta, step.user_mask,
                              dlogits);
      std::vector<float> dstate;
      mlp_->Backward(mlp_ctx, dlogits, &dstate);
      std::vector<float> dhidden(config_.rnn_hidden_dim);
      for (std::size_t h = 0; h < config_.rnn_hidden_dim; ++h) {
        dhidden[h] = dstate[embed_dim + h];
      }
      rnn_->Backward(rnn_ctx, dhidden);
    }
    if (step.crafting.has_value()) {
      crafting_->AccumulateGradients(*step.crafting, advantage);
    }
  }

  nn::ParameterList params = mlp_->Parameters();
  nn::AppendParameters(params, rnn_->Parameters());
  nn::Sgd optimizer(config_.learning_rate, config_.clip_norm);
  optimizer.Step(params);
  crafting_->ApplyUpdates(config_.learning_rate, config_.clip_norm);
}

bool FlatPolicyNetwork::SaveState(std::ostream& out) {
  nn::ParameterList params = mlp_->Parameters();
  nn::AppendParameters(params, rnn_->Parameters());
  nn::AppendParameters(params, crafting_->Parameters());
  if (!nn::SaveParameters(params, out)) return false;
  const nn::MovingBaseline::State baseline = baseline_.SaveState();
  out.write(reinterpret_cast<const char*>(&baseline.value),
            sizeof(baseline.value));
  const std::uint8_t initialized = baseline.initialized ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&initialized),
            sizeof(initialized));
  return static_cast<bool>(out);
}

bool FlatPolicyNetwork::LoadState(std::istream& in) {
  nn::ParameterList params = mlp_->Parameters();
  nn::AppendParameters(params, rnn_->Parameters());
  nn::AppendParameters(params, crafting_->Parameters());
  if (!nn::LoadParameters(params, in)) return false;
  nn::MovingBaseline::State baseline;
  std::uint8_t initialized = 0;
  in.read(reinterpret_cast<char*>(&baseline.value),
          sizeof(baseline.value));
  in.read(reinterpret_cast<char*>(&initialized), sizeof(initialized));
  if (!in) return false;
  baseline.initialized = initialized != 0;
  baseline_.RestoreState(baseline);
  return true;
}

}  // namespace copyattack::core

#include "attack/surrogate_transfer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace copyattack::attack {

namespace {

float Dot(const std::vector<float>& u, const float* v) {
  float dot = 0.0f;
  for (std::size_t c = 0; c < u.size(); ++c) dot += u[c] * v[c];
  return dot;
}

}  // namespace

SurrogateTransferAttack::SurrogateTransferAttack(
    const data::CrossDomainDataset* dataset,
    std::shared_ptr<const TargetSurrogate> surrogate,
    const SurrogateTransferConfig& config, std::uint64_t seed)
    : dataset_(dataset),
      surrogate_(std::move(surrogate)),
      config_(config),
      ascent_rng_(seed) {
  CA_CHECK(dataset_ != nullptr);
  CA_CHECK(surrogate_ != nullptr);
  CA_CHECK_GT(config_.profile_length, 1U);
  CA_CHECK_GT(config_.ascent_steps, 0U);
  CA_CHECK_EQ(surrogate_->num_items(), dataset_->target.num_items());
}

void SurrogateTransferAttack::BeginTargetItem(data::ItemId target_item) {
  target_item_ = target_item;
  popular_items_.clear();
  for (const data::ItemId item : dataset_->target.ItemsByPopularity()) {
    if (item == target_item_) continue;
    popular_items_.push_back(item);
    if (popular_items_.size() >= config_.popular_negatives) break;
  }
  CA_CHECK(!popular_items_.empty())
      << "surrogate-transfer needs popular items to rank the target against";
}

data::Profile SurrogateTransferAttack::CraftProfile(data::UserId seed_user,
                                                    util::Rng& rng) {
  const math::Matrix& items = surrogate_->item_embeddings();
  const std::size_t dim = items.cols();

  // Virtual user: the seed user's fold-in embedding plus a small jitter so
  // the budget's profiles explore distinct ascent basins.
  std::vector<float> anchor =
      surrogate_->FoldInProfile(dataset_->target.UserProfile(seed_user));
  std::vector<float> u = anchor;
  for (float& v : u) v += 0.05f * static_cast<float>(rng.Normal());

  // BPR-style ascent: push the target item's score above the popular
  // items', anchored to the genuine embedding.
  const float* q_target = items.Row(target_item_);
  const float step =
      config_.step_size * static_cast<float>(step_scale_);
  std::vector<float> grad(dim);
  for (std::size_t s = 0; s < config_.ascent_steps; ++s) {
    std::fill(grad.begin(), grad.end(), 0.0f);
    const float target_score = Dot(u, q_target);
    for (const data::ItemId popular : popular_items_) {
      const float* q_popular = items.Row(popular);
      const float margin = target_score - Dot(u, q_popular);
      const float weight = 1.0f / (1.0f + std::exp(margin));
      for (std::size_t c = 0; c < dim; ++c) {
        grad[c] += weight * (q_target[c] - q_popular[c]);
      }
    }
    const float scale = 1.0f / static_cast<float>(popular_items_.size());
    for (std::size_t c = 0; c < dim; ++c) {
      grad[c] = grad[c] * scale -
                2.0f * config_.anchor_weight * (u[c] - anchor[c]);
      u[c] += step * grad[c];
    }
  }
  OBS_COUNTER_ADD("attack.ascent_steps", config_.ascent_steps);

  // Discretize: the target item plus the optimized embedding's nearest
  // items (ties on item id so the profile is platform-independent).
  const std::size_t num_items = dataset_->target.num_items();
  std::vector<std::pair<float, data::ItemId>> scored;
  scored.reserve(num_items - 1);
  for (data::ItemId item = 0; item < num_items; ++item) {
    if (item == target_item_) continue;
    scored.emplace_back(Dot(u, items.Row(item)), item);
  }
  const std::size_t keep =
      std::min(config_.profile_length - 1, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    scored.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  data::Profile profile;
  profile.reserve(keep + 1);
  for (std::size_t i = 0; i < keep; ++i) profile.push_back(scored[i].second);
  profile.insert(
      profile.begin() + static_cast<std::ptrdiff_t>(profile.size() / 2),
      target_item_);
  return profile;
}

double SurrogateTransferAttack::RunEpisode(core::AttackEnvironment& env,
                                           util::Rng& rng) {
  (void)rng;  // all stochastic choices come from the checkpointed stream
  CA_CHECK_NE(target_item_, data::kNoItem);
  OBS_SPAN("attack.surrogate_transfer_episode");

  const std::size_t num_users = dataset_->target.num_users();
  data::UserId episode_seed_user;
  if (eval_mode_ && best_seed_user_ != data::kNoUser) {
    episode_seed_user = best_seed_user_;
  } else {
    episode_seed_user =
        static_cast<data::UserId>(ascent_rng_.UniformUint64(num_users));
  }

  double last_reward = 0.0;
  while (!env.done()) {
    data::Profile profile = CraftProfile(episode_seed_user, ascent_rng_);
    const auto result = env.Step(std::move(profile));
    if (result.queried) {
      last_reward = result.reward;
      OBS_COUNTER_INC("attack.transfer_queries");
    }
  }

  ++episodes_run_;
  if (!eval_mode_) {
    if (last_reward > best_reward_) {
      best_reward_ = last_reward;
      best_seed_user_ = episode_seed_user;
    } else {
      step_scale_ =
          std::max(config_.min_step_scale, step_scale_ * config_.step_decay);
    }
  }
  return last_reward;
}

bool SurrogateTransferAttack::SaveState(std::ostream& out) {
  util::WritePod(out, step_scale_);
  util::WritePod(out, best_reward_);
  util::WritePod(out, best_seed_user_);
  util::WritePod(out, episodes_run_);
  util::WriteRngState(out, ascent_rng_.SaveState());
  return static_cast<bool>(out);
}

bool SurrogateTransferAttack::LoadState(std::istream& in) {
  util::RngState rng_state;
  if (!util::ReadPod(in, &step_scale_) || !util::ReadPod(in, &best_reward_) ||
      !util::ReadPod(in, &best_seed_user_) ||
      !util::ReadPod(in, &episodes_run_) ||
      !util::ReadRngState(in, &rng_state)) {
    return false;
  }
  ascent_rng_.RestoreState(rng_state);
  return true;
}

}  // namespace copyattack::attack

#include "core/copy_attack.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/crafting.h"
#include "core/proxy.h"
#include "nn/serialize.h"
#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace copyattack::core {

std::shared_ptr<const cluster::HierarchicalTree> BuildFlatTree(
    const math::Matrix& user_embeddings) {
  util::Rng unused(0);  // a depth-1 build makes no k-means draws
  return std::make_shared<const cluster::HierarchicalTree>(
      cluster::HierarchicalTree::BuildWithDepth(user_embeddings, 1, unused));
}

CopyAttack::CopyAttack(const data::CrossDomainDataset* dataset,
                       const cluster::HierarchicalTree* tree,
                       const math::Matrix* user_embeddings,
                       const math::Matrix* item_embeddings,
                       const CopyAttackConfig& config, std::uint64_t seed)
    : dataset_(dataset),
      tree_(tree),
      config_(config),
      baseline_(config.baseline_momentum) {
  CA_CHECK(dataset != nullptr);
  CA_CHECK(tree != nullptr);
  config_.selection.entropy_beta = config.entropy_beta;
  config_.crafting.entropy_beta = config.entropy_beta;
  util::Rng init_rng(seed);
  selection_ = std::make_unique<HierarchicalSelectionPolicy>(
      tree, user_embeddings, item_embeddings, config_.selection, init_rng);
  crafting_ = std::make_unique<CraftingPolicy>(
      user_embeddings, item_embeddings, config_.crafting, init_rng);
}

CopyAttack::CopyAttack(const data::CrossDomainDataset* dataset,
                       std::shared_ptr<const cluster::HierarchicalTree> tree,
                       const math::Matrix* user_embeddings,
                       const math::Matrix* item_embeddings,
                       const CopyAttackConfig& config, std::uint64_t seed)
    : CopyAttack(dataset, tree.get(), user_embeddings, item_embeddings,
                 config, seed) {
  shared_tree_ = std::move(tree);
}

std::string CopyAttack::name() const {
  if (!config_.use_masking) return "CopyAttack-Masking";
  if (!config_.use_crafting) return "CopyAttack-Length";
  if (tree_->depth() == 1) return "PolicyNetwork";
  return "CopyAttack";
}

void CopyAttack::BeginTargetItem(data::ItemId target_item) {
  target_item_ = target_item;
  baseline_ = nn::MovingBaseline(config_.baseline_momentum);

  // Proxy extension: when the target item cannot be anchored in the
  // source domain, select and craft around its most co-occurring
  // overlapping item instead (paper §6 future work).
  anchor_item_ = target_item;
  if (config_.allow_proxy &&
      dataset_->SourceHolders(target_item).empty()) {
    anchor_item_ = FindProxyItem(*dataset_, dataset_->target, target_item);
    if (anchor_item_ == data::kNoItem) {
      // Fallback: the most popular attackable overlapping item.
      std::size_t best_popularity = 0;
      for (const data::ItemId item : dataset_->OverlapItems()) {
        if (dataset_->SourceHolders(item).empty()) continue;
        const std::size_t popularity =
            dataset_->target.ItemPopularity(item);
        if (anchor_item_ == data::kNoItem ||
            popularity > best_popularity) {
          anchor_item_ = item;
          best_popularity = popularity;
        }
      }
    }
    CA_CHECK_NE(anchor_item_, data::kNoItem)
        << "no attackable overlapping item exists";
  }

  const auto& source = dataset_->source;
  candidates_.clear();
  if (config_.use_masking) {
    candidates_ = dataset_->SourceHolders(anchor_item_);
  } else {
    candidates_.reserve(source.num_users());
    for (data::UserId u = 0; u < source.num_users(); ++u) {
      candidates_.push_back(u);
    }
  }

  // Static node mask: with masking, only leaves whose profile contains the
  // target item stay selectable (paper §4.3.2); without it, all leaves do.
  std::vector<bool> static_mask;
  if (config_.use_masking) {
    static_mask = tree_->ComputeMask([&](std::size_t user) {
      return dataset_->source.HasInteraction(
          static_cast<data::UserId>(user), anchor_item_);
    });
  } else {
    static_mask.assign(tree_->num_nodes(), true);
  }
  selection_->SetTargetItem(anchor_item_, std::move(static_mask));
  crafting_->SetTargetItem(anchor_item_);
}

double CopyAttack::RunEpisode(AttackEnvironment& env, util::Rng& rng) {
  OBS_SPAN("attack.episode");
  OBS_COUNTER_INC("attack.episodes");
  CA_CHECK_NE(target_item_, data::kNoItem);
  CA_CHECK_EQ(env.target_item(), target_item_)
      << "environment was reset for a different target item";

  selection_->ResetEpisodeMask();
  selected_this_episode_.clear();

  std::vector<TrajectoryStep> trajectory;
  std::vector<data::UserId> selected_order;
  double last_reward = 0.0;
  double previous_query_hr = 0.0;
  bool first_action = true;

  while (!env.done()) {
    TrajectoryStep step;
    data::UserId user = data::kNoUser;

    if (first_action) {
      // Seed action a_0 is uniform random (paper §4.3.3): the RNN state is
      // empty and carries no signal yet. No selection gradient for it.
      user = SampleSeedUser(rng);
      first_action = false;
    } else if (selection_->AnyAvailable()) {
      SelectionStepRecord record;
      user = selection_->SampleUser(selected_order, rng, &record,
                                    eval_mode_);
      step.selection = std::move(record);
    }
    if (user == data::kNoUser) {
      break;  // candidate pool exhausted (few source holders, large budget)
    }

    data::Profile profile = BuildProfile(user, rng, &step);

    // Never copy the same source user twice within an episode.
    selection_->MarkUserSelected(user);
    selected_this_episode_.insert(user);
    selected_order.push_back(user);

    const AttackEnvironment::StepResult result =
        env.Step(std::move(profile));
    if (result.queried) {
      last_reward = result.reward;
      step.reward =
          config_.reward_shaping == RewardShaping::kDeltaHitRatio
              ? result.reward - previous_query_hr
              : result.reward;
      previous_query_hr = result.reward;
    }
    trajectory.push_back(std::move(step));
  }

  if (!eval_mode_) {
    UpdatePolicies(trajectory);
  }
  OBS_UNIT_HIST_OBSERVE("attack.episode_reward", last_reward);
  return last_reward;
}

data::UserId CopyAttack::SampleSeedUser(util::Rng& rng) {
  if (candidates_.empty()) return data::kNoUser;
  for (std::size_t attempt = 0; attempt < 8 * candidates_.size() + 16;
       ++attempt) {
    const data::UserId user =
        candidates_[rng.UniformUint64(candidates_.size())];
    if (selected_this_episode_.find(user) == selected_this_episode_.end()) {
      return user;
    }
  }
  return data::kNoUser;
}

data::Profile CopyAttack::BuildProfile(data::UserId user, util::Rng& rng,
                                       TrajectoryStep* step) {
  const data::Profile& raw = dataset_->source.UserProfile(user);
  CA_CHECK(!raw.empty());
  data::Profile profile;
  if (!config_.use_crafting || !config_.use_masking) {
    // CopyAttack-Length injects raw profiles; CopyAttack-Masking also
    // disables crafting because selected profiles mostly lack the target
    // item (paper §5.1.4).
    profile = raw;
  } else {
    CraftStepRecord record;
    const std::size_t level =
        crafting_->SampleLevel(user, rng, &record, eval_mode_);
    step->crafting = record;
    OBS_UNIT_HIST_OBSERVE("attack.clip_ratio", kCraftLevels[level]);
    profile =
        ClipProfileAroundTarget(raw, anchor_item_, kCraftLevels[level]);
  }
  if (anchor_item_ != target_item_) {
    profile = SpliceTargetIntoProfile(std::move(profile), anchor_item_,
                                      target_item_);
  }
  return profile;
}

bool CopyAttack::SaveState(std::ostream& out) {
  if (!selection_->SaveState(out) ||
      !nn::SaveParameters(crafting_->Parameters(), out)) {
    return false;
  }
  const nn::MovingBaseline::State baseline = baseline_.SaveState();
  util::WritePod(out, baseline.value);
  util::WritePod<std::uint8_t>(out, baseline.initialized ? 1 : 0);
  return static_cast<bool>(out);
}

bool CopyAttack::LoadState(std::istream& in) {
  if (!selection_->LoadState(in) ||
      !nn::LoadParameters(crafting_->Parameters(), in)) {
    return false;
  }
  nn::MovingBaseline::State baseline;
  std::uint8_t initialized = 0;
  if (!util::ReadPod(in, &baseline.value) ||
      !util::ReadPod(in, &initialized)) {
    return false;
  }
  baseline.initialized = initialized != 0;
  baseline_.RestoreState(baseline);
  return true;
}

void CopyAttack::UpdatePolicies(
    const std::vector<TrajectoryStep>& trajectory) {
  if (trajectory.empty()) return;
  std::vector<double> rewards;
  rewards.reserve(trajectory.size());
  for (const TrajectoryStep& step : trajectory) {
    rewards.push_back(step.reward);
  }
  const std::vector<double> returns =
      nn::DiscountedReturns(rewards, config_.gamma);

  const double baseline_value = baseline_.value();
  baseline_.Update(returns.front());

  for (std::size_t t = 0; t < trajectory.size(); ++t) {
    const double advantage = returns[t] - baseline_value;
    if (advantage == 0.0) continue;  // analyze:allow(float-eq): zero-advantage skip
    if (trajectory[t].selection.has_value()) {
      selection_->AccumulateGradients(*trajectory[t].selection, advantage);
    }
    if (trajectory[t].crafting.has_value()) {
      crafting_->AccumulateGradients(*trajectory[t].crafting, advantage);
    }
  }
  OBS_SPAN("attack.policy_update");
  selection_->ApplyUpdates(config_.learning_rate, config_.clip_norm);
  crafting_->ApplyUpdates(config_.learning_rate, config_.clip_norm);
}

}  // namespace copyattack::core

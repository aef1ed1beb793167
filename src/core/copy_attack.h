#ifndef COPYATTACK_CORE_COPY_ATTACK_H_
#define COPYATTACK_CORE_COPY_ATTACK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/hierarchical_tree.h"
#include "core/attack_strategy.h"
#include "core/crafting_policy.h"
#include "core/selection_policy.h"
#include "data/cross_domain.h"
#include "nn/reinforce.h"
#include "util/annotations.h"

namespace copyattack::core {

/// How query feedback is turned into the per-step REINFORCE reward.
enum class RewardShaping {
  /// The paper's Eq. (1): the raw HR@k over the pretend users at each
  /// query round.
  kHitRatio,
  /// The *increase* of HR@k since the previous query round. Same optimum,
  /// but each 3-injection window is credited with its marginal lift, which
  /// substantially improves credit assignment under the episode-level
  /// baseline (ablated in `copyattack recipe reward_shaping`).
  kDeltaHitRatio,
};

/// Hyper-parameters of the CopyAttack agent.
struct CopyAttackConfig {
  /// Reward construction from the query feedback.
  RewardShaping reward_shaping = RewardShaping::kDeltaHitRatio;
  /// SGD learning rate of the policy updates.
  float learning_rate = 0.15f;

  /// Ablation switches (Table 2 rows "CopyAttack-Masking" and
  /// "CopyAttack-Length"):
  /// * `use_masking = false` lets the agent pick any source user; per the
  ///   paper, crafting is also disabled in that variant because selected
  ///   profiles mostly lack the target item.
  bool use_masking = true;
  /// * `use_crafting = false` injects raw profiles (no clipping).
  bool use_crafting = true;

  /// Extension (paper future work): when the target item has no source
  /// holders, anchor selection/crafting on the most co-occurring
  /// overlapping item (see core/proxy.h) and splice the target item into
  /// the crafted windows. Off by default to match the paper's setting.
  bool allow_proxy = false;

  HierarchicalSelectionPolicy::Config selection;
};

/// The tree of the "PolicyNetwork" baseline (paper §5.1.4): a root with
/// one leaf per source user, in id order, so a CopyAttack over it is one
/// policy over every user with the same masking and crafting. The build
/// runs no k-means.
std::shared_ptr<const cluster::HierarchicalTree> BuildFlatTree(
    const math::Matrix& user_embeddings);

/// The full CopyAttack agent (paper §4): hierarchical-structure policy
/// gradient user selection with masking, profile crafting, injection with
/// query feedback, and episode-end REINFORCE updates of both policies.
class CopyAttack CA_CHECKPOINTED(CopyAttack::SaveState, CopyAttack::LoadState)
    final : public AttackStrategy {
 public:
  /// `dataset`, `tree`, and the pre-trained source-domain MF embeddings
  /// are borrowed and must outlive the agent. The tree must be built over
  /// exactly `user_embeddings->rows()` source users. Over a depth-1 tree
  /// the agent is the "PolicyNetwork" baseline (see `BuildFlatTree`).
  CopyAttack(const data::CrossDomainDataset* dataset,
             const cluster::HierarchicalTree* tree,
             const math::Matrix* user_embeddings,
             const math::Matrix* item_embeddings,
             const CopyAttackConfig& config, std::uint64_t seed);

  /// As above, but the agent shares ownership of `tree`, so it stays valid
  /// however long the agent lives (the "PolicyNetwork" strategies of
  /// `serve::MakeStrategyFactory` outlive their factory this way).
  CopyAttack(const data::CrossDomainDataset* dataset,
             std::shared_ptr<const cluster::HierarchicalTree> tree,
             const math::Matrix* user_embeddings,
             const math::Matrix* item_embeddings,
             const CopyAttackConfig& config, std::uint64_t seed);

  std::string name() const override;
  void BeginTargetItem(data::ItemId target_item) override;
  double RunEpisode(AttackEnvironment& env, util::Rng& rng) override;

  /// In evaluation mode the agent acts greedily and freezes its policies.
  void SetEvalMode(bool eval_mode) override { eval_mode_ = eval_mode; }

  /// Users selectable for the current target item under the agent's
  /// masking setting (exposed for tests and the random seeding action).
  const std::vector<data::UserId>& candidates() const { return candidates_; }

  /// The item selection/crafting anchors on (== the target item unless
  /// proxy mode engaged; exposed for tests).
  data::ItemId anchor_item() const { return anchor_item_; }

  /// Full cross-episode state for campaign checkpointing: the selection
  /// policy's sparse state (see `HierarchicalSelectionPolicy::SaveState`),
  /// the crafting policy's parameters and the moving reward baseline.
  /// Restoring requires the same tree and configuration; a fresh agent
  /// with a different seed then behaves exactly like the saved one.
  bool SaveState(std::ostream& out) override;
  bool LoadState(std::istream& in) override;

 private:
  /// One trajectory step: the (optional) selection decision, the
  /// (optional) crafting decision, and the observed reward.
  struct TrajectoryStep {
    std::optional<SelectionStepRecord> selection;
    std::optional<CraftStepRecord> crafting;
    double reward = 0.0;
  };

  /// Uniform-random seed action a_0 over the remaining candidates
  /// (paper §4.3.3); returns kNoUser when exhausted.
  data::UserId SampleSeedUser(util::Rng& rng);

  /// Builds the profile to inject for `user` (crafted or raw).
  data::Profile BuildProfile(data::UserId user, util::Rng& rng,
                             TrajectoryStep* step);

  /// Episode-end REINFORCE update of both policies.
  void UpdatePolicies(const std::vector<TrajectoryStep>& trajectory);

  const data::CrossDomainDataset* dataset_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  const cluster::HierarchicalTree* tree_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  /// Keeps `tree_` alive when the agent shares the tree; null when the
  /// tree is borrowed.
  std::shared_ptr<const cluster::HierarchicalTree> shared_tree_
      CA_NOT_CHECKPOINTED("ownership of tree_, rebound at construction");
  CopyAttackConfig config_ CA_NOT_CHECKPOINTED(
      "configuration, part of the campaign fingerprint, not mutable state");

  std::unique_ptr<HierarchicalSelectionPolicy> selection_;
  std::unique_ptr<CraftingPolicy> crafting_;
  nn::MovingBaseline baseline_;

  data::ItemId target_item_
      CA_NOT_CHECKPOINTED("per-target, reset by BeginTargetItem") =
          data::kNoItem;
  /// Item the selection mask and crafting window anchor on; equals
  /// `target_item_` unless proxy mode engaged.
  data::ItemId anchor_item_
      CA_NOT_CHECKPOINTED("per-target, derived in BeginTargetItem") =
          data::kNoItem;
  std::vector<data::UserId> candidates_
      CA_NOT_CHECKPOINTED("per-target, derived in BeginTargetItem");
  std::unordered_set<data::UserId> selected_this_episode_
      CA_NOT_CHECKPOINTED("per-episode scratch, cleared by RunEpisode");
  bool eval_mode_ CA_NOT_CHECKPOINTED("transient evaluation toggle") = false;
};

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_COPY_ATTACK_H_

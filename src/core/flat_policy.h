#ifndef COPYATTACK_CORE_FLAT_POLICY_H_
#define COPYATTACK_CORE_FLAT_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/attack_strategy.h"
#include "core/crafting_policy.h"
#include "data/cross_domain.h"
#include "nn/mlp.h"
#include "nn/reinforce.h"
#include "nn/rnn.h"
#include "util/annotations.h"

namespace copyattack::core {

/// The "PolicyNetwork" baseline of §5.1.4: a single policy gradient
/// network over the *entire* source-user action space — no hierarchical
/// clustering tree. Every decision scores all n_B users, so the
/// per-decision cost is O(n_B · hidden) versus O(c · d · hidden) for
/// CopyAttack; this is the asymptotic gap that made this baseline fail to
/// finish on the Netflix-scale dataset within 48 hours in the paper.
/// Masking to target-item holders and profile crafting are kept identical
/// to CopyAttack so the comparison isolates the action-space structure.
class FlatPolicyNetwork CA_CHECKPOINTED(FlatPolicyNetwork::SaveState,
                                        FlatPolicyNetwork::LoadState)
    final : public AttackStrategy {
 public:
  struct Config {
    std::size_t mlp_hidden_dim = 16;
    std::size_t rnn_hidden_dim = 8;
    float init_stddev = 0.1f;
    double gamma = 0.6;
    float learning_rate = 0.15f;
    float clip_norm = 5.0f;
    double entropy_beta = 0.003;
    double baseline_momentum = 0.7;
    CraftingPolicy::Config crafting;
  };

  FlatPolicyNetwork(const data::CrossDomainDataset* dataset,
                    const math::Matrix* user_embeddings,
                    const math::Matrix* item_embeddings,
                    const Config& config, std::uint64_t seed);

  std::string name() const override { return "PolicyNetwork"; }
  void BeginTargetItem(data::ItemId target_item) override;
  double RunEpisode(AttackEnvironment& env, util::Rng& rng) override;

  /// In evaluation mode the agent acts greedily and freezes its policies.
  void SetEvalMode(bool eval_mode) override { eval_mode_ = eval_mode; }

  /// Full cross-episode state (network parameters + the moving reward
  /// baseline) for campaign checkpointing.
  bool SaveState(std::ostream& out) override;
  bool LoadState(std::istream& in) override;

 private:
  struct StepRecord {
    std::vector<data::UserId> selected_prefix;
    data::UserId action = data::kNoUser;
    std::vector<bool> user_mask;
    std::optional<CraftStepRecord> crafting;
    double reward = 0.0;
    bool has_selection = false;
  };

  std::vector<float> StateVector(const std::vector<data::UserId>& selected,
                                 nn::RnnContext* rnn_ctx) const;
  void UpdatePolicies(const std::vector<StepRecord>& trajectory);

  const data::CrossDomainDataset* dataset_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  const math::Matrix* user_embeddings_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  const math::Matrix* item_embeddings_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  Config config_ CA_NOT_CHECKPOINTED("configuration, part of the campaign "
                                     "fingerprint, not mutable state");

  std::unique_ptr<nn::Mlp> mlp_;  // state -> n_B logits
  std::unique_ptr<nn::RnnEncoder> rnn_;
  std::unique_ptr<CraftingPolicy> crafting_;
  nn::MovingBaseline baseline_;

  data::ItemId target_item_
      CA_NOT_CHECKPOINTED("per-target, reset by BeginTargetItem") =
          data::kNoItem;
  std::vector<bool> static_user_mask_
      CA_NOT_CHECKPOINTED("derived from target_item_ in BeginTargetItem");
  bool eval_mode_ CA_NOT_CHECKPOINTED("transient evaluation toggle") = false;
};

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_FLAT_POLICY_H_

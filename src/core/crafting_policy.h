#ifndef COPYATTACK_CORE_CRAFTING_POLICY_H_
#define COPYATTACK_CORE_CRAFTING_POLICY_H_

#include <memory>

#include "core/crafting.h"
#include "data/types.h"
#include "math/matrix.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace copyattack::core {

/// Record of one crafting decision for the episode-end policy update.
struct CraftStepRecord {
  data::UserId user = data::kNoUser;
  std::size_t action = 0;  ///< index into kCraftLevels
};

/// The second-step policy gradient network (paper §4.4): given the state
/// [p^B_{u} ⊕ q^B_{v*}] of the just-selected user and the target item, it
/// chooses a clip level w ∈ {10%, ..., 100%} deciding how much of the raw
/// profile to keep around the target item.
class CraftingPolicy {
 public:
  /// Embeddings are the frozen pre-trained source-domain MF factors
  /// (borrowed; must outlive the policy).
  CraftingPolicy(const math::Matrix* user_embeddings,
                 const math::Matrix* item_embeddings, util::Rng& rng);

  /// Installs the target item.
  void SetTargetItem(data::ItemId item) { target_item_ = item; }

  /// Samples a clip-level index for `user` and fills `record`. With
  /// `greedy` the argmax level is taken (evaluation mode).
  std::size_t SampleLevel(data::UserId user, util::Rng& rng,
                          CraftStepRecord* record, bool greedy = false);

  /// Accumulates REINFORCE gradients for a recorded decision.
  void AccumulateGradients(const CraftStepRecord& record, double advantage);

  /// Applies one SGD step and clears gradients.
  void ApplyUpdates(float learning_rate, float clip_norm);

  /// Learnable parameters (for checkpointing).
  nn::ParameterList Parameters() { return mlp_->Parameters(); }

 private:
  std::vector<float> StateVector(data::UserId user) const;

  const math::Matrix* user_embeddings_;
  const math::Matrix* item_embeddings_;
  std::unique_ptr<nn::Mlp> mlp_;
  data::ItemId target_item_ = data::kNoItem;
};

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_CRAFTING_POLICY_H_

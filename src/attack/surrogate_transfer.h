#ifndef COPYATTACK_ATTACK_SURROGATE_TRANSFER_H_
#define COPYATTACK_ATTACK_SURROGATE_TRANSFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/surrogate.h"
#include "core/attack_strategy.h"
#include "data/cross_domain.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace copyattack::attack {

/// Surrogate-then-transfer adversarial injection (after arXiv:2008.04876):
/// the attacker trains a local MF surrogate on the observable
/// target-domain data, crafts each injected profile by gradient ascent of
/// a virtual user embedding on the surrogate's target-item promotion
/// objective, discretizes the optimized embedding to a concrete profile
/// (target item + nearest items), and transfers the profiles through the
/// real black-box oracle. Episodes adapt two things from transfer
/// feedback: the ascent step scale (decayed when an episode fails to beat
/// the best reward so far) and the genuine seed user the eval-mode episode
/// anchors on.
class SurrogateTransferAttack
    CA_CHECKPOINTED(SurrogateTransferAttack::SaveState,
                    SurrogateTransferAttack::LoadState)
    final : public core::AttackStrategy {
 public:
  /// Items per crafted profile, including the target item.
  static constexpr std::size_t kProfileLength = 16;
  /// Floor of the ascent step scale.
  static constexpr double kMinStepScale = 0.05;

  /// `dataset` is borrowed and must outlive the strategy; the surrogate is
  /// shared read-only between every per-target instance of a campaign.
  SurrogateTransferAttack(const data::CrossDomainDataset* dataset,
                          std::shared_ptr<const TargetSurrogate> surrogate,
                          std::uint64_t seed);

  std::string name() const override { return "SurrogateTransfer"; }
  void BeginTargetItem(data::ItemId target_item) override;
  double RunEpisode(core::AttackEnvironment& env, util::Rng& rng) override;
  void SetEvalMode(bool eval_mode) override { eval_mode_ = eval_mode; }

  /// Cross-episode mutable state: the adaptive step scale, the best
  /// transfer reward observed, the seed user that achieved it, the episode
  /// counter, and the crafting RNG stream.
  bool SaveState(std::ostream& out) override;
  bool LoadState(std::istream& in) override;

  /// Current ascent step scale (exposed for tests).
  double step_scale() const { return step_scale_; }

 private:
  /// Optimizes a virtual user embedding from `seed_user`'s fold-in and
  /// discretizes it into an injectable profile containing the target item.
  data::Profile CraftProfile(data::UserId seed_user, util::Rng& rng);

  const data::CrossDomainDataset* dataset_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  std::shared_ptr<const TargetSurrogate> surrogate_ CA_NOT_CHECKPOINTED(
      "shared read-only model, deterministically retrained at construction");

  double step_scale_ = 1.0;
  double best_reward_ = -1.0;
  data::UserId best_seed_user_ = data::kNoUser;
  std::uint64_t episodes_run_ = 0;
  util::Rng ascent_rng_;

  data::ItemId target_item_
      CA_NOT_CHECKPOINTED("per-target, reset by BeginTargetItem") =
          data::kNoItem;
  /// Head of the popularity ranking the target must outrank; derived in
  /// BeginTargetItem, deterministic in the dataset.
  std::vector<data::ItemId> popular_items_
      CA_NOT_CHECKPOINTED("per-target, derived in BeginTargetItem");
  bool eval_mode_ CA_NOT_CHECKPOINTED("transient evaluation toggle") = false;
};

}  // namespace copyattack::attack

#endif  // COPYATTACK_ATTACK_SURROGATE_TRANSFER_H_

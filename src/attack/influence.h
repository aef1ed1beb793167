#ifndef COPYATTACK_ATTACK_INFLUENCE_H_
#define COPYATTACK_ATTACK_INFLUENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/surrogate.h"
#include "core/attack_strategy.h"
#include "data/cross_domain.h"
#include "util/annotations.h"

namespace copyattack::attack {

/// Influence-function profile selection (after arXiv:2002.08025): instead
/// of learning which cross-domain profiles to copy, rank every candidate
/// by a first-order estimate of its effect on the target item's exposure
/// under the local surrogate, and inject the top of the ranking.
///
/// The influence approximation is deliberately closed-form: injecting
/// profile P perturbs the target item's embedding toward P's fold-in mean
/// μ_P (the surrogate's update direction for a user who interacted with
/// the target), so the first-order change of the population score
/// Σ_v ⟨v, q_t⟩ is proportional to ⟨v̄, μ_P⟩ with v̄ the mean genuine user
/// embedding. Ranking candidates by that inner product is one dot product
/// per profile — a one-shot analytic pick replacing CopyAttack's learned
/// selection.
///
/// Episodes refine the pick greedily from transfer feedback: an episode
/// that fails to improve the best reward advances the injection window one
/// position down the ranking.
class InfluenceAttack CA_CHECKPOINTED(InfluenceAttack::SaveState,
                                      InfluenceAttack::LoadState)
    final : public core::AttackStrategy {
 public:
  /// `dataset` is borrowed and must outlive the strategy; the surrogate is
  /// shared read-only between every per-target instance of a campaign.
  InfluenceAttack(const data::CrossDomainDataset* dataset,
                  std::shared_ptr<const TargetSurrogate> surrogate,
                  std::uint64_t seed);

  std::string name() const override { return "Influence"; }
  void BeginTargetItem(data::ItemId target_item) override;
  double RunEpisode(core::AttackEnvironment& env, util::Rng& rng) override;
  void SetEvalMode(bool eval_mode) override { eval_mode_ = eval_mode; }

  /// Cross-episode mutable state: the ranking cursor, the best transfer
  /// reward, and the episode/evaluation counters.
  bool SaveState(std::ostream& out) override;
  bool LoadState(std::istream& in) override;

  /// The influence-ranked candidate source users for the current target
  /// (exposed for tests).
  const std::vector<data::UserId>& ranked_candidates() const {
    return ranked_;
  }
  std::size_t cursor() const { return cursor_; }

 private:
  const data::CrossDomainDataset* dataset_
      CA_NOT_CHECKPOINTED("borrowed pointer, rebound at construction");
  std::shared_ptr<const TargetSurrogate> surrogate_ CA_NOT_CHECKPOINTED(
      "shared read-only model, deterministically retrained at construction");

  std::size_t cursor_ = 0;
  double best_reward_ = -1.0;
  std::uint64_t episodes_run_ = 0;
  std::uint64_t influence_evals_ = 0;

  data::ItemId target_item_
      CA_NOT_CHECKPOINTED("per-target, reset by BeginTargetItem") =
          data::kNoItem;
  std::vector<data::UserId> ranked_ CA_NOT_CHECKPOINTED(
      "per-target, deterministically derived in BeginTargetItem");
  bool eval_mode_ CA_NOT_CHECKPOINTED("transient evaluation toggle") = false;
};

}  // namespace copyattack::attack

#endif  // COPYATTACK_ATTACK_INFLUENCE_H_

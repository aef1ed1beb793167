#ifndef COPYATTACK_CORE_TARGET_PLAY_H_
#define COPYATTACK_CORE_TARGET_PLAY_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/runner.h"
#include "data/cross_domain.h"
#include "data/dataset.h"

namespace copyattack::core {

/// Crash-safety and abort hooks threaded through `PlayTargetItem`. All
/// members are optional; the zero state plays the item straight through.
struct TargetPlayHooks {
  /// Episodes between mid-target progress reports (0 = none). A report is
  /// only produced when the strategy's learned state serializes.
  std::size_t every_episodes = 0;
  /// Receives each mid-target progress snapshot (the caller persists it).
  std::function<void(const InProgressTarget&)> on_progress;
  /// Recorded as `InProgressTarget::target_index` in progress reports —
  /// the caller's position within whatever target sequence it owns (the
  /// campaign list, or one shard of it).
  std::size_t progress_target_index = 0;
  /// Mid-target resume state; restored when non-null and active.
  const InProgressTarget* resume = nullptr;
  /// Called after every episode; returning true aborts the item (the
  /// returned outcome is invalid then). The `abort_after_episodes` crash
  /// hook's episode counting lives behind this.
  std::function<bool()> should_abort;
};

/// Outcome of `PlayTargetItem`.
struct TargetPlayResult {
  TargetOutcomeState outcome;  ///< valid only when `!aborted`
  bool aborted = false;
};

/// Plays every episode of one target item — fresh model clone, fresh
/// strategy, fresh environment, final promotion metrics. This is the
/// campaign runner's only episode loop. `global_index` is the item's
/// position in the FULL campaign target list; it (never any shard-local
/// position) derives the per-item seed `config.seed + 1000003 * global_index`,
/// which is what makes outcomes independent of how items are distributed
/// over threads or shards. `method_name`, when non-null, receives the
/// strategy's reported name.
TargetPlayResult PlayTargetItem(const data::CrossDomainDataset& dataset,
                                const data::Dataset& target_train,
                                const ModelFactory& model_factory,
                                const StrategyFactory& strategy_factory,
                                data::ItemId item, std::size_t global_index,
                                const CampaignConfig& config,
                                const TargetPlayHooks& hooks,
                                std::string* method_name);

/// Averages per-item outcomes into the campaign aggregate (one Table-2
/// row). Only the aggregate fields are touched; bookkeeping fields
/// (checkpoint saves, wall time, ...) are the caller's.
void MergeOutcomes(const std::vector<TargetOutcomeState>& outcomes,
                   const std::vector<std::size_t>& ks,
                   CampaignResult* result);

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_TARGET_PLAY_H_

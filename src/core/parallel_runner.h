#ifndef COPYATTACK_CORE_PARALLEL_RUNNER_H_
#define COPYATTACK_CORE_PARALLEL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/checkpoint.h"
#include "core/runner.h"
#include "data/cross_domain.h"
#include "data/dataset.h"

namespace copyattack::core {

/// Options of the sharded campaign runner.
struct ParallelRunnerOptions {
  /// Worker threads (>= 1). `--jobs` on the CLI.
  std::size_t jobs = 1;
  /// Shards to split the target list into; 0 = one per job. Results are
  /// bit-identical for every shard count (see class comment), so the
  /// shard count only tunes checkpoint granularity and load balancing.
  std::size_t shards = 0;
  /// Per-shard crash safety: with a non-empty `dir`, shard s of S
  /// persists its progress under `<dir>/shard_<s>_of_<S>` using the
  /// standard campaign checkpoint format, fingerprinted with the shard's
  /// stream seed so a checkpoint never resumes into a different shard
  /// layout. `abort_after_episodes` counts episodes across ALL shards.
  CampaignCheckpointOptions checkpoint;
  /// Cooperative cancellation: polled at every shard boundary and every
  /// episode boundary (the natural yield points — checkpoints are
  /// already flushed there). When it returns true the run aborts like
  /// `abort_after_episodes`: completed work stays checkpointed and the
  /// result's `aggregate.aborted` flag is set, so a resume continues
  /// bit-identically. Called from worker threads; must be thread-safe.
  /// The attack server's watchdog deadline and SIGTERM drain both ride
  /// this hook. Null = never cancel.
  std::function<bool()> cancel;
};

/// Per-shard execution record.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t total_shards = 1;
  /// Target items owned by this shard (round-robin: global indices
  /// shard, shard + S, shard + 2S, ...).
  std::size_t num_items = 0;
  /// Golden-ratio stream split of the campaign seed
  /// (`util::DeriveStreamSeed`), mixing in both the shard index and the
  /// shard count; identifies the shard's checkpoints.
  std::uint64_t stream_seed = 0;
  std::size_t episodes_played = 0;
  std::size_t checkpoint_saves = 0;
  CheckpointSource resumed_from = CheckpointSource::kNone;
  double wall_seconds = 0.0;
};

/// Outcome of one sharded campaign run.
struct ParallelCampaignResult {
  /// The Table-2 aggregate over all completed target items, merged in
  /// global target order (so it is invariant to shard/thread count).
  CampaignResult aggregate;
  /// Per-item outcomes in target-list order. On an aborted run only
  /// entries whose `completed` flag is set are valid.
  std::vector<TargetOutcomeState> outcomes;
  std::vector<std::uint8_t> completed;
  std::vector<ShardStats> shards;
  /// Completed target items per wall-clock second of this run (the
  /// `campaign.campaigns_per_sec` gauge).
  double campaigns_per_sec = 0.0;
};

/// Campaign-parallel sharded attack runner: splits the target items of a
/// promotion campaign round-robin over S shards and drives the shards
/// concurrently on the shared `util::ThreadPool`.
///
/// Determinism contract: every target item is played by
/// `PlayTargetItem` with its GLOBAL index, so its seed, its model clone,
/// its environment (own serving/rollback checkpoints, own fault
/// injector and circuit breaker) and hence its outcome are the same no
/// matter which shard or thread runs it. The aggregate is merged in
/// global target order. Together that makes the result invariant to the
/// thread and shard count — the property the shard-determinism tests pin
/// down. This is the only campaign execution path: `RunCampaign` and
/// `EvaluateWithoutAttack` are thin wrappers over it.
///
/// Each shard additionally owns a golden-ratio `util::Rng` stream seed
/// (`util::DeriveStreamSeed(campaign_seed, shard ⊕ shard-count)`) that
/// fingerprints its crash-safety checkpoints; shard-local randomness
/// must come from that stream, never from the campaign seed directly,
/// so adding shard-local decisions later cannot perturb item outcomes.
class ParallelCampaignRunner {
 public:
  /// Factories are copied; `dataset`/`target_train` are borrowed and
  /// must outlive the runner.
  ParallelCampaignRunner(const data::CrossDomainDataset& dataset,
                         const data::Dataset& target_train,
                         ModelFactory model_factory,
                         StrategyFactory strategy_factory,
                         const ParallelRunnerOptions& options);

  /// Runs the campaign over `targets`. `config.num_threads` and
  /// `config.checkpoint` are ignored — `options` govern both.
  ParallelCampaignResult Run(const std::vector<data::ItemId>& targets,
                             const CampaignConfig& config) const;

  const ParallelRunnerOptions& options() const { return options_; }

 private:
  const data::CrossDomainDataset& dataset_;
  const data::Dataset& target_train_;
  ModelFactory model_factory_;
  StrategyFactory strategy_factory_;
  ParallelRunnerOptions options_;
};

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_PARALLEL_RUNNER_H_

#ifndef COPYATTACK_CORE_RUNNER_H_
#define COPYATTACK_CORE_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/hierarchical_tree.h"
#include "core/attack_strategy.h"
#include "core/checkpoint.h"
#include "core/environment.h"
#include "data/cross_domain.h"
#include "data/split.h"
#include "rec/evaluator.h"
#include "rec/matrix_factorization.h"
#include "rec/pinsage_lite.h"
#include "rec/recommender.h"
#include "rec/trainer.h"

namespace copyattack::core {

/// Shared per-dataset artifacts every attacking method builds on: the
/// pre-trained source-domain MF embeddings and the balanced hierarchical
/// clustering tree over the source users (paper §4.3.1).
struct SourceArtifacts {
  rec::MatrixFactorization mf;
  cluster::HierarchicalTree tree;
};

/// Options for preparing the source artifacts.
struct SourceArtifactOptions {
  std::size_t embedding_dim = 8;
  std::size_t mf_epochs = 20;
  std::size_t tree_depth = 3;   ///< paper: 3 layers (Flixster), 6 (Netflix)
  std::uint64_t seed = 21;
};

/// Trains source-domain MF and builds the clustering tree.
SourceArtifacts PrepareSourceArtifacts(const data::CrossDomainDataset& dataset,
                                       const SourceArtifactOptions& options);

/// Creates a fresh fitted target-model clone for one attack campaign
/// (each campaign pollutes its own copy's serving state, so campaigns can
/// run in parallel).
using ModelFactory = std::function<std::unique_ptr<rec::Recommender>()>;

/// The black box under attack: the target domain split 80/10/10 and the
/// PinSage-style recommender trained on `split.train` with early stopping
/// (paper §5.1.3).
struct TargetModel {
  data::TrainValidTestSplit split;
  rec::PinSageLite model;  ///< fitted prototype; campaigns clone it
  rec::TrainReport report;

  /// Clones `model` per campaign. The factory points at this object, so
  /// it must outlive every campaign that uses the factory.
  ModelFactory Factory() const;
};

/// Seeds and training schedule of the target model.
struct TargetModelOptions {
  std::uint64_t split_seed = 11;
  std::uint64_t train_seed = 13;
  rec::TrainOptions train{};
};

/// Splits `target` with `split_seed` and trains the target model on the
/// split with `rec::TrainWithEarlyStopping` from `train_seed`.
TargetModel TrainTargetModel(const data::Dataset& target,
                             const TargetModelOptions& options);

/// The two products every attack run starts from: the trained black box
/// and the source-domain artifacts.
struct World {
  TargetModel target;
  SourceArtifacts source;
};

/// Per-caller seeds and schedules of both products.
struct WorldOptions {
  TargetModelOptions target{};
  SourceArtifactOptions source{};
};

/// The whole set-up: `TrainTargetModel` on `dataset.target`, then
/// `PrepareSourceArtifacts`. Each product draws only from its own seeds.
World PrepareWorld(const data::CrossDomainDataset& dataset,
                   const WorldOptions& options);

/// Creates a fresh strategy for one target item. `seed` deterministically
/// varies per item.
using StrategyFactory =
    std::function<std::unique_ptr<AttackStrategy>(std::uint64_t seed)>;

/// Crash-safety options of a campaign. With a non-empty `dir`, every
/// shard of the campaign runner persists a versioned, CRC-checksummed
/// checkpoint (core/checkpoint.h) under `<dir>/shard_<s>_of_<S>` after
/// every completed target and every `every_episodes` episodes in
/// between; with `resume` it first loads the freshest valid checkpoint
/// and continues bit-exactly from there.
/// Requires `env.refit_on_query == false` (a refit target model's weights
/// are not captured). Checkpointing never changes outcomes, and works at
/// any thread count.
struct CampaignCheckpointOptions {
  /// Checkpoint directory; empty disables checkpointing entirely.
  std::string dir;
  /// Resume from `dir` if a valid checkpoint exists.
  bool resume = false;
  /// Episodes between mid-target checkpoints (≥ 1).
  std::size_t every_episodes = 1;
  /// Test hook simulating a crash: abort the campaign (returning a
  /// partially filled result) after this many episodes have been played
  /// across the whole run. 0 = never.
  std::size_t abort_after_episodes = 0;
};

/// Parameters of one attack campaign (one method, many target items).
struct CampaignConfig {
  EnvConfig env;
  /// Training episodes per target item (1 for non-learning baselines).
  std::size_t episodes = 12;
  /// Cutoffs reported (paper: 20, 10, 5).
  std::vector<std::size_t> eval_ks = {20, 10, 5};
  /// Real target-domain users sampled for the final promotion metrics.
  std::size_t eval_users = 300;
  std::size_t eval_negatives = 100;
  std::uint64_t seed = 77;
  /// Worker threads across target items (>= 1; 1 = sequential).
  std::size_t num_threads = 1;
  /// Crash-safe checkpoint/resume (off unless `checkpoint.dir` is set).
  CampaignCheckpointOptions checkpoint;
};

/// Aggregated outcome of a campaign, i.e. one row of Table 2.
struct CampaignResult {
  std::string method;
  rec::MetricsByK metrics;            ///< averaged over target items
  double avg_items_per_profile = 0.0; ///< item budget per injected profile
  double avg_profiles_injected = 0.0; ///< final-episode profile count
  double avg_query_rounds = 0.0;      ///< query rounds per target item
  double avg_final_reward = 0.0;      ///< HR@k on pretend users, last episode
  double wall_seconds = 0.0;
  std::size_t num_target_items = 0;

  // Checkpointed-run bookkeeping (all zero/kNone without checkpointing).
  std::size_t checkpoint_saves = 0;   ///< checkpoint files written
  CheckpointSource resumed_from = CheckpointSource::kNone;
  /// True when the `abort_after_episodes` test hook cut the run short;
  /// the metrics cover only the targets completed so far.
  bool aborted = false;
};

/// The "Without Attack" reference row: promotion metrics of the target
/// items under the clean model. Runs `RunCampaign` with a strategy that
/// injects nothing, one episode per item and checkpointing off.
CampaignResult EvaluateWithoutAttack(const data::CrossDomainDataset& dataset,
                                     const data::Dataset& target_train,
                                     const ModelFactory& model_factory,
                                     const std::vector<data::ItemId>& targets,
                                     const CampaignConfig& config);

/// Runs one method over all `targets`: per item, `episodes` episodes of
/// attack, then final promotion metrics over real users on the last
/// episode's polluted state. Aggregates into a Table-2 row. A thin
/// wrapper over `ParallelCampaignRunner` (core/parallel_runner.h) with
/// `jobs = num_threads` and `config.checkpoint`.
CampaignResult RunCampaign(const data::CrossDomainDataset& dataset,
                           const data::Dataset& target_train,
                           const ModelFactory& model_factory,
                           const StrategyFactory& strategy_factory,
                           const std::vector<data::ItemId>& targets,
                           const CampaignConfig& config);

/// Formats a campaign result as a Table-2 style row.
std::string FormatCampaignRow(const CampaignResult& result);

/// Header line matching `FormatCampaignRow`.
std::string CampaignRowHeader();

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_RUNNER_H_

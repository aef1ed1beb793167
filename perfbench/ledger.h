#ifndef COPYATTACK_PERFBENCH_LEDGER_H_
#define COPYATTACK_PERFBENCH_LEDGER_H_

// Outside-in layer accounting for the traced benchmark run. Nothing here
// reaches into the program: the wrappers decorate the public
// rec::Recommender and core::AttackStrategy interfaces and are handed to
// the program through its own ModelFactory / StrategyFactory seams, so a
// traced campaign runs exactly the operations of an untraced one.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/runner.h"

namespace copyattack::perfbench {

/// Summed layer time and call counts over every target item played while
/// tracing was installed. Times are thread-seconds.
struct LayerTotals {
  std::size_t targets = 0;
  double target_wall_s = 0.0;  ///< clone start .. model destruction
  double clone_s = 0.0;        ///< ModelFactory calls
  std::size_t clones = 0;
  /// StrategyFactory call plus the strategy's destruction.
  double strategy_build_s = 0.0;
  double begin_target_s = 0.0;  ///< AttackStrategy::BeginTargetItem
  double episode_s = 0.0;       ///< AttackStrategy::RunEpisode
  std::size_t episodes = 0;
  /// Score calls for pretend users (query rounds inside episodes). Time is
  /// estimated from a 1-in-kScoreSample sample of timed calls, less the
  /// cost of reading the clock.
  double query_score_s = 0.0;
  std::uint64_t query_score_calls = 0;
  /// Score calls for real users (final promotion evaluation).
  double eval_score_s = 0.0;
  std::uint64_t eval_score_calls = 0;
  double observe_s = 0.0;  ///< ObserveNewUser (the inject path)
  std::uint64_t observe_calls = 0;
  /// BeginServing + CheckpointServing + RollbackServing (episode resets).
  double reset_s = 0.0;
  std::uint64_t begin_serving_calls = 0;
  std::uint64_t rollbacks = 0;
  std::vector<double> target_ms;  ///< per-target wall, one entry each

  /// Per-target wall not covered by clone, strategy and rec time:
  /// environment construction and resets, negative sampling, evaluation
  /// bookkeeping.
  double TargetOverheadSeconds() const;
  /// RunEpisode time minus the rec time inside it.
  double StrategySelfSeconds() const;
};

/// Every `kScoreSample`-th Score call on a thread is timed.
inline constexpr std::uint64_t kScoreSample = 32;

/// Clears the process-wide totals.
void ResetLedger();

/// The process-wide totals accumulated so far.
LayerTotals LedgerSnapshot();

/// Wraps every model the factory creates so its Score / ObserveNewUser /
/// serving-reset calls are counted and timed. `real_users` is the number
/// of users in the training split: Score calls for user ids at or above
/// it are pretend-user queries, the rest are evaluation.
core::ModelFactory TraceModels(core::ModelFactory inner,
                               std::size_t real_users);

/// Wraps every strategy the factory creates so BeginTargetItem and
/// RunEpisode are timed against the target the current thread is playing.
core::StrategyFactory TraceStrategies(core::StrategyFactory inner);

/// Monotonic wall clock in seconds.
double NowSeconds();

}  // namespace copyattack::perfbench

#endif  // COPYATTACK_PERFBENCH_LEDGER_H_

#ifndef COPYATTACK_BENCH_BENCH_COMMON_H_
#define COPYATTACK_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"

namespace copyattack::bench {

/// Everything one experiment binary needs for one dataset pair: the
/// synthetic world, the target-domain split, the trained black-box target
/// model, and the shared source-domain artifacts (MF embeddings + the
/// balanced clustering tree).
struct BenchWorld {
  data::SyntheticWorld world;
  data::TrainValidTestSplit split;
  rec::PinSageLite model;
  rec::TrainReport train_report;
  core::SourceArtifacts artifacts;

  BenchWorld(data::SyntheticWorld w, data::TrainValidTestSplit s,
             rec::PinSageLite m, rec::TrainReport r,
             core::SourceArtifacts a)
      : world(std::move(w)),
        split(std::move(s)),
        model(std::move(m)),
        train_report(r),
        artifacts(std::move(a)) {}

  core::ModelFactory ModelFactory() const {
    return [this] { return std::make_unique<rec::PinSageLite>(model); };
  }
};

/// Builds a BenchWorld: generates the world, splits 80/10/10, trains the
/// PinSage-style target model with early stopping on validation HR@10
/// (paper §5.1.3), and prepares the source artifacts with the given tree
/// depth (paper: 3 for the small pair, 6 for the large pair).
BenchWorld BuildBenchWorld(const data::SyntheticConfig& config,
                           std::size_t tree_depth);

/// Default campaign configuration used across the experiment binaries
/// (paper §5.1.3: budget 30, query every 3 injections, 50 pretend users).
core::CampaignConfig DefaultCampaign(std::uint64_t seed);

/// Ensures ./bench_results exists and returns "bench_results/<name>".
std::string ResultPath(const std::string& name);

/// Shared implementation of Figures 5 and 6: sweeps the profile budget Δ
/// and reports HR@20 / NDCG@20 per method. Writes
/// `bench_results/<csv_name>` and prints one series per method.
void RunBudgetSweep(const data::SyntheticConfig& config,
                    std::size_t tree_depth,
                    const std::vector<std::size_t>& budgets,
                    const std::vector<std::string>& methods,
                    std::size_t num_targets, const std::string& csv_name);

/// Formats a double with 4 decimals (Table-2 style).
std::string F4(double value);

/// Opt-in campaign telemetry for experiment binaries. Construct first thing
/// in main(); when `--telemetry_out=DIR` is on the command line (or the
/// COPYATTACK_TELEMETRY_OUT environment variable is set) it enables the
/// obs subsystem for the binary's lifetime and exports metrics.csv,
/// summary.json and trace.json into DIR on destruction. Without either,
/// it is a no-op and the instrumentation stays at its disabled cost.
class TelemetryScope {
 public:
  TelemetryScope(int argc, const char* const* argv);
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
  ~TelemetryScope();

  bool active() const { return !dir_.empty(); }

 private:
  std::string dir_;
};

}  // namespace copyattack::bench

#endif  // COPYATTACK_BENCH_BENCH_COMMON_H_

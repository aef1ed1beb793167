#include "bench_common.h"
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>

#include "data/target_items.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/attack_server.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace copyattack::bench {

BenchWorld BuildBenchWorld(const data::SyntheticConfig& config,
                           std::size_t tree_depth) {
  CA_LOG(Info) << "generating world: " << config.name;
  data::SyntheticWorld world = data::GenerateSyntheticWorld(config);

  util::Rng split_rng(config.seed ^ 0x51517ULL);
  data::TrainValidTestSplit split =
      data::SplitDataset(world.dataset.target, split_rng);

  rec::PinSageLite model;
  rec::TrainOptions train_options;
  train_options.max_epochs = 40;
  train_options.patience = 5;
  util::Rng train_rng(config.seed ^ 0x7EA7ULL);
  rec::TrainReport report = rec::TrainWithEarlyStopping(
      model, split, world.dataset.target, train_options, train_rng);
  CA_LOG(Info) << "target model trained: " << report.epochs_run
               << " epochs, test HR@10 = " << report.test_hr;

  core::SourceArtifactOptions artifact_options;
  artifact_options.tree_depth = tree_depth;
  artifact_options.seed = config.seed ^ 0xA11CEULL;
  core::SourceArtifacts artifacts =
      core::PrepareSourceArtifacts(world.dataset, artifact_options);

  return BenchWorld(std::move(world), std::move(split), std::move(model),
                    report, std::move(artifacts));
}

core::CampaignConfig DefaultCampaign(std::uint64_t seed) {
  core::CampaignConfig config;
  config.env.budget = 30;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 50;
  config.env.reward_k = 20;
  config.env.query_candidates = 100;
  config.episodes = 25;
  config.eval_ks = {20, 10, 5};
  config.eval_users = 250;
  config.eval_negatives = 100;
  config.seed = seed;
  config.num_threads = 1;
  return config;
}

std::string ResultPath(const std::string& name) {
  ::mkdir("bench_results", 0755);  // ignore EEXIST
  return "bench_results/" + name;
}

std::string F4(double value) { return util::FormatDouble(value, 4); }

TelemetryScope::TelemetryScope(int argc, const char* const* argv) {
  const std::string flag_prefix = "--telemetry_out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (util::StartsWith(arg, flag_prefix)) {
      dir_ = arg.substr(flag_prefix.size());
    }
  }
  if (dir_.empty()) {
    const char* env = std::getenv("COPYATTACK_TELEMETRY_OUT");
    if (env != nullptr) dir_ = env;
  }
  if (!dir_.empty()) obs::SetEnabled(true);
}

TelemetryScope::~TelemetryScope() {
  if (dir_.empty()) return;
  obs::SetEnabled(false);
  if (obs::ExportAll(dir_)) {
    CA_LOG(Info) << "telemetry written to " << dir_;
  } else {
    CA_LOG(Warning) << "could not write telemetry to " << dir_;
  }
}

void RunBudgetSweep(const data::SyntheticConfig& config,
                    std::size_t tree_depth,
                    const std::vector<std::size_t>& budgets,
                    const std::vector<std::string>& methods,
                    std::size_t num_targets, const std::string& csv_name) {
  const BenchWorld bw = BuildBenchWorld(config, tree_depth);
  util::Rng target_rng(1789);
  const std::vector<data::ItemId> targets = data::SampleColdTargetItems(
      bw.world.dataset, num_targets, 10, target_rng);

  util::CsvWriter csv(ResultPath(csv_name),
                      {"dataset", "method", "budget", "hr20", "ndcg20"});

  std::printf("\n--- %s (%zu target items) ---\n", config.name.c_str(),
              targets.size());
  std::printf("%-20s", "budget");
  for (const std::size_t budget : budgets) std::printf("%8zu", budget);
  std::printf("\n");

  for (const std::string& method : methods) {
    const serve::StrategySpec spec =
        serve::MakeStrategyFactory(bw.world.dataset, bw.artifacts, method);
    CA_CHECK(spec.factory) << spec.error;
    std::vector<double> hr_series, ndcg_series;
    for (const std::size_t budget : budgets) {
      core::CampaignConfig campaign = DefaultCampaign(4242);
      campaign.env.budget = budget;
      if (!spec.learns) campaign.episodes = 1;
      const auto result =
          core::RunCampaign(bw.world.dataset, bw.split.train,
                            bw.ModelFactory(), spec.factory, targets,
                            campaign);
      hr_series.push_back(result.metrics.at(20).hr);
      ndcg_series.push_back(result.metrics.at(20).ndcg);
      csv.WriteRow({config.name, method, std::to_string(budget),
                    F4(result.metrics.at(20).hr),
                    F4(result.metrics.at(20).ndcg)});
    }
    std::printf("%-20s", (method + " HR@20").c_str());
    for (const double v : hr_series) std::printf("%8.4f", v);
    std::printf("\n%-20s", (method + " NDCG").c_str());
    for (const double v : ndcg_series) std::printf("%8.4f", v);
    std::printf("\n");
  }
  csv.Flush();
}

}  // namespace copyattack::bench

// Reproduces Table 2: attacking performance of all methods on both
// cross-domain dataset pairs — HR@{20,10,5}, NDCG@{20,10,5}, and the
// average number of items per injected user profile (the item budget).
//
// Protocol (paper §5.1.3): 50 cold target items (<10 interactions),
// profile budget Δ=30, 50 pretend users, queries after every 3 injections.
// Expected *shape* (paper Table 2):
//   - RandomAttack ≈ WithoutAttack (no promotion),
//   - TargetAttack40/70 > TargetAttack100 (crafting helps),
//   - CopyAttack-Masking ≈ WithoutAttack (masking is essential),
//   - CopyAttack-Length weak with a huge item budget (crafting matters),
//   - CopyAttack best overall with a moderate item budget.

#include <cstdio>
#include <vector>

#include "data/target_items.h"
#include "obs/time.h"
#include "serve/attack_server.h"
#include "util/check.h"
#include "util/csv.h"

#include "bench_common.h"

namespace {

/// The attacking methods of Table 2, in paper order. WithoutAttack is
/// evaluated separately, before them.
constexpr const char* kMethods[] = {
    "RandomAttack",      "TargetAttack40",     "TargetAttack70",
    "TargetAttack100",   "PolicyNetwork",      "CopyAttack-Masking",
    "CopyAttack-Length", "CopyAttack"};

void RunDataset(const copyattack::data::SyntheticConfig& config,
                std::size_t tree_depth, std::size_t num_targets,
                copyattack::util::CsvWriter& csv) {
  using namespace copyattack;

  const bench::BenchWorld bw = bench::BuildBenchWorld(config, tree_depth);
  util::Rng target_rng(1789);
  const std::vector<data::ItemId> targets =
      data::SampleColdTargetItems(bw.world.dataset, num_targets, 10,
                                  target_rng);
  std::printf("\n--- %s (%zu target items, budget 30) ---\n",
              config.name.c_str(), targets.size());
  std::printf("%s\n", core::CampaignRowHeader().c_str());

  auto emit = [&](const core::CampaignResult& result) {
    std::printf("%s\n", core::FormatCampaignRow(result).c_str());
    csv.WriteRow({config.name, result.method,
                  bench::F4(result.metrics.at(20).hr),
                  bench::F4(result.metrics.at(10).hr),
                  bench::F4(result.metrics.at(5).hr),
                  bench::F4(result.metrics.at(20).ndcg),
                  bench::F4(result.metrics.at(10).ndcg),
                  bench::F4(result.metrics.at(5).ndcg),
                  bench::F4(result.avg_items_per_profile),
                  bench::F4(result.wall_seconds)});
  };

  const core::CampaignConfig base = bench::DefaultCampaign(4242);
  emit(core::EvaluateWithoutAttack(bw.world.dataset, bw.split.train,
                                   bw.ModelFactory(), targets, base));

  for (const char* method : kMethods) {
    const serve::StrategySpec spec =
        serve::MakeStrategyFactory(bw.world.dataset, bw.artifacts, method);
    CA_CHECK(spec.factory) << spec.error;
    core::CampaignConfig campaign = base;
    if (!spec.learns) campaign.episodes = 1;
    emit(core::RunCampaign(bw.world.dataset, bw.split.train,
                           bw.ModelFactory(), spec.factory, targets,
                           campaign));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Table 2: Performance comparison of attacking methods ===\n");

  util::CsvWriter csv(bench::ResultPath("table2_comparison.csv"),
                      {"dataset", "method", "hr20", "hr10", "hr5", "ndcg20",
                       "ndcg10", "ndcg5", "items_per_profile", "wall_s"});

  RunDataset(data::SyntheticConfig::SmallCross(), 3, 50, csv);
  RunDataset(data::SyntheticConfig::LargeCross(), 6, 50, csv);

  csv.Flush();
  std::printf("\n[table2] done in %.1fs; CSV: "
              "bench_results/table2_comparison.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

// Reproduces Figure 4: effect of target-item popularity on attack
// effectiveness. Overlapping items are split into 10 popularity groups
// (group 1 = most popular); CopyAttack attacks a sample from each group.
// The paper finds popular items are the most vulnerable (the top ~30%
// groups show the highest post-attack HR@20/NDCG@20).

#include <cstdio>
#include <vector>

#include "data/target_items.h"
#include "obs/time.h"
#include "serve/attack_server.h"
#include "util/csv.h"

#include "bench_common.h"

namespace {

void RunDataset(const copyattack::data::SyntheticConfig& config,
                std::size_t tree_depth, std::size_t per_group,
                copyattack::util::CsvWriter& csv) {
  using namespace copyattack;

  const bench::BenchWorld bw = bench::BuildBenchWorld(config, tree_depth);
  util::Rng target_rng(97);
  const auto groups = data::SampleTargetsByPopularityGroup(
      bw.world.dataset, 10, per_group, target_rng);

  std::printf("\n--- %s (%zu items per popularity group) ---\n",
              config.name.c_str(), per_group);
  std::printf("group  mean_pop  HR@20   NDCG@20\n");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    double mean_pop = 0.0;
    for (const data::ItemId item : groups[g]) {
      mean_pop += static_cast<double>(
          bw.world.dataset.target.ItemPopularity(item));
    }
    mean_pop /= static_cast<double>(groups[g].size());

    const core::CampaignConfig campaign = bench::DefaultCampaign(4242 + g);
    const auto result = core::RunCampaign(
        bw.world.dataset, bw.split.train, bw.ModelFactory(),
        serve::MakeStrategyFactory(bw.world.dataset, bw.artifacts,
                                   "CopyAttack")
            .factory,
        groups[g], campaign);

    std::printf("%-5zu  %-8.1f  %s  %s\n", g + 1, mean_pop,
                bench::F4(result.metrics.at(20).hr).c_str(),
                bench::F4(result.metrics.at(20).ndcg).c_str());
    csv.WriteRow({config.name, std::to_string(g + 1),
                  bench::F4(mean_pop),
                  bench::F4(result.metrics.at(20).hr),
                  bench::F4(result.metrics.at(20).ndcg)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Figure 4: Effect of item popularity ===\n");

  util::CsvWriter csv(bench::ResultPath("fig4_popularity.csv"),
                      {"dataset", "group", "mean_popularity", "hr20",
                       "ndcg20"});

  RunDataset(data::SyntheticConfig::SmallCross(), 3, 10, csv);
  RunDataset(data::SyntheticConfig::LargeCross(), 6, 10, csv);

  csv.Flush();
  std::printf("\n[fig4] done in %.1fs; CSV: "
              "bench_results/fig4_popularity.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

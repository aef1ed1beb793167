// Reproduces Figure 3: effect of the hierarchical clustering tree depth d
// on CopyAttack's HR@20 and NDCG@20, for both dataset pairs. The paper
// finds d=3 best on the small pair and d=6 best on the large pair: too
// shallow means huge per-node action spaces, too deep means many more
// policy networks to train with the same query budget.

#include <cstdio>
#include <vector>

#include "data/target_items.h"
#include "obs/time.h"
#include "serve/attack_server.h"
#include "util/csv.h"

#include "bench_common.h"

namespace {

void RunDataset(const copyattack::data::SyntheticConfig& config,
                const std::vector<std::size_t>& depths,
                std::size_t num_targets, copyattack::util::CsvWriter& csv) {
  using namespace copyattack;

  std::printf("\n--- %s ---\n", config.name.c_str());
  std::printf("depth  branching  HR@20   NDCG@20  wall(s)\n");
  for (const std::size_t depth : depths) {
    // The tree (and hence the policy architecture) depends on the depth,
    // so the artifacts are rebuilt per sweep point.
    const bench::BenchWorld bw = bench::BuildBenchWorld(config, depth);
    util::Rng target_rng(1789);
    const auto targets = data::SampleColdTargetItems(
        bw.world.dataset, num_targets, 10, target_rng);

    const core::CampaignConfig campaign = bench::DefaultCampaign(4242);
    const auto result = core::RunCampaign(
        bw.world.dataset, bw.split.train, bw.ModelFactory(),
        serve::MakeStrategyFactory(bw.world.dataset, bw.artifacts,
                                   "CopyAttack")
            .factory,
        targets, campaign);

    std::printf("%-5zu  %-9zu  %s  %s   %.1f\n", depth,
                bw.artifacts.tree.branching(),
                bench::F4(result.metrics.at(20).hr).c_str(),
                bench::F4(result.metrics.at(20).ndcg).c_str(),
                result.wall_seconds);
    csv.WriteRow({config.name, std::to_string(depth),
                  std::to_string(bw.artifacts.tree.branching()),
                  bench::F4(result.metrics.at(20).hr),
                  bench::F4(result.metrics.at(20).ndcg),
                  bench::F4(result.wall_seconds)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Figure 3: Effect of depth of the hierarchical "
              "clustering tree ===\n");

  util::CsvWriter csv(bench::ResultPath("fig3_tree_depth.csv"),
                      {"dataset", "depth", "branching", "hr20", "ndcg20",
                       "wall_s"});

  RunDataset(data::SyntheticConfig::SmallCross(), {2, 3, 4, 5}, 30, csv);
  RunDataset(data::SyntheticConfig::LargeCross(), {2, 3, 4, 6}, 30, csv);

  csv.Flush();
  std::printf("\n[fig3] done in %.1fs; CSV: "
              "bench_results/fig3_tree_depth.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

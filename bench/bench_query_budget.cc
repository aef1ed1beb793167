// Extension experiment: attack strength under a *query* budget. The paper
// motivates the hierarchical design with "limited resources (i.e., number
// of queries (or interactions) allowed to the target recommender system)"
// but only sweeps the profile budget. This bench fixes the profile budget
// at 30 and instead caps the number of query rounds the attacker may
// spend per episode — measuring how much feedback CopyAttack's learning
// actually needs.

#include <cstdio>

#include "data/target_items.h"
#include "obs/time.h"
#include "serve/attack_server.h"
#include "util/csv.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Query budget: CopyAttack under capped query rounds ===\n");

  const bench::BenchWorld bw =
      bench::BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  util::Rng target_rng(1789);
  const auto targets =
      data::SampleColdTargetItems(bw.world.dataset, 25, 10, target_rng);

  util::CsvWriter csv(bench::ResultPath("query_budget.csv"),
                      {"max_query_rounds", "hr20", "ndcg20",
                       "profiles_injected"});

  std::printf("\nmax query rounds/episode  HR@20   NDCG@20  profiles\n");
  for (const std::size_t rounds : {1UL, 2UL, 4UL, 6UL, 10UL, 0UL}) {
    core::CampaignConfig campaign = bench::DefaultCampaign(4242);
    campaign.env.max_query_rounds = rounds;  // 0 = unlimited
    const auto result = core::RunCampaign(
        bw.world.dataset, bw.split.train, bw.ModelFactory(),
        serve::MakeStrategyFactory(bw.world.dataset, bw.artifacts,
                                   "CopyAttack")
            .factory,
        targets, campaign);
    if (rounds == 0) {
      std::printf("unlimited                 ");
    } else {
      std::printf("%-25zu ", rounds);
    }
    std::printf("%s  %s   %.1f\n",
                bench::F4(result.metrics.at(20).hr).c_str(),
                bench::F4(result.metrics.at(20).ndcg).c_str(),
                result.avg_profiles_injected);
    csv.WriteRow({std::to_string(rounds),
                  bench::F4(result.metrics.at(20).hr),
                  bench::F4(result.metrics.at(20).ndcg),
                  bench::F4(result.avg_profiles_injected)});
  }
  csv.Flush();
  std::printf("\n[query_budget] done in %.1fs; CSV: "
              "bench_results/query_budget.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

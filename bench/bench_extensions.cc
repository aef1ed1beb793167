// Extension experiments for the paper's future-work directions (§6):
//
//   1. **Proxy targeting** — promoting target items that have *no* source
//      holders by anchoring CopyAttack on their most co-occurring
//      overlapping item (core/proxy.h).
//   2. **Demotion** — pushing an initially well-ranked item out of Top-k
//      lists using the same machinery with reward 1 - HR@k.

#include <cstdio>
#include <memory>

#include "core/copy_attack.h"
#include "core/proxy.h"
#include "data/target_items.h"
#include "obs/time.h"
#include "serve/attack_server.h"
#include "util/csv.h"

#include "bench_common.h"

namespace {

using namespace copyattack;

void RunProxyExperiment(const bench::BenchWorld& bw,
                        util::CsvWriter& csv) {
  // Target items with target-domain interactions but no source holders.
  std::vector<data::ItemId> orphans;
  for (data::ItemId item = 0; item < bw.world.dataset.target.num_items();
       ++item) {
    if (bw.world.dataset.SourceHolders(item).empty() &&
        bw.world.dataset.target.ItemPopularity(item) > 0 &&
        bw.world.dataset.target.ItemPopularity(item) < 10) {
      orphans.push_back(item);
    }
    if (orphans.size() >= 20) break;
  }
  std::printf("\n-- proxy targeting: %zu cold items absent from the source "
              "domain --\n",
              orphans.size());
  if (orphans.empty()) {
    std::printf("   (none in this world; skipped)\n");
    return;
  }

  core::CampaignConfig campaign = bench::DefaultCampaign(909);
  const auto clean = core::EvaluateWithoutAttack(
      bw.world.dataset, bw.split.train, bw.ModelFactory(), orphans,
      campaign);
  const auto attacked = core::RunCampaign(
      bw.world.dataset, bw.split.train, bw.ModelFactory(),
      [&](std::uint64_t seed) {
        core::CopyAttackConfig config;
        config.allow_proxy = true;
        return std::make_unique<core::CopyAttack>(
            &bw.world.dataset, &bw.artifacts.tree,
            &bw.artifacts.mf.user_embeddings(),
            &bw.artifacts.mf.item_embeddings(), config, seed);
      },
      orphans, campaign);
  std::printf("   HR@20 %s -> %s   HR@10 %s -> %s\n",
              bench::F4(clean.metrics.at(20).hr).c_str(),
              bench::F4(attacked.metrics.at(20).hr).c_str(),
              bench::F4(clean.metrics.at(10).hr).c_str(),
              bench::F4(attacked.metrics.at(10).hr).c_str());
  csv.WriteRow({"proxy-promotion", bench::F4(clean.metrics.at(20).hr),
                bench::F4(attacked.metrics.at(20).hr)});
}

void RunDemotionExperiment(const bench::BenchWorld& bw,
                           util::CsvWriter& csv) {
  // Targets: popular overlapping items (the ones users actually see).
  util::Rng rng(911);
  const auto groups = data::SampleTargetsByPopularityGroup(
      bw.world.dataset, 10, 15, rng);
  const std::vector<data::ItemId>& popular = groups.at(0);
  std::printf("\n-- demotion: %zu popular items --\n", popular.size());

  core::CampaignConfig campaign = bench::DefaultCampaign(912);
  campaign.env.goal = core::AttackGoal::kDemote;
  const auto clean = core::EvaluateWithoutAttack(
      bw.world.dataset, bw.split.train, bw.ModelFactory(), popular,
      campaign);
  const auto attacked = core::RunCampaign(
      bw.world.dataset, bw.split.train, bw.ModelFactory(),
      serve::MakeStrategyFactory(bw.world.dataset, bw.artifacts, "CopyAttack")
          .factory,
      popular, campaign);
  std::printf("   HR@20 of demoted items: %s -> %s (lower is a stronger "
              "demotion)\n",
              bench::F4(clean.metrics.at(20).hr).c_str(),
              bench::F4(attacked.metrics.at(20).hr).c_str());
  csv.WriteRow({"demotion", bench::F4(clean.metrics.at(20).hr),
                bench::F4(attacked.metrics.at(20).hr)});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Extensions: proxy targeting and demotion (paper §6) ===\n");

  const bench::BenchWorld bw =
      bench::BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  util::CsvWriter csv(bench::ResultPath("extensions.csv"),
                      {"experiment", "hr20_before", "hr20_after"});

  RunProxyExperiment(bw, csv);
  RunDemotionExperiment(bw, csv);

  csv.Flush();
  std::printf("\n[extensions] done in %.1fs; CSV: "
              "bench_results/extensions.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

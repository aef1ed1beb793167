// Agent ablations: reward construction and state encoder.
//
// The paper's Eq. (1) uses the raw HR@k over the pretend users at each
// query round as the reward; this repo's default instead credits each
// 3-injection window with its *marginal lift* (delta shaping) — the same
// optimum, but much better credit assignment under an episode-level
// baseline. The third row swaps the paper's vanilla RNN state encoder for
// a GRU.

#include <cstdio>

#include "core/copy_attack.h"
#include "data/target_items.h"
#include "obs/time.h"
#include "util/csv.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Agent ablations: reward shaping and state encoder ===\n");

  const bench::BenchWorld bw =
      bench::BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  util::Rng target_rng(1789);
  const auto targets =
      data::SampleColdTargetItems(bw.world.dataset, 30, 10, target_rng);

  util::CsvWriter csv(bench::ResultPath("reward_shaping.csv"),
                      {"shaping", "hr20", "hr10", "hr5", "ndcg20",
                       "final_reward"});

  std::printf("\n%-13s HR@20   HR@10   HR@5    NDCG@20 final-reward\n",
              "variant");
  const struct {
    const char* name;
    core::RewardShaping shaping;
    core::SequenceEncoderType encoder;
  } variants[] = {{"raw-HR", core::RewardShaping::kHitRatio,
                   core::SequenceEncoderType::kVanillaRnn},
                  {"delta-HR", core::RewardShaping::kDeltaHitRatio,
                   core::SequenceEncoderType::kVanillaRnn},
                  {"delta-HR+GRU", core::RewardShaping::kDeltaHitRatio,
                   core::SequenceEncoderType::kGru}};

  for (const auto& variant : variants) {
    const core::CampaignConfig campaign = bench::DefaultCampaign(4242);
    const auto result = core::RunCampaign(
        bw.world.dataset, bw.split.train, bw.ModelFactory(),
        [&](std::uint64_t seed) {
          core::CopyAttackConfig config;
          config.reward_shaping = variant.shaping;
          config.selection.encoder = variant.encoder;
          return std::make_unique<core::CopyAttack>(
              &bw.world.dataset, &bw.artifacts.tree,
              &bw.artifacts.mf.user_embeddings(),
              &bw.artifacts.mf.item_embeddings(), config, seed);
        },
        targets, campaign);
    std::printf("%-13s %s  %s  %s  %s  %s\n", variant.name,
                bench::F4(result.metrics.at(20).hr).c_str(),
                bench::F4(result.metrics.at(10).hr).c_str(),
                bench::F4(result.metrics.at(5).hr).c_str(),
                bench::F4(result.metrics.at(20).ndcg).c_str(),
                bench::F4(result.avg_final_reward).c_str());
    csv.WriteRow({variant.name, bench::F4(result.metrics.at(20).hr),
                  bench::F4(result.metrics.at(10).hr),
                  bench::F4(result.metrics.at(5).hr),
                  bench::F4(result.metrics.at(20).ndcg),
                  bench::F4(result.avg_final_reward)});
  }
  csv.Flush();
  std::printf("\n[reward_shaping] done in %.1fs; CSV: "
              "bench_results/reward_shaping.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

// Promotion campaign: the scenario from the paper's introduction. An
// attacker wants a slate of cold items promoted on platform A (the target
// recommender). They control accounts on platform B (a competing platform
// sharing many items) and compare strategies end to end:
//
//   * RandomAttack        — copy arbitrary B users,
//   * TargetAttack70      — copy B users who rated the item, clip to 70%,
//   * CopyAttack          — the full RL pipeline.
//
// The example prints a Table-2-style report for the whole campaign and
// writes per-item results to promotion_campaign.csv.
//
// Run: ./build/examples/promotion_campaign

#include <cstdio>
#include <memory>

#include "core/baselines.h"
#include "core/copy_attack.h"
#include "core/runner.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "util/csv.h"

int main() {
  using namespace copyattack;

  // Platform A and platform B share 600 of 800 items.
  const data::SyntheticConfig config = data::SyntheticConfig::SmallCross();
  const data::SyntheticWorld world = data::GenerateSyntheticWorld(config);

  const core::World prepared = core::PrepareWorld(
      world.dataset, {.target = {.split_seed = 11, .train_seed = 12}});
  const data::Dataset& train = prepared.target.split.train;
  const core::ModelFactory model_factory = prepared.target.Factory();
  const core::SourceArtifacts& artifacts = prepared.source;
  std::printf("platform A recommender: test HR@10 = %.3f\n",
              prepared.target.report.test_hr);

  // The campaign slate: 12 cold items the attacker wants promoted.
  util::Rng target_rng(13);
  const auto slate =
      data::SampleColdTargetItems(world.dataset, 12, 10, target_rng);
  std::printf("campaign slate: %zu cold items\n\n", slate.size());

  core::CampaignConfig campaign;
  campaign.env.budget = 30;
  campaign.env.num_pretend_users = 50;
  campaign.episodes = 12;
  campaign.eval_users = 250;
  campaign.seed = 99;

  std::printf("%s\n", core::CampaignRowHeader().c_str());
  util::CsvWriter csv("promotion_campaign.csv",
                      {"method", "hr20", "ndcg20", "items_per_profile"});

  const auto without = core::EvaluateWithoutAttack(
      world.dataset, train, model_factory, slate, campaign);
  std::printf("%s\n", core::FormatCampaignRow(without).c_str());

  struct MethodSpec {
    const char* name;
    core::StrategyFactory factory;
    std::size_t episodes;
  };
  const MethodSpec methods[] = {
      {"RandomAttack",
       [&](std::uint64_t) {
         return std::make_unique<core::RandomAttack>(world.dataset);
       },
       1},
      {"TargetAttack70",
       [&](std::uint64_t) {
         return std::make_unique<core::TargetAttack>(world.dataset, 0.7);
       },
       1},
      {"CopyAttack",
       [&](std::uint64_t seed) {
         return std::make_unique<core::CopyAttack>(
             &world.dataset, &artifacts.tree,
             &artifacts.mf.user_embeddings(),
             &artifacts.mf.item_embeddings(), core::CopyAttackConfig{},
             seed);
       },
       12},
  };

  for (const MethodSpec& spec : methods) {
    core::CampaignConfig per_method = campaign;
    per_method.episodes = spec.episodes;
    const auto result =
        core::RunCampaign(world.dataset, train, model_factory,
                          spec.factory, slate, per_method);
    std::printf("%s\n", core::FormatCampaignRow(result).c_str());
    csv.WriteRow({result.method,
                  std::to_string(result.metrics.at(20).hr),
                  std::to_string(result.metrics.at(20).ndcg),
                  std::to_string(result.avg_items_per_profile)});
  }
  csv.Flush();
  std::printf("\nper-method summary written to promotion_campaign.csv\n");
  return 0;
}

// Budget planner: answers the operational question "how many profiles do I
// need to copy to reach a desired promotion level for this item?" —
// a practical reading of the paper's Figure 5 budget study.
//
// For one cold target item it runs CopyAttack with increasing budgets and
// reports the HR@20 reached over real users, plus the attack cost (copied
// profiles, injected interactions, query rounds).
//
// Run: ./build/examples/budget_planner

#include <cstdio>
#include <memory>

#include "core/copy_attack.h"
#include "core/runner.h"
#include "data/synthetic.h"
#include "data/target_items.h"

int main() {
  using namespace copyattack;

  const data::SyntheticConfig config = data::SyntheticConfig::SmallCross();
  const data::SyntheticWorld world = data::GenerateSyntheticWorld(config);

  const core::World prepared = core::PrepareWorld(
      world.dataset, {.target = {.split_seed = 21, .train_seed = 22}});
  const core::SourceArtifacts& artifacts = prepared.source;

  util::Rng target_rng(23);
  const auto targets =
      data::SampleColdTargetItems(world.dataset, 5, 10, target_rng);

  const double desired_hr20 = 0.05;
  std::printf("goal: HR@20 >= %.2f over real users\n\n", desired_hr20);
  std::printf("budget  HR@20   profiles  interactions  query_rounds\n");

  std::size_t recommended_budget = 0;
  for (const std::size_t budget : {5UL, 10UL, 15UL, 20UL, 30UL, 40UL}) {
    core::CampaignConfig campaign;
    campaign.env.budget = budget;
    campaign.env.num_pretend_users = 50;
    campaign.episodes = 12;
    campaign.eval_users = 250;
    campaign.seed = 101;

    // Aggregate over the sampled items to de-noise the estimate.
    const auto result = core::RunCampaign(
        world.dataset, prepared.target.split.train, prepared.target.Factory(),
        [&](std::uint64_t seed) {
          return std::make_unique<core::CopyAttack>(
              &world.dataset, &artifacts.tree,
              &artifacts.mf.user_embeddings(),
              &artifacts.mf.item_embeddings(), core::CopyAttackConfig{},
              seed);
        },
        targets, campaign);

    std::printf("%-6zu  %.4f  %-8.1f  %-12.1f  %.1f\n", budget,
                result.metrics.at(20).hr, result.avg_profiles_injected,
                result.avg_profiles_injected * result.avg_items_per_profile,
                result.avg_query_rounds);
    if (recommended_budget == 0 &&
        result.metrics.at(20).hr >= desired_hr20) {
      recommended_budget = budget;
    }
  }

  if (recommended_budget > 0) {
    std::printf("\n-> a budget of ~%zu copied profiles reaches the goal.\n",
                recommended_budget);
  } else {
    std::printf("\n-> the goal was not reached within 40 profiles; "
                "consider a larger budget or different target items.\n");
  }
  return 0;
}

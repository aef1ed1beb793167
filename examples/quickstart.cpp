// Quickstart: the whole CopyAttack pipeline on a small synthetic world in
// under a minute.
//
//   1. Generate a cross-domain world (target domain A, source domain B).
//   2. Prepare it in one step: train the black-box PinSage-style target
//      recommender on A, pre-train source-domain MF embeddings and build
//      the balanced hierarchical clustering tree over B's users.
//   3. Pick a cold target item and run CopyAttack for a few episodes.
//   4. Report the promotion (HR@20 over real users) before vs after.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart

#include <cstdio>

#include "core/copy_attack.h"
#include "core/environment.h"
#include "core/runner.h"
#include "data/synthetic.h"
#include "data/target_items.h"

int main() {
  using namespace copyattack;

  // 1. A small cross-domain world: two movie platforms sharing items.
  //    (Same item universe as the SmallCross experiments, fewer users so
  //    the example runs in seconds.)
  data::SyntheticConfig config = data::SyntheticConfig::SmallCross();
  config.num_target_users = 1000;
  config.num_source_users = 3000;
  const data::SyntheticWorld world = data::GenerateSyntheticWorld(config);
  std::printf("world: %zu target users, %zu source users, %zu shared items\n",
              world.dataset.target.num_users(),
              world.dataset.source.num_users(),
              world.dataset.OverlapCount());

  // 2. The black-box target model (80/10/10 split, early stopping) and
  //    the source-domain artifacts (MF embeddings + clustering tree).
  core::World prepared = core::PrepareWorld(
      world.dataset, {.target = {.split_seed = 1, .train_seed = 2}});
  const rec::TrainReport& report = prepared.target.report;
  std::printf("target model: test HR@10 = %.3f after %zu epochs\n",
              report.test_hr, report.epochs_run);
  const core::SourceArtifacts& artifacts = prepared.source;

  // 3. Attack one cold item with CopyAttack.
  util::Rng target_rng(3);
  const auto targets =
      data::SampleColdTargetItems(world.dataset, 1, 10, target_rng);
  const data::ItemId target_item = targets.at(0);
  std::printf("attacking cold item %u (popularity %zu, %zu source holders)\n",
              target_item, world.dataset.target.ItemPopularity(target_item),
              world.dataset.SourceHolders(target_item).size());

  core::EnvConfig env_config;
  env_config.budget = 30;
  env_config.num_pretend_users = 30;
  core::AttackEnvironment env(world.dataset, prepared.target.split.train,
                              &prepared.target.model, env_config);
  env.Reset(target_item);
  const auto before = env.EvaluateRealPromotion({20, 10, 5}, 200, 100);

  core::CopyAttack attack(&world.dataset, &artifacts.tree,
                          &artifacts.mf.user_embeddings(),
                          &artifacts.mf.item_embeddings(),
                          core::CopyAttackConfig{}, /*seed=*/4);
  attack.BeginTargetItem(target_item);
  util::Rng episode_rng(5);
  for (int episode = 0; episode < 8; ++episode) {
    env.Reset(target_item);
    const double reward = attack.RunEpisode(env, episode_rng);
    std::printf("  episode %d: pretend-user HR@20 reward = %.2f\n",
                episode + 1, reward);
  }

  // 4. Promotion achieved (over real users, not the attacker's pretend
  //    users), plus the attack cost.
  const auto after = env.EvaluateRealPromotion({20, 10, 5}, 200, 100);
  std::printf("\npromotion of item %u over real users:\n", target_item);
  for (const std::size_t k : {20UL, 10UL, 5UL}) {
    std::printf("  HR@%-2zu  %.4f -> %.4f\n", k, before.at(k).hr,
                after.at(k).hr);
  }
  const auto& bb = env.black_box();
  std::printf("cost: %zu profiles, %.1f items/profile, %zu query rounds\n",
              bb.injected_profiles(),
              bb.injected_profiles()
                  ? static_cast<double>(bb.injected_interactions()) /
                        static_cast<double>(bb.injected_profiles())
                  : 0.0,
              env.lifetime_queries());
  return 0;
}

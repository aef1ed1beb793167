#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/copy_attack.h"
#include "rec/pinsage_lite.h"
#include "serve/attack_server.h"
#include "test_helpers.h"
#include "test_seed.h"
#include "util/check.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;

EnvConfig SmallEnvConfig() {
  EnvConfig config;
  config.budget = 9;
  config.query_interval = 3;
  config.num_pretend_users = 10;
  config.reward_k = 20;
  config.query_candidates = 50;
  config.seed = 7;
  return config;
}

CopyAttackConfig SmallAgentConfig() {
  CopyAttackConfig config;
  config.learning_rate = 0.1f;
  return config;
}

TEST(RandomAttackTest, InjectsFullBudget) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  RandomAttack attack(tw.world.dataset);
  attack.BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  const double reward = attack.RunEpisode(env, rng);
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.black_box().injected_profiles(), 9U);
  EXPECT_GE(reward, 0.0);
  EXPECT_LE(reward, 1.0);
}

TEST(TargetAttackTest, OnlyCopiesHolders) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  TargetAttack attack(tw.world.dataset, 1.0);
  attack.BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  attack.RunEpisode(env, rng);

  // Every injected profile must contain the target item (keep = 100% and
  // all holders' raw profiles contain it).
  const data::Dataset& polluted = env.black_box().polluted();
  const std::size_t base =
      tw.split.train.num_users() + env.pretend_users().size();
  for (data::UserId u = static_cast<data::UserId>(base);
       u < polluted.num_users(); ++u) {
    EXPECT_TRUE(polluted.HasInteraction(u, tw.cold_target));
  }
}

TEST(TargetAttackTest, CraftingShortensProfiles) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model_40 = tw.model;
  rec::PinSageLite model_100 = tw.model;

  AttackEnvironment env_40(tw.world.dataset, tw.split.train, &model_40,
                           SmallEnvConfig());
  AttackEnvironment env_100(tw.world.dataset, tw.split.train, &model_100,
                            SmallEnvConfig());
  TargetAttack attack_40(tw.world.dataset, 0.4);
  TargetAttack attack_100(tw.world.dataset, 1.0);
  attack_40.BeginTargetItem(tw.cold_target);
  attack_100.BeginTargetItem(tw.cold_target);
  env_40.Reset(tw.cold_target);
  env_100.Reset(tw.cold_target);
  util::Rng rng_a(testhelpers::TestSeed(3)), rng_b(testhelpers::TestSeed(3));
  attack_40.RunEpisode(env_40, rng_a);
  attack_100.RunEpisode(env_100, rng_b);

  const double items_40 =
      static_cast<double>(env_40.black_box().injected_interactions()) /
      static_cast<double>(env_40.black_box().injected_profiles());
  const double items_100 =
      static_cast<double>(env_100.black_box().injected_interactions()) /
      static_cast<double>(env_100.black_box().injected_profiles());
  EXPECT_LT(items_40, items_100)
      << "40% crafting must use a smaller item budget than raw profiles";
}

TEST(TargetAttackTest, NameReflectsKeepFraction) {
  const auto& tw = SharedTinyWorld();
  EXPECT_EQ(TargetAttack(tw.world.dataset, 0.4).name(), "TargetAttack40");
  EXPECT_EQ(TargetAttack(tw.world.dataset, 0.7).name(), "TargetAttack70");
  EXPECT_EQ(TargetAttack(tw.world.dataset, 1.0).name(), "TargetAttack100");
}

TEST(CopyAttackTest, NamesReflectAblations) {
  const auto& tw = SharedTinyWorld();
  CopyAttackConfig config;
  CopyAttack full(&tw.world.dataset, &tw.artifacts.tree,
                  &tw.artifacts.mf.user_embeddings(),
                  &tw.artifacts.mf.item_embeddings(), config, 1);
  EXPECT_EQ(full.name(), "CopyAttack");

  config.use_masking = false;
  CopyAttack no_mask(&tw.world.dataset, &tw.artifacts.tree,
                     &tw.artifacts.mf.user_embeddings(),
                     &tw.artifacts.mf.item_embeddings(), config, 1);
  EXPECT_EQ(no_mask.name(), "CopyAttack-Masking");

  config.use_masking = true;
  config.use_crafting = false;
  CopyAttack no_craft(&tw.world.dataset, &tw.artifacts.tree,
                      &tw.artifacts.mf.user_embeddings(),
                      &tw.artifacts.mf.item_embeddings(), config, 1);
  EXPECT_EQ(no_craft.name(), "CopyAttack-Length");
}

TEST(CopyAttackTest, EpisodeRunsAndInjects) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), SmallAgentConfig(),
                    1);
  attack.BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  const double reward = attack.RunEpisode(env, rng);
  EXPECT_GE(reward, 0.0);
  EXPECT_LE(reward, 1.0);
  EXPECT_GT(env.black_box().injected_profiles(), 0U);
}

TEST(CopyAttackTest, MaskedAgentOnlyInjectsHolderProfiles) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), SmallAgentConfig(),
                    1);
  attack.BeginTargetItem(tw.cold_target);

  // Candidates must be exactly the source holders of the target item.
  const auto& holders = tw.world.dataset.SourceHolders(tw.cold_target);
  EXPECT_EQ(attack.candidates().size(), holders.size());

  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  attack.RunEpisode(env, rng);

  // Every injected profile contains the target item (mask + craft window).
  const data::Dataset& polluted = env.black_box().polluted();
  const std::size_t base =
      tw.split.train.num_users() + env.pretend_users().size();
  ASSERT_GT(polluted.num_users(), base);
  for (data::UserId u = static_cast<data::UserId>(base);
       u < polluted.num_users(); ++u) {
    EXPECT_TRUE(polluted.HasInteraction(u, tw.cold_target));
  }
}

TEST(CopyAttackTest, ExcludeSelectedNeverRepeatsUsers) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  EnvConfig env_config = SmallEnvConfig();
  env_config.budget = 30;  // larger than the holder pool of a cold item
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        env_config);
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), SmallAgentConfig(),
                    1);
  attack.BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  attack.RunEpisode(env, rng);
  // With exclusion, the number of injections can't exceed the holders.
  EXPECT_LE(env.black_box().injected_profiles(),
            tw.world.dataset.SourceHolders(tw.cold_target).size());
}

TEST(CopyAttackTest, LearningImprovesPretendReward) {
  // Across episodes the final reward should not collapse; and the last
  // episode should do at least as well as the first on average. This is a
  // smoke-level learning test (tight guarantees are in the bench) and a
  // statistical claim about a 6-episode trajectory — only guaranteed on
  // the controlled default world.
  if (testhelpers::SeedOverrideActive()) {
    GTEST_SKIP() << "trajectory not guaranteed under COPYATTACK_TEST_SEED";
  }
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  EnvConfig env_config = SmallEnvConfig();
  env_config.budget = 6;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        env_config);
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), SmallAgentConfig(),
                    1);
  attack.BeginTargetItem(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  double first = 0.0, last = 0.0;
  const int episodes = 6;
  for (int e = 0; e < episodes; ++e) {
    env.Reset(tw.cold_target);
    const double reward = attack.RunEpisode(env, rng);
    if (e == 0) first = reward;
    last = reward;
  }
  EXPECT_GE(last, first - 0.25) << "learning should not collapse rewards";
}

/// The "PolicyNetwork" baseline as every campaign path builds it. Its
/// strategies share the factory's one-level tree.
StrategyFactory PolicyNetworkFactory() {
  const auto& tw = SharedTinyWorld();
  serve::StrategySpec spec = serve::MakeStrategyFactory(
      tw.world.dataset, tw.artifacts, "PolicyNetwork");
  CA_CHECK(spec.factory) << spec.error;
  return std::move(spec.factory);
}

TEST(FlatPolicyTest, EpisodeRunsAndRespectsHolders) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  const StrategyFactory factory = PolicyNetworkFactory();
  const std::unique_ptr<AttackStrategy> attack = factory(1);
  EXPECT_EQ(attack->name(), "PolicyNetwork");
  attack->BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  const double reward = attack->RunEpisode(env, rng);
  EXPECT_GE(reward, 0.0);

  const data::Dataset& polluted = env.black_box().polluted();
  const std::size_t base =
      tw.split.train.num_users() + env.pretend_users().size();
  for (data::UserId u = static_cast<data::UserId>(base);
       u < polluted.num_users(); ++u) {
    EXPECT_TRUE(polluted.HasInteraction(u, tw.cold_target));
  }
}

TEST(FlatPolicyTest, StrategyOutlivesItsFactory) {
  // The temporary factory, and its handle on the tree, is gone before the
  // strategy runs; the strategy's own share keeps the tree alive.
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  const std::unique_ptr<AttackStrategy> attack = PolicyNetworkFactory()(1);
  EXPECT_EQ(attack->name(), "PolicyNetwork");
  attack->BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  EXPECT_GE(attack->RunEpisode(env, rng), 0.0);
  EXPECT_GT(env.black_box().injected_profiles(), 0U);
}

}  // namespace
}  // namespace copyattack::core

namespace copyattack::core {
namespace {

TEST(CopyAttackTest, EvalModeFreezesBehavior) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), SmallAgentConfig(),
                    1);
  attack.BeginTargetItem(tw.cold_target);
  attack.SetEvalMode(true);

  // Two greedy episodes from identical environment states must inject the
  // exact same user sequence (greedy + frozen parameters).
  env.Reset(tw.cold_target);
  util::Rng rng_a(testhelpers::TestSeed(3));
  attack.RunEpisode(env, rng_a);
  const std::size_t users_a = env.black_box().polluted().num_users();
  std::vector<data::Profile> profiles_a;
  const std::size_t base =
      tw.split.train.num_users() + env.pretend_users().size();
  for (data::UserId u = static_cast<data::UserId>(base); u < users_a; ++u) {
    profiles_a.push_back(env.black_box().polluted().UserProfile(u));
  }

  env.Reset(tw.cold_target);
  util::Rng rng_b(testhelpers::TestSeed(777));  // different RNG; greedy should not care except a_0
  attack.RunEpisode(env, rng_b);
  // The seed action a_0 is random even in eval mode, so only check that
  // the episode ran and the injected count is comparable.
  EXPECT_GT(env.black_box().injected_profiles(), 0U);
  EXPECT_EQ(users_a - base, profiles_a.size());
}

TEST(CopyAttackTest, PlainHitRatioRewardModeRuns) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  CopyAttackConfig config = SmallAgentConfig();
  config.reward_shaping = RewardShaping::kHitRatio;
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), config, 1);
  attack.BeginTargetItem(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  for (int episode = 0; episode < 3; ++episode) {
    env.Reset(tw.cold_target);
    const double reward = attack.RunEpisode(env, rng);
    EXPECT_GE(reward, 0.0);
    EXPECT_LE(reward, 1.0);
  }
}

TEST(FlatPolicyTest, EvalModeRuns) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  const StrategyFactory factory = PolicyNetworkFactory();
  const std::unique_ptr<AttackStrategy> attack = factory(1);
  attack->BeginTargetItem(tw.cold_target);
  attack->SetEvalMode(true);
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  const double reward = attack->RunEpisode(env, rng);
  EXPECT_GE(reward, 0.0);
  EXPECT_GT(env.black_box().injected_profiles(), 0U);
}

}  // namespace
}  // namespace copyattack::core

namespace copyattack::core {
namespace {

TEST(CopyAttackTest, CheckpointRoundTripPreservesBehavior) {
  const auto& tw = SharedTinyWorld();
  CopyAttack original(&tw.world.dataset, &tw.artifacts.tree,
                      &tw.artifacts.mf.user_embeddings(),
                      &tw.artifacts.mf.item_embeddings(),
                      SmallAgentConfig(), 1);
  original.BeginTargetItem(tw.cold_target);

  // Train it a little so the parameters differ from the fresh init.
  {
    rec::PinSageLite model = tw.model;
    AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                          SmallEnvConfig());
    util::Rng rng(testhelpers::TestSeed(3));
    for (int e = 0; e < 2; ++e) {
      env.Reset(tw.cold_target);
      original.RunEpisode(env, rng);
    }
  }

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(original.SaveState(blob));

  // A fresh agent with a DIFFERENT init seed must behave identically
  // after loading the checkpoint (greedy actions match): tree nodes the
  // checkpoint does not hold are re-derived from the saved init stream.
  CopyAttack restored(&tw.world.dataset, &tw.artifacts.tree,
                      &tw.artifacts.mf.user_embeddings(),
                      &tw.artifacts.mf.item_embeddings(),
                      SmallAgentConfig(), 999);
  restored.BeginTargetItem(tw.cold_target);
  ASSERT_TRUE(restored.LoadState(blob));

  original.SetEvalMode(true);
  restored.SetEvalMode(true);
  rec::PinSageLite model_a = tw.model;
  rec::PinSageLite model_b = tw.model;
  AttackEnvironment env_a(tw.world.dataset, tw.split.train, &model_a,
                          SmallEnvConfig());
  AttackEnvironment env_b(tw.world.dataset, tw.split.train, &model_b,
                          SmallEnvConfig());
  env_a.Reset(tw.cold_target);
  env_b.Reset(tw.cold_target);
  util::Rng rng_a(testhelpers::TestSeed(55)), rng_b(testhelpers::TestSeed(55));  // same seed so a_0 matches
  const double ra = original.RunEpisode(env_a, rng_a);
  const double rb = restored.RunEpisode(env_b, rng_b);
  EXPECT_DOUBLE_EQ(ra, rb);
}

TEST(CopyAttackTest, CheckpointSaveLoadSaveIsByteIdentical) {
  const auto& tw = SharedTinyWorld();
  const auto make_agent = [&tw](std::uint64_t seed) {
    return CopyAttack(&tw.world.dataset, &tw.artifacts.tree,
                      &tw.artifacts.mf.user_embeddings(),
                      &tw.artifacts.mf.item_embeddings(), SmallAgentConfig(),
                      seed);
  };
  const auto play = [&tw](CopyAttack& agent, int episodes) {
    rec::PinSageLite model = tw.model;
    AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                          SmallEnvConfig());
    util::Rng rng(testhelpers::TestSeed(3));
    for (int e = 0; e < episodes; ++e) {
      env.Reset(tw.cold_target);
      agent.RunEpisode(env, rng);
    }
  };
  const auto save = [](CopyAttack& agent) {
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(agent.SaveState(out));
    return out.str();
  };

  CopyAttack original = make_agent(1);
  original.BeginTargetItem(tw.cold_target);
  play(original, 2);
  const std::string saved = save(original);

  // The loader has built tree nodes of its own; loading drops them.
  CopyAttack loader = make_agent(999);
  loader.BeginTargetItem(tw.cold_target);
  play(loader, 1);
  std::istringstream in(saved, std::ios::binary);
  ASSERT_TRUE(loader.LoadState(in));
  EXPECT_EQ(save(loader), saved);
}

TEST(CopyAttackTest, GruEncoderAgentRuns) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model = tw.model;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                        SmallEnvConfig());
  CopyAttackConfig config = SmallAgentConfig();
  config.selection.encoder = SequenceEncoderType::kGru;
  CopyAttack attack(&tw.world.dataset, &tw.artifacts.tree,
                    &tw.artifacts.mf.user_embeddings(),
                    &tw.artifacts.mf.item_embeddings(), config, 1);
  attack.BeginTargetItem(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  for (int e = 0; e < 2; ++e) {
    env.Reset(tw.cold_target);
    const double reward = attack.RunEpisode(env, rng);
    EXPECT_GE(reward, 0.0);
    EXPECT_LE(reward, 1.0);
  }
}

}  // namespace
}  // namespace copyattack::core

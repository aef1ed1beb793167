#include <memory>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/copy_attack.h"
#include "core/runner.h"
#include "rec/pinsage_lite.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;

CampaignConfig SmallCampaign() {
  CampaignConfig config;
  config.env.budget = 9;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 10;
  config.env.query_candidates = 50;
  config.episodes = 3;
  config.eval_users = 60;
  config.eval_negatives = 50;
  config.num_threads = 2;
  return config;
}

std::vector<data::ItemId> SmallTargets() {
  const auto& tw = SharedTinyWorld();
  util::Rng rng(testhelpers::TestSeed(71));
  return data::SampleColdTargetItems(tw.world.dataset, 4, 10, rng);
}

TEST(IntegrationTest, WithoutAttackBaselineRow) {
  const auto& tw = SharedTinyWorld();
  const auto result = EvaluateWithoutAttack(
      tw.world.dataset, tw.split.train, tw.ModelFactory(), SmallTargets(),
      SmallCampaign());
  EXPECT_EQ(result.method, "WithoutAttack");
  EXPECT_EQ(result.num_target_items, 4U);
  EXPECT_GE(result.metrics.at(20).hr, 0.0);
  EXPECT_LE(result.metrics.at(20).hr, 1.0);
  // Cold items should rank poorly before the attack.
  EXPECT_LT(result.metrics.at(20).hr, 0.5);
}

TEST(IntegrationTest, RandomAttackCampaign) {
  const auto& tw = SharedTinyWorld();
  const auto result = RunCampaign(
      tw.world.dataset, tw.split.train, tw.ModelFactory(),
      [&](std::uint64_t) {
        return std::make_unique<RandomAttack>(tw.world.dataset);
      },
      SmallTargets(), SmallCampaign());
  EXPECT_EQ(result.method, "RandomAttack");
  EXPECT_EQ(result.num_target_items, 4U);
  EXPECT_GT(result.avg_items_per_profile, 0.0);
  EXPECT_GT(result.avg_profiles_injected, 0.0);
}

TEST(IntegrationTest, CopyAttackBeatsWithoutAttack) {
  // Statistical-ordering claim: 3 training episodes on the tiny world
  // only guarantee promotion on the controlled default configuration.
  if (testhelpers::SeedOverrideActive()) {
    GTEST_SKIP() << "ordering not guaranteed under COPYATTACK_TEST_SEED";
  }
  const auto& tw = SharedTinyWorld();
  const auto targets = SmallTargets();
  const auto config = SmallCampaign();

  const auto clean = EvaluateWithoutAttack(
      tw.world.dataset, tw.split.train, tw.ModelFactory(), targets, config);

  CopyAttackConfig agent_config;
  agent_config.learning_rate = 0.1f;
  const auto attacked = RunCampaign(
      tw.world.dataset, tw.split.train, tw.ModelFactory(),
      [&](std::uint64_t seed) {
        return std::make_unique<CopyAttack>(
            &tw.world.dataset, &tw.artifacts.tree,
            &tw.artifacts.mf.user_embeddings(),
            &tw.artifacts.mf.item_embeddings(), agent_config, seed);
      },
      targets, config);

  EXPECT_EQ(attacked.method, "CopyAttack");
  EXPECT_GT(attacked.metrics.at(20).hr, clean.metrics.at(20).hr)
      << "the attack must promote the target items";
}

TEST(IntegrationTest, TargetAttackBeatsRandomAttack) {
  // Statistical-ordering claim: with 3 episodes over 4 targets the
  // ordering is only guaranteed on the controlled default world, not on
  // an arbitrary reseed of it.
  if (testhelpers::SeedOverrideActive()) {
    GTEST_SKIP() << "ordering not guaranteed under COPYATTACK_TEST_SEED";
  }
  const auto& tw = SharedTinyWorld();
  const auto targets = SmallTargets();
  // A larger injection budget than SmallCampaign's: the ordering between
  // the two baselines is a statistical claim, and at budget 9 it hinges
  // on a single profile's draw.
  CampaignConfig config = SmallCampaign();
  config.env.budget = 18;

  const auto random = RunCampaign(
      tw.world.dataset, tw.split.train, tw.ModelFactory(),
      [&](std::uint64_t) {
        return std::make_unique<RandomAttack>(tw.world.dataset);
      },
      targets, config);
  const auto targeted = RunCampaign(
      tw.world.dataset, tw.split.train, tw.ModelFactory(),
      [&](std::uint64_t) {
        return std::make_unique<TargetAttack>(tw.world.dataset, 0.7);
      },
      targets, config);

  EXPECT_GT(targeted.metrics.at(20).hr, random.metrics.at(20).hr)
      << "profiles containing the target item must promote it better";
}

TEST(IntegrationTest, CampaignDeterministicAcrossRuns) {
  const auto& tw = SharedTinyWorld();
  const auto targets = SmallTargets();
  CampaignConfig config = SmallCampaign();
  config.num_threads = 2;

  auto factory = [&](std::uint64_t) {
    return std::make_unique<TargetAttack>(tw.world.dataset, 0.4);
  };
  const auto a = RunCampaign(tw.world.dataset, tw.split.train,
                             tw.ModelFactory(), factory, targets, config);
  const auto b = RunCampaign(tw.world.dataset, tw.split.train,
                             tw.ModelFactory(), factory, targets, config);
  EXPECT_DOUBLE_EQ(a.metrics.at(20).hr, b.metrics.at(20).hr);
  EXPECT_DOUBLE_EQ(a.metrics.at(5).ndcg, b.metrics.at(5).ndcg);
  EXPECT_DOUBLE_EQ(a.avg_items_per_profile, b.avg_items_per_profile);
}

TEST(IntegrationTest, ThreadedEqualsSequential) {
  const auto& tw = SharedTinyWorld();
  const auto targets = SmallTargets();
  auto factory = [&](std::uint64_t) {
    return std::make_unique<TargetAttack>(tw.world.dataset, 0.7);
  };
  CampaignConfig sequential = SmallCampaign();
  sequential.num_threads = 1;
  CampaignConfig threaded = SmallCampaign();
  threaded.num_threads = 4;

  const auto a = RunCampaign(tw.world.dataset, tw.split.train,
                             tw.ModelFactory(), factory, targets,
                             sequential);
  const auto b = RunCampaign(tw.world.dataset, tw.split.train,
                             tw.ModelFactory(), factory, targets, threaded);
  EXPECT_DOUBLE_EQ(a.metrics.at(20).hr, b.metrics.at(20).hr);
}

TEST(IntegrationTest, FormatRowContainsMethodName) {
  const auto& tw = SharedTinyWorld();
  const auto result = EvaluateWithoutAttack(
      tw.world.dataset, tw.split.train, tw.ModelFactory(), SmallTargets(),
      SmallCampaign());
  const std::string row = FormatCampaignRow(result);
  EXPECT_NE(row.find("WithoutAttack"), std::string::npos);
  EXPECT_FALSE(CampaignRowHeader().empty());
}

TEST(IntegrationTest, SourceArtifactsShapes) {
  const auto& tw = SharedTinyWorld();
  EXPECT_EQ(tw.artifacts.mf.user_embeddings().rows(),
            tw.world.dataset.source.num_users());
  EXPECT_EQ(tw.artifacts.tree.num_leaves(),
            tw.world.dataset.source.num_users());
  EXPECT_LE(tw.artifacts.tree.depth(), 3U);
}

TEST(IntegrationTest, RefitOnQueryEnvironmentWorks) {
  // The transductive-target ablation path: MF target model with periodic
  // refits on query rounds.
  const auto& tw = SharedTinyWorld();
  rec::MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(31));
  mf.Fit(tw.split.train, 8, rng);

  EnvConfig config;
  config.budget = 6;
  config.query_interval = 3;
  config.num_pretend_users = 8;
  config.query_candidates = 50;
  config.refit_on_query = true;
  config.seed = 5;

  AttackEnvironment env(tw.world.dataset, tw.split.train, &mf, config);
  TargetAttack attack(tw.world.dataset, 0.7);
  attack.BeginTargetItem(tw.cold_target);
  env.Reset(tw.cold_target);
  util::Rng episode_rng(testhelpers::TestSeed(3));
  const double reward = attack.RunEpisode(env, episode_rng);
  EXPECT_GE(reward, 0.0);
  EXPECT_LE(reward, 1.0);
  EXPECT_TRUE(env.done());
}

}  // namespace
}  // namespace copyattack::core

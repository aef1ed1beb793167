// Shard-determinism tests of the campaign runner: outcomes are invariant
// to the shard and thread count — including under a fault schedule and
// across a kill-and-resume mid-campaign.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/copy_attack.h"
#include "core/parallel_runner.h"
#include "core/runner.h"
#include "fault/fault_injector.h"
#include "serve/attack_server.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::core {
namespace {

using testhelpers::ExpectResultsEqual;
using testhelpers::SharedTinyWorld;
using testhelpers::TinyWorld;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<data::ItemId> TestTargets(const TinyWorld& world,
                                      std::size_t count) {
  util::Rng rng(testhelpers::TestSeed(53));
  return data::SampleColdTargetItems(world.world.dataset, count, 10, rng);
}

StrategyFactory CopyAttackFactory(const TinyWorld& world) {
  return [&world](std::uint64_t seed) {
    return std::make_unique<CopyAttack>(
        &world.world.dataset, &world.artifacts.tree,
        &world.artifacts.mf.user_embeddings(),
        &world.artifacts.mf.item_embeddings(), CopyAttackConfig{}, seed);
  };
}

CampaignConfig SmallCampaign() {
  CampaignConfig config;
  config.env.budget = 5;
  config.env.num_pretend_users = 6;
  config.env.query_candidates = 20;
  config.episodes = 2;
  config.eval_users = 20;
  config.seed = testhelpers::TestSeed(59);
  return config;
}

ParallelCampaignResult RunShardedWith(
    const TinyWorld& world, const StrategyFactory& factory,
    const std::vector<data::ItemId>& targets, const CampaignConfig& config,
    const ParallelRunnerOptions& options) {
  const ParallelCampaignRunner runner(world.world.dataset,
                                      world.split.train,
                                      world.ModelFactory(), factory,
                                      options);
  return runner.Run(targets, config);
}

ParallelCampaignResult RunSharded(const TinyWorld& world,
                                  const std::vector<data::ItemId>& targets,
                                  const CampaignConfig& config,
                                  const ParallelRunnerOptions& options) {
  return RunShardedWith(world, CopyAttackFactory(world), targets, config,
                        options);
}

/// Resolves an attack-zoo method exactly as the CLI and server do, so the
/// determinism contract is tested on the real registration path.
StrategyFactory ZooFactory(const TinyWorld& world,
                           const std::string& method) {
  const serve::StrategySpec spec = serve::MakeStrategyFactory(
      world.world.dataset, world.artifacts, method);
  EXPECT_TRUE(spec.factory) << spec.error;
  return spec.factory;
}

TEST(ParallelRunner, OutcomesInvariantToShardCount) {
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 4);
  ASSERT_GE(targets.size(), 2U);
  const CampaignConfig config = SmallCampaign();

  ParallelRunnerOptions one;
  one.jobs = 1;
  one.shards = 1;
  ParallelRunnerOptions two;
  two.jobs = 2;
  two.shards = 2;
  ParallelRunnerOptions many;
  many.jobs = 2;
  many.shards = targets.size();

  const ParallelCampaignResult r1 = RunSharded(world, targets, config, one);
  const ParallelCampaignResult r2 = RunSharded(world, targets, config, two);
  const ParallelCampaignResult rn =
      RunSharded(world, targets, config, many);

  ExpectResultsEqual(r1, r2);
  ExpectResultsEqual(r1, rn);
  ASSERT_EQ(r2.shards.size(), 2U);
  EXPECT_NE(r2.shards[0].stream_seed, r2.shards[1].stream_seed);
  EXPECT_EQ(r2.shards[0].num_items + r2.shards[1].num_items,
            targets.size());
}

TEST(ParallelRunner, ShardInvarianceHoldsUnderFaultSchedule) {
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 3);
  ASSERT_GE(targets.size(), 2U);
  CampaignConfig config = SmallCampaign();
  config.env.fault =
      fault::FaultScheduleConfig::Light(testhelpers::TestSeed(61));
  config.env.resilience.enabled = true;
  config.env.resilience.seed = testhelpers::TestSeed(67);

  ParallelRunnerOptions one;
  one.jobs = 1;
  one.shards = 1;
  ParallelRunnerOptions many;
  many.jobs = 2;
  many.shards = targets.size();

  const ParallelCampaignResult r1 = RunSharded(world, targets, config, one);
  const ParallelCampaignResult rn =
      RunSharded(world, targets, config, many);
  ExpectResultsEqual(r1, rn);
}

TEST(ParallelRunner, CancelHookAbortsAtBoundaryAndResumeIsExact) {
  // Cooperative cancellation (ISSUE 10): the watchdog/drain hook stops
  // the run at an episode boundary — where the checkpoint is already
  // flushed — so cancel-then-resume obeys the exact same bit-identical
  // contract as crash-then-resume.
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 3);
  ASSERT_GE(targets.size(), 2U);
  const CampaignConfig config = SmallCampaign();
  const std::string dir = FreshDir("parallel_runner_cancel");

  ParallelRunnerOptions plain;
  plain.jobs = 1;
  const ParallelCampaignResult uninterrupted =
      RunSharded(world, targets, config, plain);

  ParallelRunnerOptions cancel = plain;
  cancel.checkpoint.dir = dir;
  auto polls = std::make_shared<std::size_t>(0);
  cancel.cancel = [polls] { return ++*polls > 4; };
  const ParallelCampaignResult canceled =
      RunSharded(world, targets, config, cancel);
  EXPECT_TRUE(canceled.aggregate.aborted);
  EXPECT_LT(canceled.aggregate.num_target_items, targets.size());

  ParallelRunnerOptions resume = plain;
  resume.checkpoint.dir = dir;
  resume.checkpoint.resume = true;
  const ParallelCampaignResult resumed =
      RunSharded(world, targets, config, resume);
  EXPECT_FALSE(resumed.aggregate.aborted);
  EXPECT_NE(resumed.aggregate.resumed_from, CheckpointSource::kNone);
  ExpectResultsEqual(uninterrupted, resumed);
}

TEST(ParallelRunner, NullCancelHookNeverAborts) {
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 2);
  ParallelRunnerOptions options;
  options.jobs = 1;
  EXPECT_FALSE(static_cast<bool>(options.cancel));  // default: never
  const ParallelCampaignResult result =
      RunSharded(world, targets, SmallCampaign(), options);
  EXPECT_FALSE(result.aggregate.aborted);
  EXPECT_EQ(result.aggregate.num_target_items, targets.size());
}

TEST(ParallelRunner, KillAndResumeMatchesUninterruptedRun) {
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 3);
  ASSERT_GE(targets.size(), 2U);
  const CampaignConfig config = SmallCampaign();
  const std::string dir = FreshDir("parallel_runner_resume");

  // Reference: straight through, no checkpointing.
  ParallelRunnerOptions plain;
  plain.jobs = 1;
  plain.shards = 2;
  const ParallelCampaignResult uninterrupted =
      RunSharded(world, targets, config, plain);

  // Crash after 3 episodes (jobs=1 makes the abort point deterministic),
  // then resume from the per-shard checkpoints.
  ParallelRunnerOptions crash = plain;
  crash.checkpoint.dir = dir;
  crash.checkpoint.abort_after_episodes = 3;
  const ParallelCampaignResult aborted =
      RunSharded(world, targets, config, crash);
  EXPECT_TRUE(aborted.aggregate.aborted);
  EXPECT_LT(aborted.aggregate.num_target_items, targets.size());

  ParallelRunnerOptions resume = plain;
  resume.checkpoint.dir = dir;
  resume.checkpoint.resume = true;
  const ParallelCampaignResult resumed =
      RunSharded(world, targets, config, resume);
  EXPECT_FALSE(resumed.aggregate.aborted);
  EXPECT_NE(resumed.aggregate.resumed_from, CheckpointSource::kNone);
  ExpectResultsEqual(uninterrupted, resumed);
}

// The attack-zoo strategies and the PolicyNetwork baseline, as the factory
// builds them, enter the same sharded-runner determinism contract as
// CopyAttack: outcomes invariant to the shard count, including under a
// fault schedule.
TEST(ParallelRunner, AttackZooShardInvarianceUnderFaultSchedule) {
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 3);
  ASSERT_GE(targets.size(), 2U);
  CampaignConfig config = SmallCampaign();
  config.env.fault =
      fault::FaultScheduleConfig::Light(testhelpers::TestSeed(61));
  config.env.resilience.enabled = true;
  config.env.resilience.seed = testhelpers::TestSeed(67);

  ParallelRunnerOptions one;
  one.jobs = 1;
  one.shards = 1;
  ParallelRunnerOptions many;
  many.jobs = 2;
  many.shards = targets.size();

  for (const std::string method :
       {"SurrogateTransfer", "Influence", "PolicyNetwork"}) {
    SCOPED_TRACE(method);
    const StrategyFactory factory = ZooFactory(world, method);
    const ParallelCampaignResult r1 =
        RunShardedWith(world, factory, targets, config, one);
    const ParallelCampaignResult rn =
        RunShardedWith(world, factory, targets, config, many);
    ExpectResultsEqual(r1, rn);
  }
}

// Kill-and-resume bit-equality for the zoo strategies and PolicyNetwork
// (whose blob is CopyAttack's over its one-level tree): the abort lands
// mid-target (episodes=2 per target, abort after 3), so the resumed run
// must rebuild each strategy via SaveState/LoadState and continue the
// exact trajectory — under an active fault schedule.
TEST(ParallelRunner, AttackZooKillAndResumeMatchesUninterruptedRun) {
  const TinyWorld& world = SharedTinyWorld();
  const auto targets = TestTargets(world, 3);
  ASSERT_GE(targets.size(), 2U);
  CampaignConfig config = SmallCampaign();
  config.env.fault =
      fault::FaultScheduleConfig::Light(testhelpers::TestSeed(61));
  config.env.resilience.enabled = true;
  config.env.resilience.seed = testhelpers::TestSeed(67);

  ParallelRunnerOptions plain;
  plain.jobs = 1;
  plain.shards = 2;

  for (const std::string method :
       {"SurrogateTransfer", "Influence", "PolicyNetwork"}) {
    SCOPED_TRACE(method);
    const StrategyFactory factory = ZooFactory(world, method);
    const std::string dir = FreshDir("zoo_resume_" + method);
    const ParallelCampaignResult uninterrupted =
        RunShardedWith(world, factory, targets, config, plain);

    ParallelRunnerOptions crash = plain;
    crash.checkpoint.dir = dir;
    crash.checkpoint.abort_after_episodes = 3;
    const ParallelCampaignResult aborted =
        RunShardedWith(world, factory, targets, config, crash);
    EXPECT_TRUE(aborted.aggregate.aborted);

    ParallelRunnerOptions resume = plain;
    resume.checkpoint.dir = dir;
    resume.checkpoint.resume = true;
    const ParallelCampaignResult resumed =
        RunShardedWith(world, factory, targets, config, resume);
    EXPECT_FALSE(resumed.aggregate.aborted);
    ExpectResultsEqual(uninterrupted, resumed);
  }
}

TEST(ParallelRunner, RejectsZeroJobs) {
  const TinyWorld& world = SharedTinyWorld();
  ParallelRunnerOptions options;
  options.jobs = 0;
  EXPECT_DEATH(
      {
        const ParallelCampaignRunner runner(
            world.world.dataset, world.split.train, world.ModelFactory(),
            CopyAttackFactory(world), options);
      },
      "jobs");
}

}  // namespace
}  // namespace copyattack::core

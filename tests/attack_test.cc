// Unit tests for the attack-zoo subsystem (ISSUE 8): the local surrogate
// model, the gradient-crafted SurrogateTransferAttack, and the analytic
// InfluenceAttack — including the SaveState/LoadState checkpoint contract
// the campaign runner's kill-and-resume path depends on.

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "attack/influence.h"
#include "attack/surrogate.h"
#include "attack/surrogate_transfer.h"
#include "core/environment.h"
#include "rec/pinsage_lite.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::attack {
namespace {

using testhelpers::SharedTinyWorld;
using testhelpers::TinyWorld;

core::EnvConfig SmallEnvConfig() {
  core::EnvConfig config;
  config.budget = 9;
  config.query_interval = 3;
  config.num_pretend_users = 10;
  config.reward_k = 20;
  config.query_candidates = 50;
  config.seed = 7;
  return config;
}

std::shared_ptr<const TargetSurrogate> SharedSurrogate() {
  static const auto surrogate = std::make_shared<const TargetSurrogate>(
      SharedTinyWorld().world.dataset.target);
  return surrogate;
}

/// The injected profiles of the current environment state: polluted rows
/// past the training users and the attacker's pretend accounts.
std::vector<data::Profile> HarvestInjected(const TinyWorld& tw,
                                           const core::AttackEnvironment& env) {
  const data::Dataset& polluted = env.black_box().polluted();
  const std::size_t base =
      tw.split.train.num_users() + env.pretend_users().size();
  std::vector<data::Profile> injected;
  for (data::UserId u = static_cast<data::UserId>(base);
       u < polluted.num_users(); ++u) {
    injected.push_back(polluted.UserProfile(u));
  }
  return injected;
}

TEST(TargetSurrogateTest, RetrainingIsDeterministic) {
  const auto& tw = SharedTinyWorld();
  const TargetSurrogate a(tw.world.dataset.target);
  const TargetSurrogate b(tw.world.dataset.target);
  ASSERT_EQ(a.num_items(), tw.world.dataset.target.num_items());
  ASSERT_EQ(a.mean_user_embedding().size(), a.embedding_dim());
  // Fixed training seed: two independently trained surrogates are
  // bit-identical, the property shard- and resume-invariance rest on.
  EXPECT_EQ(a.mean_user_embedding(), b.mean_user_embedding());
  const data::Profile probe = tw.world.dataset.target.UserProfile(0);
  EXPECT_EQ(a.FoldInProfile(probe), b.FoldInProfile(probe));
}

TEST(TargetSurrogateTest, FoldInAveragesItemEmbeddings) {
  const auto surrogate = SharedSurrogate();
  const data::ItemId item = 0;
  const auto folded = surrogate->FoldInProfile({item});
  ASSERT_EQ(folded.size(), surrogate->embedding_dim());
  const float* row = surrogate->item_embeddings().Row(item);
  for (std::size_t d = 0; d < folded.size(); ++d) {
    EXPECT_FLOAT_EQ(folded[d], row[d]);
  }
  // An empty profile folds to the origin, scoring 0 for every item.
  const auto empty = surrogate->FoldInProfile({});
  for (const float v : empty) EXPECT_EQ(v, 0.0f);
}

TEST(SurrogateTransferTest, EpisodeInjectsCraftedProfilesWithTarget) {
  const auto& tw = SharedTinyWorld();
  SurrogateTransferAttack strategy(&tw.world.dataset, SharedSurrogate(),
                                   testhelpers::TestSeed(1));
  strategy.BeginTargetItem(tw.cold_target);

  rec::PinSageLite model = tw.model;
  core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                              SmallEnvConfig());
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  strategy.RunEpisode(env, rng);
  EXPECT_TRUE(env.done());

  const auto injected = HarvestInjected(tw, env);
  ASSERT_EQ(injected.size(), SmallEnvConfig().budget);
  for (const data::Profile& profile : injected) {
    EXPECT_EQ(profile.size(), SurrogateTransferAttack::kProfileLength);
    EXPECT_NE(std::find(profile.begin(), profile.end(), tw.cold_target),
              profile.end());
    const std::set<data::ItemId> unique(profile.begin(), profile.end());
    EXPECT_EQ(unique.size(), profile.size());
  }
}

TEST(SurrogateTransferTest, StepScaleDecaysOnlyWhileLearning) {
  const auto& tw = SharedTinyWorld();
  SurrogateTransferAttack strategy(&tw.world.dataset, SharedSurrogate(),
                                   testhelpers::TestSeed(5));
  strategy.BeginTargetItem(tw.cold_target);
  EXPECT_EQ(strategy.step_scale(), 1.0);

  rec::PinSageLite model = tw.model;
  core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                              SmallEnvConfig());
  util::Rng rng(testhelpers::TestSeed(3));
  for (int e = 0; e < 4; ++e) {
    env.Reset(tw.cold_target);
    strategy.RunEpisode(env, rng);
  }
  const double after_learning = strategy.step_scale();
  EXPECT_GE(after_learning, SurrogateTransferAttack::kMinStepScale);
  EXPECT_LE(after_learning, 1.0);

  // Eval mode freezes the learned state entirely.
  strategy.SetEvalMode(true);
  env.Reset(tw.cold_target);
  strategy.RunEpisode(env, rng);
  EXPECT_EQ(strategy.step_scale(), after_learning);
}

TEST(SurrogateTransferTest, CheckpointRoundTripResumesExactTrajectory) {
  const auto& tw = SharedTinyWorld();
  SurrogateTransferAttack original(&tw.world.dataset, SharedSurrogate(),
                                   testhelpers::TestSeed(1));
  original.BeginTargetItem(tw.cold_target);
  {
    rec::PinSageLite model = tw.model;
    core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                                SmallEnvConfig());
    util::Rng rng(testhelpers::TestSeed(3));
    for (int e = 0; e < 2; ++e) {
      env.Reset(tw.cold_target);
      original.RunEpisode(env, rng);
    }
  }

  std::stringstream blob;
  ASSERT_TRUE(original.SaveState(blob));

  // A fresh strategy with a DIFFERENT seed must continue the exact
  // trajectory after LoadState: the ascent rng, step scale and best seed
  // user are all part of the checkpoint.
  SurrogateTransferAttack restored(&tw.world.dataset, SharedSurrogate(),
                                   testhelpers::TestSeed(999));
  restored.BeginTargetItem(tw.cold_target);
  ASSERT_TRUE(restored.LoadState(blob));
  EXPECT_EQ(restored.step_scale(), original.step_scale());

  rec::PinSageLite model_a = tw.model;
  rec::PinSageLite model_b = tw.model;
  core::AttackEnvironment env_a(tw.world.dataset, tw.split.train, &model_a,
                                SmallEnvConfig());
  core::AttackEnvironment env_b(tw.world.dataset, tw.split.train, &model_b,
                                SmallEnvConfig());
  util::Rng rng_a(testhelpers::TestSeed(55));
  util::Rng rng_b(testhelpers::TestSeed(55));
  for (int e = 0; e < 2; ++e) {
    env_a.Reset(tw.cold_target);
    env_b.Reset(tw.cold_target);
    const double ra = original.RunEpisode(env_a, rng_a);
    const double rb = restored.RunEpisode(env_b, rng_b);
    EXPECT_DOUBLE_EQ(ra, rb);
  }
  EXPECT_EQ(original.step_scale(), restored.step_scale());
}

TEST(InfluenceTest, RankingIsDeterministicOverSourceHolders) {
  const auto& tw = SharedTinyWorld();
  InfluenceAttack a(&tw.world.dataset, SharedSurrogate(),
                    testhelpers::TestSeed(1));
  InfluenceAttack b(&tw.world.dataset, SharedSurrogate(),
                    testhelpers::TestSeed(2));
  a.BeginTargetItem(tw.cold_target);
  b.BeginTargetItem(tw.cold_target);
  ASSERT_FALSE(a.ranked_candidates().empty());
  // The analytic pick is seed-independent.
  EXPECT_EQ(a.ranked_candidates(), b.ranked_candidates());

  const auto& holders = tw.world.dataset.SourceHolders(tw.cold_target);
  const std::set<data::UserId> holder_set(holders.begin(), holders.end());
  for (const data::UserId u : a.ranked_candidates()) {
    EXPECT_TRUE(holder_set.count(u)) << "candidate " << u
                                     << " is not a source holder";
  }
}

TEST(InfluenceTest, EpisodeInjectsClippedHolderProfiles) {
  const auto& tw = SharedTinyWorld();
  InfluenceAttack strategy(&tw.world.dataset, SharedSurrogate(),
                           testhelpers::TestSeed(1));
  strategy.BeginTargetItem(tw.cold_target);

  rec::PinSageLite model = tw.model;
  core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                              SmallEnvConfig());
  env.Reset(tw.cold_target);
  util::Rng rng(testhelpers::TestSeed(3));
  strategy.RunEpisode(env, rng);
  EXPECT_TRUE(env.done());

  const auto injected = HarvestInjected(tw, env);
  ASSERT_EQ(injected.size(), SmallEnvConfig().budget);
  for (const data::Profile& profile : injected) {
    EXPECT_NE(std::find(profile.begin(), profile.end(), tw.cold_target),
              profile.end());
  }
}

TEST(InfluenceTest, CheckpointRoundTripPreservesCursor) {
  const auto& tw = SharedTinyWorld();
  InfluenceAttack original(&tw.world.dataset, SharedSurrogate(),
                           testhelpers::TestSeed(1));
  original.BeginTargetItem(tw.cold_target);
  {
    rec::PinSageLite model = tw.model;
    core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                                SmallEnvConfig());
    util::Rng rng(testhelpers::TestSeed(3));
    for (int e = 0; e < 3; ++e) {
      env.Reset(tw.cold_target);
      original.RunEpisode(env, rng);
    }
  }

  std::stringstream blob;
  ASSERT_TRUE(original.SaveState(blob));

  InfluenceAttack restored(&tw.world.dataset, SharedSurrogate(),
                           testhelpers::TestSeed(999));
  restored.BeginTargetItem(tw.cold_target);
  ASSERT_TRUE(restored.LoadState(blob));
  EXPECT_EQ(restored.cursor(), original.cursor());

  rec::PinSageLite model_a = tw.model;
  rec::PinSageLite model_b = tw.model;
  core::AttackEnvironment env_a(tw.world.dataset, tw.split.train, &model_a,
                                SmallEnvConfig());
  core::AttackEnvironment env_b(tw.world.dataset, tw.split.train, &model_b,
                                SmallEnvConfig());
  util::Rng rng_a(testhelpers::TestSeed(55));
  util::Rng rng_b(testhelpers::TestSeed(55));
  env_a.Reset(tw.cold_target);
  env_b.Reset(tw.cold_target);
  EXPECT_DOUBLE_EQ(original.RunEpisode(env_a, rng_a),
                   restored.RunEpisode(env_b, rng_b));
  EXPECT_EQ(original.cursor(), restored.cursor());
}

TEST(InfluenceTest, LoadStateRejectsTruncatedBlob) {
  const auto& tw = SharedTinyWorld();
  InfluenceAttack strategy(&tw.world.dataset, SharedSurrogate(),
                           testhelpers::TestSeed(1));
  strategy.BeginTargetItem(tw.cold_target);
  std::stringstream truncated("abc");
  EXPECT_FALSE(strategy.LoadState(truncated));
}

}  // namespace
}  // namespace copyattack::attack

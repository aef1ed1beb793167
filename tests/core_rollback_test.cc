// Equivalence tests for the episode snapshot/rollback fast path: an
// AttackEnvironment reused across Reset/Step cycles must produce
// bit-identical rewards and promotion metrics to a freshly constructed
// environment replaying the same episode — for every target-model family.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/environment.h"
#include "rec/item_knn.h"
#include "rec/matrix_factorization.h"
#include "rec/pinsage_lite.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;

EnvConfig RollbackEnvConfig() {
  EnvConfig config;
  config.budget = 6;
  config.query_interval = 2;
  config.num_pretend_users = 10;
  config.reward_k = 20;
  config.query_candidates = 50;
  config.seed = 7;
  return config;
}

/// The fixed injection sequence of one episode for `target`.
std::vector<data::Profile> EpisodeProfiles(data::ItemId target) {
  const auto& tw = SharedTinyWorld();
  const auto& holders = tw.world.dataset.SourceHolders(target);
  std::vector<data::Profile> profiles;
  for (std::size_t i = 0; i < 6 && i < holders.size(); ++i) {
    profiles.push_back(tw.world.dataset.source.UserProfile(holders[i % holders.size()]));
  }
  while (profiles.size() < 6) {
    profiles.push_back(profiles.empty() ? data::Profile{0, 1, 2}
                                        : profiles.back());
  }
  return profiles;
}

/// Everything observable about one episode, captured bit-exactly.
struct EpisodeTrace {
  std::vector<double> step_rewards;
  double final_reward = 0.0;
  double hr20 = 0.0;
  double ndcg20 = 0.0;
  double hr10 = 0.0;
  double ndcg10 = 0.0;
};

EpisodeTrace PlayEpisode(AttackEnvironment& env, data::ItemId target) {
  env.Reset(target);
  EpisodeTrace trace;
  for (const data::Profile& profile : EpisodeProfiles(target)) {
    if (env.done()) break;
    const auto result = env.Step(data::Profile(profile));
    if (result.queried) trace.step_rewards.push_back(result.reward);
  }
  trace.final_reward = env.QueryReward();
  const auto metrics = env.EvaluateRealPromotion({20, 10}, 40, 40);
  trace.hr20 = metrics.at(20).hr;
  trace.ndcg20 = metrics.at(20).ndcg;
  trace.hr10 = metrics.at(10).hr;
  trace.ndcg10 = metrics.at(10).ndcg;
  return trace;
}

void ExpectIdentical(const EpisodeTrace& a, const EpisodeTrace& b) {
  ASSERT_EQ(a.step_rewards.size(), b.step_rewards.size());
  for (std::size_t i = 0; i < a.step_rewards.size(); ++i) {
    // EXPECT_EQ, not EXPECT_NEAR: rollback must be bit-identical.
    EXPECT_EQ(a.step_rewards[i], b.step_rewards[i]) << "step " << i;
  }
  EXPECT_EQ(a.final_reward, b.final_reward);
  EXPECT_EQ(a.hr20, b.hr20);
  EXPECT_EQ(a.ndcg20, b.ndcg20);
  EXPECT_EQ(a.hr10, b.hr10);
  EXPECT_EQ(a.ndcg10, b.ndcg10);
}

/// Runs `episodes` Reset/Step cycles on one long-lived environment and
/// checks each against a freshly constructed environment + model.
template <typename Model>
void CheckRollbackEquivalence(const Model& prototype, std::size_t episodes) {
  const auto& tw = SharedTinyWorld();
  const data::ItemId target = tw.cold_target;

  Model reused_model = prototype;
  AttackEnvironment reused_env(tw.world.dataset, tw.split.train,
                               &reused_model, RollbackEnvConfig());
  for (std::size_t episode = 0; episode < episodes; ++episode) {
    const EpisodeTrace reused = PlayEpisode(reused_env, target);

    Model fresh_model = prototype;
    AttackEnvironment fresh_env(tw.world.dataset, tw.split.train,
                                &fresh_model, RollbackEnvConfig());
    const EpisodeTrace fresh = PlayEpisode(fresh_env, target);
    ExpectIdentical(reused, fresh);
  }
  // The reused environment must actually have exercised the fast path
  // (first reset builds, later resets roll back).
  EXPECT_EQ(reused_env.fast_resets(), episodes - 1);
}

TEST(RollbackEquivalenceTest, PinSageEpisodesMatchFreshEnvironment) {
  CheckRollbackEquivalence(SharedTinyWorld().model, 4);
}

TEST(RollbackEquivalenceTest, MatrixFactorizationEpisodesMatchFresh) {
  rec::MatrixFactorization prototype;
  util::Rng rng(testhelpers::TestSeed(29));
  prototype.Fit(SharedTinyWorld().split.train, 6, rng);
  CheckRollbackEquivalence(prototype, 4);
}

TEST(RollbackEquivalenceTest, ItemKnnEpisodesMatchFresh) {
  rec::ItemKnn prototype;
  util::Rng rng(testhelpers::TestSeed(29));
  prototype.Fit(SharedTinyWorld().split.train, 1, rng);
  CheckRollbackEquivalence(prototype, 3);
}

TEST(RollbackEquivalenceTest, TargetSwitchRebuildsAndStaysConsistent) {
  // Alternating target items forces the slow path on every switch and the
  // fast path on repeats; both must keep matching fresh environments.
  const auto& tw = SharedTinyWorld();
  util::Rng rng(testhelpers::TestSeed(17));
  const auto targets = data::SampleColdTargetItems(tw.world.dataset, 2, 10, rng);
  ASSERT_GE(targets.size(), 2U);

  rec::PinSageLite reused_model = tw.model;
  AttackEnvironment reused_env(tw.world.dataset, tw.split.train,
                               &reused_model, RollbackEnvConfig());
  const data::ItemId sequence[] = {targets[0], targets[0], targets[1],
                                   targets[0], targets[1], targets[1]};
  for (const data::ItemId target : sequence) {
    const EpisodeTrace reused = PlayEpisode(reused_env, target);

    rec::PinSageLite fresh_model = tw.model;
    AttackEnvironment fresh_env(tw.world.dataset, tw.split.train,
                                &fresh_model, RollbackEnvConfig());
    const EpisodeTrace fresh = PlayEpisode(fresh_env, target);
    ExpectIdentical(reused, fresh);
  }
  // Reset 1 builds cold, resets 3-5 rebuild on a target switch; only the
  // two same-target repeats (resets 2 and 6) take the fast path.
  EXPECT_EQ(reused_env.fast_resets(), 2U);
}

TEST(RollbackEquivalenceTest, RefitOnQueryFallsBackToRebuild) {
  // With refit_on_query the model trains inside episodes, which must
  // invalidate serving checkpoints (the fast path would otherwise serve
  // stale embeddings). Behaviour matches the pre-rollback implementation:
  // the model keeps evolving across episodes, every reset rebuilds.
  const auto& tw = SharedTinyWorld();
  rec::MatrixFactorization model;
  util::Rng rng(testhelpers::TestSeed(29));
  model.Fit(tw.split.train, 6, rng);

  EnvConfig config = RollbackEnvConfig();
  config.refit_on_query = true;
  AttackEnvironment env(tw.world.dataset, tw.split.train, &model, config);
  for (int episode = 0; episode < 3; ++episode) {
    PlayEpisode(env, tw.cold_target);
  }
  EXPECT_EQ(env.fast_resets(), 0U);
}

}  // namespace
}  // namespace copyattack::core

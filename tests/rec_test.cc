#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "test_seed.h"

#include "data/split.h"
#include "data/synthetic.h"
#include "math/top_k.h"
#include "math/vector_ops.h"
#include "nn/activations.h"
#include "rec/black_box.h"
#include "rec/bpr_draws.h"
#include "rec/evaluator.h"
#include "rec/matrix_factorization.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"
#include "util/rng.h"

namespace copyattack::rec {
namespace {

/// Shared fixture: a tiny synthetic world with a train split.
class RecFixture : public ::testing::Test {
 protected:
  RecFixture()
      : world_(data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny())),
        rng_(testhelpers::TestSeed(11)),
        split_(data::SplitDataset(world_.dataset.target, rng_)) {}

  data::SyntheticWorld world_;
  util::Rng rng_;
  data::TrainValidTestSplit split_;
};

TEST(MfTest, TrainsAboveRandomRanking) {
  // MF learns free per-user embeddings, so it needs a somewhat larger
  // world than Tiny to beat random ranking with a clear margin.
  data::SyntheticConfig config = data::SyntheticConfig::Tiny();
  config.num_target_users = 400;
  config.num_items = 120;
  config.overlap_items = 80;
  config.num_source_users = 200;
  config.target_profile_min = 6;
  config.target_profile_max = 20;
  const auto world = data::GenerateSyntheticWorld(config);
  util::Rng split_rng(testhelpers::TestSeed(11));
  const auto split = data::SplitDataset(world.dataset.target, split_rng);

  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split.train, 30, rng);

  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluateHeldOut(mf, world.dataset.target, split.test,
                                       {10}, 50, eval_rng);
  // Random ranking over 51 candidates gives HR@10 ~= 10/51 ~= 0.196.
  EXPECT_GT(metrics.at(10).hr, 0.35)
      << "MF should beat random ranking by a clear margin";
}

TEST_F(RecFixture, PinSageTrainsAboveRandomRanking) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 25, rng);

  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics =
      EvaluateHeldOut(model, world_.dataset.target, split_.test, {10}, 50,
                      eval_rng);
  EXPECT_GT(metrics.at(10).hr, 0.30);
}

TEST_F(RecFixture, EarlyStoppingTrainerRuns) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  TrainOptions options;
  options.max_epochs = 30;
  options.patience = 3;
  const TrainReport report = TrainWithEarlyStopping(
      model, split_, world_.dataset.target, options, rng);
  EXPECT_GT(report.epochs_run, 0U);
  EXPECT_LE(report.epochs_run, 30U);
  EXPECT_GT(report.best_valid_hr, 0.0);
  EXPECT_GT(report.test_hr, 0.2);
}

// Early stopping ranks every epoch against negatives drawn once; the
// pre-drawn form must give exactly the drawing form's metrics and leave
// the rng at the same position.
TEST_F(RecFixture, PreDrawnNegativesMatchDrawingEvaluation) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 5, rng);
  util::Rng drawing_rng(testhelpers::TestSeed(5));
  util::Rng predrawn_rng(testhelpers::TestSeed(5));
  const MetricsByK drawing =
      EvaluateHeldOut(model, world_.dataset.target, split_.valid, {5, 10},
                      50, drawing_rng);
  const auto negatives = SampleHeldOutNegatives(
      world_.dataset.target, split_.valid, 50, predrawn_rng);
  const MetricsByK predrawn =
      EvaluateHeldOut(model, split_.valid, negatives, {5, 10});
  for (const std::size_t k : {std::size_t{5}, std::size_t{10}}) {
    EXPECT_EQ(predrawn.at(k).hr, drawing.at(k).hr);
    EXPECT_EQ(predrawn.at(k).ndcg, drawing.at(k).ndcg);
    EXPECT_EQ(predrawn.at(k).count, drawing.at(k).count);
  }
  EXPECT_EQ(predrawn_rng.NextUint64(), drawing_rng.NextUint64());
}

TEST_F(RecFixture, MfFoldInHandlesNewUsers) {
  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split_.train, 10, rng);

  data::Dataset polluted = split_.train;
  const data::UserId new_user = polluted.AddUser({0, 1, 2});
  mf.ObserveNewUser(polluted, new_user);
  // Score must be finite and computable for the folded user.
  const float score = mf.Score(new_user, 3);
  EXPECT_TRUE(std::isfinite(score));
}

TEST_F(RecFixture, PinSageInjectionShiftsItemRepresentation) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 15, rng);

  // Pick a cold overlapping item.
  data::ItemId cold = data::kNoItem;
  for (const data::ItemId item : world_.dataset.OverlapItems()) {
    if (split_.train.ItemPopularity(item) <= 2) {
      cold = item;
      break;
    }
  }
  ASSERT_NE(cold, data::kNoItem);

  std::vector<float> before;
  model.ItemRepresentation(cold, &before);

  data::Dataset polluted = split_.train;
  // Inject 5 users who pair the cold item with popular items.
  const auto popular = split_.train.ItemsByPopularity();
  for (int i = 0; i < 5; ++i) {
    data::Profile profile = {cold};
    for (int j = 0; j < 4; ++j) {
      const data::ItemId item = popular[i * 4 + j];
      if (item != cold) profile.push_back(item);
    }
    const data::UserId u = polluted.AddUser(profile);
    model.ObserveNewUser(polluted, u);
  }

  std::vector<float> after;
  model.ItemRepresentation(cold, &after);
  float diff = 0.0f;
  for (std::size_t d = 0; d < before.size(); ++d) {
    diff += std::abs(after[d] - before[d]);
  }
  EXPECT_GT(diff, 1e-4f)
      << "inductive model must react to injected profiles";
}

TEST_F(RecFixture, PinSageIncrementalMatchesRebuild) {
  PinSageLite incremental;
  util::Rng rng(testhelpers::TestSeed(3));
  incremental.Fit(split_.train, 10, rng);

  PinSageLite rebuilt = incremental;  // same trained parameters

  data::Dataset polluted = split_.train;
  util::Rng inject_rng(testhelpers::TestSeed(7));
  for (int i = 0; i < 3; ++i) {
    data::Profile profile;
    std::set<data::ItemId> seen;
    for (int j = 0; j < 5; ++j) {
      const data::ItemId item = static_cast<data::ItemId>(
          inject_rng.UniformUint64(polluted.num_items()));
      if (seen.insert(item).second) profile.push_back(item);
    }
    const data::UserId u = polluted.AddUser(profile);
    incremental.ObserveNewUser(polluted, u);
  }
  rebuilt.BeginServing(polluted);

  // Scores must agree between incremental updates and a full rebuild.
  for (data::UserId u = 0; u < 5; ++u) {
    for (data::ItemId i = 0; i < 10; ++i) {
      EXPECT_NEAR(incremental.Score(u, i), rebuilt.Score(u, i), 1e-4f);
    }
  }
}

// The cached per-item neighbour weights must track every change of the
// item user counts: after injections, serving checkpoints and rollbacks,
// every score equals a model rebuilt from scratch on the same data.
TEST_F(RecFixture, PinSageScoresAfterInjectAndRollbackMatchFreshServing) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 5, rng);
  const PinSageLite trained = model;

  data::Dataset current = split_.train;
  util::Rng inject_rng(testhelpers::TestSeed(7));
  // Profiles lean on a few items so counts of the same rows change
  // repeatedly across injections and rollbacks.
  const auto inject = [&](int users) {
    for (int i = 0; i < users; ++i) {
      data::Profile profile = {static_cast<data::ItemId>(i % 3)};
      std::set<data::ItemId> seen(profile.begin(), profile.end());
      for (int j = 0; j < 4; ++j) {
        const data::ItemId item = static_cast<data::ItemId>(
            inject_rng.UniformUint64(current.num_items()));
        if (seen.insert(item).second) profile.push_back(item);
      }
      model.ObserveNewUser(current, current.AddUser(profile));
    }
  };
  const auto expect_fresh_scores = [&](const char* stage) {
    PinSageLite fresh = trained;
    fresh.BeginServing(current);
    for (data::UserId u = 0; u < current.num_users(); ++u) {
      for (data::ItemId i = 0; i < current.num_items(); ++i) {
        const float got = model.Score(u, i);
        const float want = fresh.Score(u, i);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << stage << ": user " << u << " item " << i;
      }
    }
  };

  inject(2);
  expect_fresh_scores("inject");
  for (int round = 0; round < 3; ++round) {
    const data::Dataset at_checkpoint = current;
    ASSERT_TRUE(model.CheckpointServing());
    inject(3 + round);
    expect_fresh_scores("inject after checkpoint");
    ASSERT_TRUE(model.RollbackServing());
    current = at_checkpoint;
    expect_fresh_scores("rollback");
    inject(1);
    expect_fresh_scores("inject after rollback");
  }
}

// PinSageLite's row scorer must return exactly what Score returns, item
// by item, in every serving state the attack drives the model through.
TEST_F(RecFixture, PinSageRowScorerMatchesScoreBitForBit) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 5, rng);

  data::Dataset current = split_.train;
  util::Rng inject_rng(testhelpers::TestSeed(13));
  const auto inject = [&](int users) {
    for (int i = 0; i < users; ++i) {
      data::Profile profile = {static_cast<data::ItemId>(i % 3)};
      std::set<data::ItemId> seen(profile.begin(), profile.end());
      for (int j = 0; j < 4; ++j) {
        const data::ItemId item = static_cast<data::ItemId>(
            inject_rng.UniformUint64(current.num_items()));
        if (seen.insert(item).second) profile.push_back(item);
      }
      model.ObserveNewUser(current, current.AddUser(profile));
    }
  };
  // All items, in reverse so the row is not simply the item order.
  std::vector<data::ItemId> candidates(current.num_items());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] =
        static_cast<data::ItemId>(candidates.size() - 1 - i);
  }
  const auto expect_row_equals_score = [&](const char* stage) {
    std::vector<float> row(candidates.size());
    for (data::UserId u = 0; u < current.num_users(); ++u) {
      model.ScoreCandidatesInto(u, candidates, row.data());
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const float want = model.Score(u, candidates[c]);
        ASSERT_EQ(std::memcmp(&row[c], &want, sizeof(float)), 0)
            << stage << ": user " << u << " item " << candidates[c];
      }
    }
  };

  expect_row_equals_score("served");
  inject(2);
  expect_row_equals_score("inject");
  for (int round = 0; round < 3; ++round) {
    const data::Dataset at_checkpoint = current;
    ASSERT_TRUE(model.CheckpointServing());
    inject(3 + round);
    expect_row_equals_score("inject after checkpoint");
    ASSERT_TRUE(model.RollbackServing());
    current = at_checkpoint;
    expect_row_equals_score("rollback");
    inject(1);
    expect_row_equals_score("inject after rollback");
  }
}

TEST_F(RecFixture, SampleNegativesExcludesSeenAndHeldOut) {
  util::Rng rng(testhelpers::TestSeed(9));
  const data::UserId user = 0;
  const data::ItemId held = world_.dataset.target.UserProfile(user)[0];
  const auto negatives =
      SampleNegatives(world_.dataset.target, user, held, 20, rng);
  EXPECT_EQ(negatives.size(), 20U);
  std::set<data::ItemId> unique(negatives.begin(), negatives.end());
  EXPECT_EQ(unique.size(), 20U);
  for (const data::ItemId item : negatives) {
    EXPECT_NE(item, held);
    EXPECT_FALSE(world_.dataset.target.HasInteraction(user, item));
  }
}

TEST_F(RecFixture, EvaluatePromotionSkipsInteractedUsers) {
  MatrixFactorization mf;
  util::Rng rng(testhelpers::TestSeed(3));
  mf.Fit(split_.train, 5, rng);

  // Target = an item user 0 interacted with; evaluating only user 0 must
  // produce zero evaluation pairs.
  const data::ItemId item = world_.dataset.target.UserProfile(0)[0];
  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluatePromotion(
      mf, world_.dataset.target, item, {0}, {10}, 20, eval_rng);
  EXPECT_EQ(metrics.at(10).count, 0U);
}

TEST_F(RecFixture, BlackBoxCountsQueriesAndInjections) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 5, rng);

  data::Dataset polluted = split_.train;
  model.BeginServing(polluted);
  BlackBoxRecommender bb(&model, &polluted);

  EXPECT_EQ(bb.query_count(), 0U);
  bb.InjectUser({0, 1, 2});
  bb.InjectUser({3, 4});
  EXPECT_EQ(bb.injected_profiles(), 2U);
  EXPECT_EQ(bb.injected_interactions(), 5U);

  const auto top = bb.QueryTopK(0, {0, 1, 2, 3, 4, 5}, 3);
  EXPECT_EQ(top.size(), 3U);
  EXPECT_EQ(bb.query_count(), 1U);

  bb.ResetCounters();
  EXPECT_EQ(bb.query_count(), 0U);
  EXPECT_EQ(bb.injected_profiles(), 0U);
}

TEST_F(RecFixture, BlackBoxTopKOrderedByScore) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 10, rng);
  data::Dataset polluted = split_.train;
  model.BeginServing(polluted);
  BlackBoxRecommender bb(&model, &polluted);

  std::vector<data::ItemId> candidates;
  for (data::ItemId i = 0; i < 20; ++i) candidates.push_back(i);
  const auto top = bb.QueryTopK(1, candidates, 20);
  ASSERT_EQ(top.size(), 20U);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(model.Score(1, top[i - 1]), model.Score(1, top[i]));
  }
}

/// Scores on a four-level grid, so most candidate lists hold exact ties
/// between distinct items.
class TiedScoreModel final : public Recommender {
 public:
  void InitTraining(const data::Dataset&, util::Rng&) override {}
  void TrainEpoch(const data::Dataset&, util::Rng&) override {}
  void BeginServing(const data::Dataset&) override {}
  void ObserveNewUser(const data::Dataset&, data::UserId) override {}
  float Score(data::UserId user, data::ItemId item) const override {
    return static_cast<float>((user + item) % 4);
  }
  std::string name() const override { return "TiedScore"; }
};

// The oracle's answer is the reference ranking: the model's scores over
// the candidate list, fully argsorted with ties toward the lower position,
// cut to k and mapped to item ids. The tie-heavy model pins the tie order.
TEST_F(RecFixture, BlackBoxQueryMatchesSortedReference) {
  PinSageLite fitted;
  util::Rng fit_rng(testhelpers::TestSeed(3));
  fitted.Fit(split_.train, 5, fit_rng);
  TiedScoreModel tied;

  util::Rng rng(testhelpers::TestSeed(19));
  std::vector<data::UserId> users;
  std::vector<std::vector<data::ItemId>> candidates;
  for (data::UserId user = 0; user < 8; ++user) {
    users.push_back(user);
    std::vector<data::ItemId> list;
    for (const std::size_t item : rng.SampleWithoutReplacement(
             split_.train.num_items(), 12)) {
      list.push_back(static_cast<data::ItemId>(item));
    }
    candidates.push_back(std::move(list));
  }

  for (Recommender* model : {static_cast<Recommender*>(&fitted),
                             static_cast<Recommender*>(&tied)}) {
    data::Dataset polluted = split_.train;
    model->BeginServing(polluted);
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{12}, std::size_t{20}}) {
      SCOPED_TRACE(model->name() + " k=" + std::to_string(k));
      BlackBoxRecommender bb(model, &polluted);
      for (std::size_t i = 0; i < users.size(); ++i) {
        std::vector<data::ItemId> expected;
        for (const std::size_t index : math::TopKIndicesBySort(
                 model->ScoreCandidates(users[i], candidates[i]), k)) {
          expected.push_back(candidates[i][index]);
        }
        EXPECT_EQ(bb.QueryTopK(users[i], candidates[i], k), expected)
            << "user " << i;
      }
      EXPECT_EQ(bb.query_count(), users.size());
    }
  }
}

TEST_F(RecFixture, RecommenderDeterministicInSeed) {
  MatrixFactorization a, b;
  util::Rng rng_a(testhelpers::TestSeed(3)), rng_b(testhelpers::TestSeed(3));
  a.Fit(split_.train, 5, rng_a);
  b.Fit(split_.train, 5, rng_b);
  for (data::UserId u = 0; u < 3; ++u) {
    for (data::ItemId i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(a.Score(u, i), b.Score(u, i));
    }
  }
}

/// Parameterized sweep: both models' evaluator metrics are monotone in k
/// (HR@k1 <= HR@k2 for k1 <= k2) — an invariant of the ranking protocol.
class MetricsMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsMonotoneProperty, HrMonotoneInK) {
  const data::SyntheticWorld world =
      data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny());
  util::Rng rng(testhelpers::TestSeed(static_cast<std::uint64_t>(GetParam())));
  const auto split = data::SplitDataset(world.dataset.target, rng);
  MatrixFactorization mf;
  mf.Fit(split.train, 8, rng);
  util::Rng eval_rng(testhelpers::TestSeed(42));
  const auto metrics = EvaluateHeldOut(
      mf, world.dataset.target, split.test, {5, 10, 20}, 50, eval_rng);
  EXPECT_LE(metrics.at(5).hr, metrics.at(10).hr);
  EXPECT_LE(metrics.at(10).hr, metrics.at(20).hr);
  EXPECT_LE(metrics.at(5).ndcg, metrics.at(10).ndcg);
  EXPECT_LE(metrics.at(10).ndcg, metrics.at(20).ndcg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsMonotoneProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace copyattack::rec

namespace copyattack::rec {
namespace {

TEST_F(RecFixture, PinSagePopularityInterceptRanksColdItemsLow) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 12, rng);

  // Average score of the 5 most vs 5 least popular items across users:
  // the frozen intercept must give popular items a clear edge.
  const auto by_pop = split_.train.ItemsByPopularity();
  double popular_sum = 0.0, cold_sum = 0.0;
  for (data::UserId u = 0; u < 20; ++u) {
    for (int i = 0; i < 5; ++i) {
      popular_sum += model.Score(u, by_pop[i]);
      cold_sum += model.Score(u, by_pop[by_pop.size() - 1 - i]);
    }
  }
  EXPECT_GT(popular_sum, cold_sum);
}

TEST_F(RecFixture, PinSageInterceptFrozenUnderInjection) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 12, rng);

  // Pick a cold item and a neutral probe user; inject 10 users holding
  // only that item. With the intercept frozen, the score change must come
  // solely from the aggregation term (which these single-item profiles
  // leave bounded), not from an exploding popularity bias.
  const auto by_pop = split_.train.ItemsByPopularity();
  const data::ItemId cold = by_pop.back();
  data::Dataset polluted = split_.train;
  PinSageLite frozen_check = model;
  frozen_check.BeginServing(polluted);

  // Recreate the would-be intercept delta: log1p(10+n) vs log1p(n) is
  // large for a cold item, so if the intercept were live the score jump
  // would exceed the aggregation term's bound of (1 - alpha) * |p| * |z|.
  const float before = frozen_check.Score(0, cold);
  for (int i = 0; i < 10; ++i) {
    const data::UserId u = polluted.AddUser({cold});
    frozen_check.ObserveNewUser(polluted, u);
  }
  const float after = frozen_check.Score(0, cold);
  // The aggregation term is bounded by (1-alpha)*sqrt(count) with unit
  // user representations and |p| <= 1; allow that, but not the ~0.8*2.3
  // intercept jump a live bias would add on top.
  EXPECT_LT(std::abs(after - before), 2.0f);
}

TEST_F(RecFixture, PinSageCenteringMakesGenericProfilesWeak) {
  // A focused (single-cluster) injected profile should shift its items'
  // representations more than a long generic profile built from the most
  // popular items, because centering cancels the generic direction.
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.Fit(split_.train, 12, rng);

  const auto by_pop = split_.train.ItemsByPopularity();
  const data::ItemId cold = by_pop.back();

  auto shift_norm = [&](const data::Profile& extra) {
    PinSageLite clone = model;
    data::Dataset polluted = split_.train;
    clone.BeginServing(polluted);
    std::vector<float> before;
    clone.ItemRepresentation(cold, &before);
    data::Profile profile = {cold};
    for (const data::ItemId item : extra) {
      if (item != cold) profile.push_back(item);
    }
    const data::UserId u = polluted.AddUser(profile);
    clone.ObserveNewUser(polluted, u);
    std::vector<float> after;
    clone.ItemRepresentation(cold, &after);
    float diff = 0.0f;
    for (std::size_t d = 0; d < before.size(); ++d) {
      const float delta = after[d] - before[d];
      diff += delta * delta;
    }
    return std::sqrt(diff);
  };

  // Generic profile: the 20 most popular items (spans all clusters).
  data::Profile generic(by_pop.begin(), by_pop.begin() + 20);
  // Focused profile: a real source user's profile window (one session).
  const auto& holders = world_.dataset.SourceHolders(
      world_.dataset.OverlapItems().front());
  const double generic_shift = shift_norm(generic);
  const double focused_shift =
      holders.empty()
          ? generic_shift + 1.0
          : shift_norm(world_.dataset.source.UserProfile(holders[0]));
  // Both inject exactly one user; the shift magnitude is the per-user
  // unit direction divided by the neighborhood norm, so they are close —
  // but the *direction* of the generic one is near the centered-out mean.
  // We assert the focused shift is at least comparable (no collapse).
  EXPECT_GT(focused_shift, 0.25 * generic_shift);
}

TEST_F(RecFixture, PinSageMeanRecomputedAfterTrainEpoch) {
  PinSageLite model;
  util::Rng rng(testhelpers::TestSeed(3));
  model.InitTraining(split_.train, rng);
  model.TrainEpoch(split_.train, rng);
  model.BeginServing(split_.train);
  const float early = model.Score(0, 0);
  // Further training must change serving scores (mean + embeddings move).
  for (int e = 0; e < 5; ++e) model.TrainEpoch(split_.train, rng);
  model.BeginServing(split_.train);
  const float later = model.Score(0, 0);
  EXPECT_NE(early, later);
}

}  // namespace
}  // namespace copyattack::rec

#include "rec/item_knn.h"

namespace copyattack::rec {
namespace {

TEST_F(RecFixture, ItemKnnBuildsSimilarityLists) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  // Some item must have neighbors, ordered by descending similarity.
  bool any = false;
  for (data::ItemId item = 0; item < split_.train.num_items(); ++item) {
    const auto& neighbors = knn.Neighbors(item);
    for (std::size_t i = 1; i < neighbors.size(); ++i) {
      EXPECT_GE(neighbors[i - 1].second, neighbors[i].second);
    }
    any = any || !neighbors.empty();
  }
  EXPECT_TRUE(any);
}

TEST_F(RecFixture, ItemKnnRanksAboveRandom) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  util::Rng eval_rng(testhelpers::TestSeed(5));
  const auto metrics = EvaluateHeldOut(knn, world_.dataset.target,
                                       split_.test, {10}, 50, eval_rng);
  EXPECT_GT(metrics.at(10).hr, 0.28);
}

TEST_F(RecFixture, ItemKnnSimilarityListsAreFrozenUnderInjection) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  const auto before = knn.Neighbors(0);
  data::Dataset polluted = split_.train;
  const data::UserId u = polluted.AddUser({0, 1, 2});
  knn.ObserveNewUser(polluted, u);
  EXPECT_EQ(knn.Neighbors(0), before)
      << "ItemKNN has no inductive channel: lists change only on retrain";
}

TEST_F(RecFixture, ItemKnnRetrainIngestsInjectedCooccurrence) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);

  // Choose two items that never co-occur; inject users pairing them, then
  // retrain: each must appear in the other's neighbor list.
  data::ItemId a = data::kNoItem, b = data::kNoItem;
  for (data::ItemId i = 0; i < split_.train.num_items() && a == data::kNoItem;
       ++i) {
    for (data::ItemId j = i + 1; j < split_.train.num_items(); ++j) {
      bool cooccur = false;
      for (const auto& [n, s] : knn.Neighbors(i)) {
        (void)s;
        cooccur = cooccur || n == j;
      }
      if (!cooccur && !split_.train.ItemProfile(i).empty() &&
          !split_.train.ItemProfile(j).empty()) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_NE(a, data::kNoItem);

  data::Dataset polluted = split_.train;
  for (int k = 0; k < 10; ++k) {
    polluted.AddUser({a, b});
  }
  util::Rng retrain_rng(testhelpers::TestSeed(5));
  knn.TrainEpoch(polluted, retrain_rng);
  bool found = false;
  for (const auto& [n, s] : knn.Neighbors(a)) {
    (void)s;
    found = found || n == b;
  }
  EXPECT_TRUE(found) << "retraining must ingest injected co-occurrences";
}

TEST_F(RecFixture, ItemKnnScoreReflectsProfileOverlap) {
  ItemKnn knn;
  util::Rng rng(testhelpers::TestSeed(3));
  knn.Fit(split_.train, 1, rng);
  // A user scores an item they co-consumed neighbors of higher than a
  // random user with an empty intersection — weak but monotone sanity:
  // scores are non-negative and zero for isolated items.
  data::ItemId isolated = data::kNoItem;
  for (data::ItemId i = 0; i < split_.train.num_items(); ++i) {
    if (knn.Neighbors(i).empty()) {
      isolated = i;
      break;
    }
  }
  if (isolated != data::kNoItem) {
    EXPECT_FLOAT_EQ(knn.Score(0, isolated), 0.0f);
  }
  for (data::ItemId i = 0; i < 10; ++i) {
    EXPECT_GE(knn.Score(0, i), 0.0f);
  }
}

}  // namespace
}  // namespace copyattack::rec

// --- BPR draws on a producer thread ----------------------------------------

namespace copyattack::rec {
namespace {

using testhelpers::TestSeed;

/// The sequential BPR draw loop both trainers ran before `ForEachBprTriple`
/// moved it onto a producer thread: the reference stream. Counts the two
/// kinds of skipped step so a test can show it exercised both.
struct ReferenceDraws {
  std::vector<BprTriple> triples;
  std::size_t empty_skips = 0;
  std::size_t rejection_skips = 0;
};

ReferenceDraws SequentialDraws(const data::Dataset& train, util::Rng& rng) {
  ReferenceDraws draws;
  const std::size_t steps = train.num_interactions();
  for (std::size_t s = 0; s < steps; ++s) {
    const data::UserId u = static_cast<data::UserId>(
        rng.UniformUint64(train.num_users()));
    const data::Profile& profile = train.UserProfile(u);
    if (profile.empty()) {
      ++draws.empty_skips;
      continue;
    }
    const data::ItemId pos = profile[rng.UniformUint64(profile.size())];
    data::ItemId neg = pos;
    for (std::size_t attempt = 0; attempt < 32; ++attempt) {
      const data::ItemId candidate = static_cast<data::ItemId>(
          rng.UniformUint64(train.num_items()));
      if (!train.HasInteraction(u, candidate)) {
        neg = candidate;
        break;
      }
    }
    if (neg == pos) {
      ++draws.rejection_skips;
      continue;
    }
    draws.triples.push_back({u, pos, neg});
  }
  return draws;
}

std::vector<BprTriple> HelperDraws(const data::Dataset& train,
                                   util::Rng& rng) {
  std::vector<BprTriple> triples;
  ForEachBprTriple(train, rng,
                   [&triples](const BprTriple& t) { triples.push_back(t); });
  return triples;
}

void ExpectSameRngState(const util::Rng& actual, const util::Rng& expected) {
  const util::RngState a = actual.SaveState();
  const util::RngState b = expected.SaveState();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.words[i], b.words[i]);
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
  EXPECT_EQ(a.cached_normal, b.cached_normal);
}

void ExpectSameTriples(const std::vector<BprTriple>& actual,
                       const std::vector<BprTriple>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i].user == expected[i].user &&
                actual[i].pos == expected[i].pos &&
                actual[i].neg == expected[i].neg)
        << "triples diverge at " << i;
  }
}

/// Runs the helper and the reference loop from one seed and returns the
/// reference, after checking that the streams and final states agree.
ReferenceDraws ExpectSameStream(const data::Dataset& train,
                                std::uint64_t seed) {
  util::Rng reference_rng(seed);
  ReferenceDraws reference = SequentialDraws(train, reference_rng);
  util::Rng rng(seed);
  ExpectSameTriples(HelperDraws(train, rng), reference.triples);
  ExpectSameRngState(rng, reference_rng);
  return reference;
}

constexpr std::size_t kBprWorldItems = 200;

/// About 30,000 interactions, several ring-fulls of triples, plus a user
/// with an empty profile and a user who holds every item (whose steps
/// fail all 32 rejection draws).
data::Dataset BprWorld() {
  data::Dataset dataset =
      testhelpers::RandomProfiles(600, kBprWorldItems, 50, TestSeed(91));
  dataset.AddUser({});
  data::Profile every_item(kBprWorldItems);
  for (std::size_t i = 0; i < kBprWorldItems; ++i) {
    every_item[i] = static_cast<data::ItemId>(i);
  }
  dataset.AddUser(std::move(every_item));
  return dataset;
}

TEST(BprDrawsTest, MatchesSequentialLoopOverSeveralRingFulls) {
  const data::Dataset train = BprWorld();
  const ReferenceDraws reference = ExpectSameStream(train, TestSeed(93));
  EXPECT_GT(reference.triples.size(), 3 * kBprRingBlocks * kBprBlockTriples);
  EXPECT_GT(reference.empty_skips, 0U);
  EXPECT_GT(reference.rejection_skips, 0U);
}

TEST(BprDrawsTest, KeptCountAnExactMultipleOfTheBlock) {
  // One item of 1,024 per user: every step keeps its triple (32 failed
  // rejection draws have probability 1024^-32), so the last full block is
  // followed by an empty final one.
  const std::size_t users = (kBprRingBlocks + 2) * kBprBlockTriples;
  const data::Dataset train =
      testhelpers::RandomProfiles(users, 1024, 1, TestSeed(97));
  const ReferenceDraws reference = ExpectSameStream(train, TestSeed(99));
  ASSERT_EQ(reference.triples.size(), users);
  EXPECT_EQ(reference.triples.size() % kBprBlockTriples, 0U);
}

TEST(BprDrawsTest, NoInteractionsDrawsNothing) {
  data::Dataset no_users(10);
  data::Dataset empty_users(10);
  for (int u = 0; u < 3; ++u) empty_users.AddUser({});
  for (const data::Dataset* train : {&no_users, &empty_users}) {
    const ReferenceDraws reference =
        ExpectSameStream(*train, TestSeed(101));
    EXPECT_TRUE(reference.triples.empty());
    util::Rng rng(TestSeed(101));
    HelperDraws(*train, rng);
    ExpectSameRngState(rng, util::Rng(TestSeed(101)));
  }
}

TEST(BprDrawsTest, ThrowingApplyStillFinishesTheEpoch) {
  const data::Dataset train = BprWorld();
  util::Rng reference_rng(TestSeed(103));
  const ReferenceDraws reference = SequentialDraws(train, reference_rng);
  const std::size_t stop = kBprBlockTriples + kBprBlockTriples / 2;
  std::vector<BprTriple> applied;
  util::Rng rng(TestSeed(103));
  EXPECT_THROW(ForEachBprTriple(train, rng,
                                [&applied, stop](const BprTriple& t) {
                                  if (applied.size() == stop) {
                                    throw std::runtime_error("stop");
                                  }
                                  applied.push_back(t);
                                }),
               std::runtime_error);
  ExpectSameTriples(applied, std::vector<BprTriple>(
                                 reference.triples.begin(),
                                 reference.triples.begin() + stop));
  ExpectSameRngState(rng, reference_rng);
}

TEST(BprDrawsTest, MfEpochsMatchSequentialTraining) {
  const data::Dataset train = BprWorld();
  const std::size_t dim = MfConfig{}.embedding_dim;
  MatrixFactorization mf;
  util::Rng rng(TestSeed(105));
  mf.InitTraining(train, rng);
  for (int epoch = 0; epoch < 3; ++epoch) mf.TrainEpoch(train, rng);

  // MatrixFactorization's InitTraining and its sequential TrainEpoch.
  util::Rng ref_rng(TestSeed(105));
  math::Matrix users(train.num_users(), dim);
  math::Matrix items(train.num_items(), dim);
  users.FillNormal(ref_rng, 0.0f, MatrixFactorization::kInitStddev);
  items.FillNormal(ref_rng, 0.0f, MatrixFactorization::kInitStddev);
  const float lr = MatrixFactorization::kLearningRate;
  const float reg = MatrixFactorization::kRegularization;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::size_t steps = train.num_interactions();
    for (std::size_t s = 0; s < steps; ++s) {
      const data::UserId u = static_cast<data::UserId>(
          ref_rng.UniformUint64(train.num_users()));
      const data::Profile& profile = train.UserProfile(u);
      if (profile.empty()) continue;
      const data::ItemId pos =
          profile[ref_rng.UniformUint64(profile.size())];
      data::ItemId neg = pos;
      for (std::size_t attempt = 0; attempt < 32; ++attempt) {
        const data::ItemId candidate = static_cast<data::ItemId>(
            ref_rng.UniformUint64(train.num_items()));
        if (!train.HasInteraction(u, candidate)) {
          neg = candidate;
          break;
        }
      }
      if (neg == pos) continue;

      float* pu = users.Row(u);
      float* qi = items.Row(pos);
      float* qj = items.Row(neg);
      const float x = math::Dot(pu, qi, dim) - math::Dot(pu, qj, dim);
      const float sigma = nn::Sigmoid(-x);
      for (std::size_t d = 0; d < dim; ++d) {
        const float pu_d = pu[d];
        const float qi_d = qi[d];
        const float qj_d = qj[d];
        pu[d] += lr * (sigma * (qi_d - qj_d) - reg * pu_d);
        qi[d] += lr * (sigma * pu_d - reg * qi_d);
        qj[d] += lr * (-sigma * pu_d - reg * qj_d);
      }
    }
  }

  ASSERT_EQ(mf.user_embeddings().size(), users.size());
  ASSERT_EQ(mf.item_embeddings().size(), items.size());
  EXPECT_EQ(std::memcmp(mf.user_embeddings().data(), users.data(),
                        users.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(mf.item_embeddings().data(), items.data(),
                        items.size() * sizeof(float)),
            0);
  ExpectSameRngState(rng, ref_rng);
}

TEST(BprDrawsTest, PinSageEpochsMatchSequentialTraining) {
  const data::Dataset train = BprWorld();
  const std::size_t dim = PinSageLite::kEmbeddingDim;
  PinSageLite model;
  util::Rng rng(TestSeed(107));
  model.InitTraining(train, rng);
  for (int epoch = 0; epoch < 3; ++epoch) model.TrainEpoch(train, rng);

  // PinSageLite's InitTraining draws and its sequential TrainEpoch.
  util::Rng ref_rng(TestSeed(107));
  math::Matrix items(train.num_items(), dim);
  items.FillNormal(ref_rng, 0.0f, PinSageLite::kInitStddev);
  const float lr = PinSageLite::kLearningRate;
  const float reg = PinSageLite::kRegularization;
  std::vector<float> user_rep(dim);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::size_t steps = train.num_interactions();
    for (std::size_t s = 0; s < steps; ++s) {
      const data::UserId u = static_cast<data::UserId>(
          ref_rng.UniformUint64(train.num_users()));
      const data::Profile& profile = train.UserProfile(u);
      if (profile.empty()) continue;
      const data::ItemId pos =
          profile[ref_rng.UniformUint64(profile.size())];
      data::ItemId neg = pos;
      for (std::size_t attempt = 0; attempt < 32; ++attempt) {
        const data::ItemId candidate = static_cast<data::ItemId>(
            ref_rng.UniformUint64(train.num_items()));
        if (!train.HasInteraction(u, candidate)) {
          neg = candidate;
          break;
        }
      }
      if (neg == pos) continue;

      for (std::size_t d = 0; d < dim; ++d) user_rep[d] = 0.0f;
      std::size_t contributors = 0;
      for (const data::ItemId item : profile) {
        if (item == pos) continue;
        math::Axpy(1.0f, items.Row(item), user_rep.data(), dim);
        ++contributors;
      }
      if (contributors == 0) continue;
      const float inv = 1.0f / static_cast<float>(contributors);
      for (std::size_t d = 0; d < dim; ++d) user_rep[d] *= inv;

      float* qi = items.Row(pos);
      float* qj = items.Row(neg);
      const float x = math::Dot(user_rep.data(), qi, dim) -
                      math::Dot(user_rep.data(), qj, dim);
      const float sigma = nn::Sigmoid(-x);
      for (std::size_t d = 0; d < dim; ++d) {
        const float xu_d = user_rep[d];
        qi[d] += lr * (sigma * xu_d - reg * qi[d]);
        qj[d] += lr * (-sigma * xu_d - reg * qj[d]);
      }
    }
  }

  ASSERT_EQ(model.item_embeddings().size(), items.size());
  EXPECT_EQ(std::memcmp(model.item_embeddings().data(), items.data(),
                        items.size() * sizeof(float)),
            0);
  ExpectSameRngState(rng, ref_rng);
}

}  // namespace
}  // namespace copyattack::rec

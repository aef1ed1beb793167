// The set-up step (core::TrainTargetModel / core::PrepareWorld) against
// the hand-written sequences it replaced: a split, a fixed-epoch `Fit` of
// the target model, and `PrepareSourceArtifacts`. Both must be bit-exact,
// so every caller that moved onto the set-up keeps its outcomes.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "data/split.h"
#include "rec/pinsage_lite.h"
#include "rec/trainer.h"
#include "test_helpers.h"
#include "test_seed.h"
#include "util/rng.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;
using testhelpers::TestSeed;
using testhelpers::TinyWorld;

/// Every score of `model` over the users of `train` and all items.
std::vector<float> AllScores(const rec::Recommender& model,
                             const data::Dataset& train) {
  std::vector<float> scores;
  for (data::UserId u = 0; u < train.num_users(); ++u) {
    for (data::ItemId i = 0; i < train.num_items(); ++i) {
      scores.push_back(model.Score(u, i));
    }
  }
  return scores;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const math::Matrix& a, const math::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(float)) == 0;
}

void ExpectSameRngState(const util::RngState& a, const util::RngState& b) {
  for (int w = 0; w < 4; ++w) EXPECT_EQ(a.words[w], b.words[w]) << w;
  EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
  EXPECT_EQ(a.cached_normal, b.cached_normal);
}

void ExpectSameSplit(const data::TrainValidTestSplit& a,
                     const data::TrainValidTestSplit& b) {
  ASSERT_EQ(a.train.num_users(), b.train.num_users());
  for (data::UserId u = 0; u < a.train.num_users(); ++u) {
    EXPECT_EQ(a.train.UserProfile(u), b.train.UserProfile(u)) << u;
  }
  const auto same_pairs = [](const std::vector<data::HeldOut>& x,
                             const std::vector<data::HeldOut>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].user, y[i].user) << i;
      EXPECT_EQ(x[i].item, y[i].item) << i;
    }
  };
  same_pairs(a.valid, b.valid);
  same_pairs(a.test, b.test);
}

// With max_epochs = patience = N the early-stopping loop can only stop
// after epoch N, and its validation passes only read the model, so it
// trains exactly what `Fit(N)` trains and leaves the rng where Fit does.
TEST(PrepareWorldTest, EqualPatienceEarlyStoppingMatchesFit) {
  const data::Dataset& target = SharedTinyWorld().world.dataset.target;
  for (const std::size_t epochs : {3UL, 12UL}) {
    util::Rng split_rng(TestSeed(23));
    const data::TrainValidTestSplit split =
        data::SplitDataset(target, split_rng);
    rec::PinSageLite fitted;
    util::Rng fit_rng(TestSeed(29));
    fitted.Fit(split.train, epochs, fit_rng);

    rec::TrainOptions train;
    train.max_epochs = epochs;
    train.patience = epochs;
    rec::PinSageLite early;
    util::Rng early_rng(TestSeed(29));
    const rec::TrainReport report =
        rec::TrainWithEarlyStopping(early, split, target, train, early_rng);
    EXPECT_EQ(report.epochs_run, epochs);
    ExpectSameRngState(early_rng.SaveState(), fit_rng.SaveState());

    TargetModelOptions options;
    options.split_seed = TestSeed(23);
    options.train_seed = TestSeed(29);
    options.train = train;
    const TargetModel trained = TrainTargetModel(target, options);
    ExpectSameSplit(trained.split, split);
    EXPECT_EQ(trained.report.epochs_run, epochs);

    const std::vector<float> expected = AllScores(fitted, split.train);
    EXPECT_TRUE(SameBits(AllScores(early, split.train), expected)) << epochs;
    EXPECT_TRUE(SameBits(AllScores(trained.model, split.train), expected))
        << epochs;
    EXPECT_TRUE(SameBits(AllScores(*trained.Factory()(), split.train),
                         expected))
        << epochs;
  }
}

// The shared TinyWorld is built by PrepareWorld; this is the sequence it
// was written out as before, and both must agree bit for bit.
TEST(PrepareWorldTest, TinyWorldMatchesHandWrittenSetUp) {
  const TinyWorld& tw = SharedTinyWorld();
  const data::CrossDomainDataset& dataset = tw.world.dataset;

  util::Rng split_rng(TestSeed(23));
  const data::TrainValidTestSplit split =
      data::SplitDataset(dataset.target, split_rng);
  rec::PinSageLite model;
  util::Rng fit_rng(TestSeed(29));
  model.Fit(split.train, 12, fit_rng);
  SourceArtifactOptions artifact_options;
  artifact_options.mf_epochs = 8;
  artifact_options.tree_depth = 3;
  const SourceArtifacts artifacts =
      PrepareSourceArtifacts(dataset, artifact_options);

  ExpectSameSplit(tw.prepared.target.split, split);
  EXPECT_EQ(tw.prepared.target.report.epochs_run, 12U);
  EXPECT_TRUE(SameBits(AllScores(tw.model, split.train),
                       AllScores(model, split.train)));
  EXPECT_TRUE(SameBits(tw.artifacts.mf.user_embeddings(),
                       artifacts.mf.user_embeddings()));
  EXPECT_TRUE(SameBits(tw.artifacts.mf.item_embeddings(),
                       artifacts.mf.item_embeddings()));
  EXPECT_EQ(tw.artifacts.tree.num_nodes(), artifacts.tree.num_nodes());
  EXPECT_EQ(tw.artifacts.tree.depth(), artifacts.tree.depth());
}

}  // namespace
}  // namespace copyattack::core

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "test_seed.h"

#include "data/cross_domain.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/split.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "rec/evaluator.h"
#include "rec/matrix_factorization.h"
#include "util/rng.h"

namespace copyattack::data {
namespace {

TEST(DatasetTest, AddUserBuildsBothProfiles) {
  Dataset d(10);
  const UserId u0 = d.AddUser({1, 3, 5});
  const UserId u1 = d.AddUser({3, 2});
  EXPECT_EQ(u0, 0U);
  EXPECT_EQ(u1, 1U);
  EXPECT_EQ(d.num_users(), 2U);
  EXPECT_EQ(d.num_interactions(), 5U);
  EXPECT_EQ(d.UserProfile(u0), (Profile{1, 3, 5}));
  EXPECT_EQ(d.ItemProfile(3), (std::vector<UserId>{0, 1}));
  EXPECT_EQ(d.ItemPopularity(1), 1U);
  EXPECT_EQ(d.ItemPopularity(9), 0U);
}

TEST(DatasetTest, HasInteraction) {
  Dataset d(5);
  d.AddUser({0, 4});
  EXPECT_TRUE(d.HasInteraction(0, 0));
  EXPECT_TRUE(d.HasInteraction(0, 4));
  EXPECT_FALSE(d.HasInteraction(0, 2));
}

TEST(DatasetTest, AppendInteraction) {
  Dataset d(5);
  d.AddUser({1});
  d.AppendInteraction(0, 3);
  EXPECT_EQ(d.UserProfile(0), (Profile{1, 3}));
  EXPECT_TRUE(d.HasInteraction(0, 3));
  EXPECT_EQ(d.num_interactions(), 2U);
  EXPECT_EQ(d.ItemProfile(3), (std::vector<UserId>{0}));
}

TEST(DatasetTest, RollbackRemovesAppendedUsers) {
  Dataset d(6);
  d.AddUser({1, 3});
  d.AddUser({3, 2});
  const DatasetCheckpoint checkpoint = d.Checkpoint();

  d.AddUser({0, 3, 5});
  d.AddUser({2});
  EXPECT_EQ(d.num_users(), 4U);
  EXPECT_EQ(d.ItemProfile(3), (std::vector<UserId>{0, 1, 2}));

  d.RollbackTo(checkpoint);
  EXPECT_EQ(d.num_users(), 2U);
  EXPECT_EQ(d.num_interactions(), 4U);
  EXPECT_EQ(d.UserProfile(0), (Profile{1, 3}));
  EXPECT_EQ(d.UserProfile(1), (Profile{3, 2}));
  EXPECT_EQ(d.ItemProfile(3), (std::vector<UserId>{0, 1}));
  EXPECT_EQ(d.ItemPopularity(5), 0U);
  EXPECT_EQ(d.ItemPopularity(0), 0U);
}

TEST(DatasetDeathTest, AppendAfterCheckpointAborts) {
  // Rollback removes whole users; it cannot undo an interaction appended to
  // a user that predates the checkpoint, so such an append is fatal.
  Dataset d(6);
  d.AddUser({1});
  d.AppendInteraction(0, 3);  // building the dataset: allowed
  d.Checkpoint();
  EXPECT_DEATH(d.AppendInteraction(0, 4),
               "AppendInteraction after a Checkpoint");
}

TEST(DatasetTest, CheckpointsNestAndRepeat) {
  Dataset d(4);
  d.AddUser({0});
  const DatasetCheckpoint base = d.Checkpoint();
  d.AddUser({1, 2});
  const DatasetCheckpoint inner = d.Checkpoint();

  // Repeated episode loop against the inner checkpoint.
  for (int episode = 0; episode < 3; ++episode) {
    d.AddUser({2, 3});
    d.RollbackTo(inner);
    EXPECT_EQ(d.num_users(), 2U);
    EXPECT_EQ(d.ItemProfile(2), (std::vector<UserId>{1}));
    EXPECT_EQ(d.UserProfile(0), (Profile{0}));
  }

  // Rolling back further to the outer checkpoint still works.
  d.RollbackTo(base);
  EXPECT_EQ(d.num_users(), 1U);
  EXPECT_EQ(d.num_interactions(), 1U);
  EXPECT_EQ(d.ItemPopularity(1), 0U);
}

TEST(DatasetTest, RollbackMatchesFreshCopyOnSyntheticData) {
  // Property: checkpoint -> mutate -> rollback leaves the dataset
  // indistinguishable from an untouched copy, across every accessor.
  const auto world = GenerateSyntheticWorld(SyntheticConfig::Tiny());
  Dataset d = world.dataset.target;
  const Dataset reference = d;
  const DatasetCheckpoint checkpoint = d.Checkpoint();

  util::Rng rng(testhelpers::TestSeed(99));
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      const ItemId a = static_cast<ItemId>(rng.UniformUint64(d.num_items()));
      ItemId b = static_cast<ItemId>(rng.UniformUint64(d.num_items()));
      if (b == a) b = (b + 1) % static_cast<ItemId>(d.num_items());
      d.AddUser({a, b});
    }
    d.RollbackTo(checkpoint);
  }

  ASSERT_EQ(d.num_users(), reference.num_users());
  ASSERT_EQ(d.num_interactions(), reference.num_interactions());
  for (UserId u = 0; u < reference.num_users(); ++u) {
    ASSERT_EQ(d.UserProfile(u), reference.UserProfile(u)) << "user " << u;
  }
  for (ItemId i = 0; i < reference.num_items(); ++i) {
    ASSERT_EQ(d.ItemProfile(i), reference.ItemProfile(i)) << "item " << i;
  }
  EXPECT_EQ(d.ItemsByPopularity(), reference.ItemsByPopularity());
}

TEST(DatasetDeathTest, RollbackWithoutCheckpointAborts) {
  Dataset d(3);
  d.AddUser({0});
  DatasetCheckpoint bogus;
  bogus.item_profile_sizes.assign(3, 0);
  EXPECT_DEATH(d.RollbackTo(bogus), "CHECK failed");
}

TEST(DatasetTest, AllInteractionsOrdering) {
  Dataset d(5);
  d.AddUser({2, 0});
  d.AddUser({1});
  const auto all = d.AllInteractions();
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all[0], (Interaction{0, 2, 0}));
  EXPECT_EQ(all[1], (Interaction{0, 0, 1}));
  EXPECT_EQ(all[2], (Interaction{1, 1, 0}));
}

TEST(DatasetTest, ItemsByPopularity) {
  Dataset d(4);
  d.AddUser({0, 1});
  d.AddUser({1, 2});
  d.AddUser({1});
  const auto order = d.ItemsByPopularity();
  EXPECT_EQ(order[0], 1U);  // popularity 3
  EXPECT_EQ(order.back(), 3U);  // popularity 0
}

TEST(DatasetTest, MeanProfileLength) {
  Dataset d(4);
  EXPECT_DOUBLE_EQ(d.MeanProfileLength(), 0.0);
  d.AddUser({0, 1});
  d.AddUser({2});
  EXPECT_DOUBLE_EQ(d.MeanProfileLength(), 1.5);
}

TEST(DatasetTest, CopySemantics) {
  Dataset d(4);
  d.AddUser({0, 1});
  Dataset copy = d;
  copy.AddUser({2});
  EXPECT_EQ(d.num_users(), 1U);
  EXPECT_EQ(copy.num_users(), 2U);

  // Each copy has its own membership bits.
  copy.AppendInteraction(0, 3);
  d.AppendInteraction(0, 2);
  EXPECT_TRUE(copy.HasInteraction(0, 3));
  EXPECT_FALSE(copy.HasInteraction(0, 2));
  EXPECT_TRUE(d.HasInteraction(0, 2));
  EXPECT_FALSE(d.HasInteraction(0, 3));
}

TEST(DatasetDeathTest, DuplicateItemInProfileAborts) {
  Dataset d(4);
  EXPECT_DEATH(d.AddUser({1, 1}), "duplicate item");
  Dataset wide(130);  // the duplicate sits past the first bitset word
  EXPECT_DEATH(wide.AddUser({64, 3, 64}), "duplicate item");
}

TEST(DatasetDeathTest, OutOfRangeItemAborts) {
  Dataset d(4);
  EXPECT_DEATH(d.AddUser({7}), "CHECK failed");
}

TEST(DatasetDeathTest, AppendingAnExistingInteractionAborts) {
  Dataset d(130);
  d.AddUser({129});
  EXPECT_DEATH(d.AppendInteraction(0, 129), "already interacted");
}

// Membership is a bitset of ⌈num_items/64⌉ words per user; 130 items make
// the third word partial.
TEST(DatasetMembershipTest, WordBoundariesAndPartialLastWord) {
  Dataset d(130);
  d.AddUser({63, 64, 127, 129});
  d.AddUser({0, 128});
  for (ItemId item = 0; item < 130; ++item) {
    EXPECT_EQ(d.HasInteraction(0, item),
              item == 63 || item == 64 || item == 127 || item == 129)
        << "item " << item;
    EXPECT_EQ(d.HasInteraction(1, item), item == 0 || item == 128)
        << "item " << item;
  }
}

TEST(DatasetMembershipTest, OutOfRangeItemIsNotAnInteraction) {
  Dataset d(130);
  d.AddUser({129});
  EXPECT_FALSE(d.HasInteraction(0, 130));
  EXPECT_FALSE(d.HasInteraction(0, 192));
  EXPECT_FALSE(d.HasInteraction(0, kNoItem));
}

TEST(DatasetDeathTest, HasInteractionOfUnknownUserAborts) {
  Dataset d(130);
  d.AddUser({1});
  EXPECT_DEATH(d.HasInteraction(1, 1), "CHECK failed");
}

TEST(DatasetMembershipTest, AppendInteractionSetsOnlyItsBit) {
  Dataset d(130);
  d.AddUser({5});
  d.AddUser({6});
  d.AppendInteraction(0, 127);
  EXPECT_TRUE(d.HasInteraction(0, 127));
  EXPECT_TRUE(d.HasInteraction(0, 5));
  EXPECT_FALSE(d.HasInteraction(0, 126));
  EXPECT_FALSE(d.HasInteraction(1, 127));
}

TEST(DatasetMembershipTest, RollbackLeavesNoStaleBits) {
  Dataset d(130);
  d.AddUser({1, 65});
  const DatasetCheckpoint checkpoint = d.Checkpoint();
  d.AddUser({2, 66, 129});
  d.RollbackTo(checkpoint);
  // The re-added user takes the dropped user's id and row.
  const UserId user = d.AddUser({3, 128});
  ASSERT_EQ(user, 1U);
  for (ItemId item = 0; item < 130; ++item) {
    EXPECT_EQ(d.HasInteraction(user, item), item == 3 || item == 128)
        << "item " << item;
  }
  // The dropped profile's items are free again, not duplicates.
  d.RollbackTo(checkpoint);
  d.AddUser({2, 66, 129});
  EXPECT_TRUE(d.HasInteraction(1, 66));
  EXPECT_TRUE(d.HasInteraction(0, 65));
}

TEST(DatasetMembershipTest, MatchesProfilesThroughCheckpointRounds) {
  // Property: on the Tiny world, HasInteraction answers exactly what a
  // search of the user's profile answers, for every (user, item) pair,
  // as users are planted, checkpointed and rolled back.
  const auto world = GenerateSyntheticWorld(SyntheticConfig::Tiny());
  Dataset d = world.dataset.source;
  const auto expect_matches_profiles = [&d](int round) {
    for (UserId u = 0; u < d.num_users(); ++u) {
      const std::set<ItemId> items(d.UserProfile(u).begin(),
                                   d.UserProfile(u).end());
      for (ItemId i = 0; i <= d.num_items(); ++i) {
        ASSERT_EQ(d.HasInteraction(u, i), items.count(i) == 1)
            << "round " << round << " user " << u << " item " << i;
      }
    }
  };
  expect_matches_profiles(-1);

  util::Rng rng(testhelpers::TestSeed(24));
  std::vector<ItemId> universe(d.num_items());
  for (ItemId i = 0; i < universe.size(); ++i) universe[i] = i;
  const auto add_random_users = [&](std::size_t count) {
    for (std::size_t n = 0; n < count; ++n) {
      // A partial Fisher-Yates shuffle draws distinct items.
      const std::size_t length = 1 + rng.UniformUint64(12);
      for (std::size_t k = 0; k < length; ++k) {
        const std::size_t j = k + rng.UniformUint64(universe.size() - k);
        std::swap(universe[k], universe[j]);
      }
      d.AddUser(Profile(universe.begin(), universe.begin() + length));
    }
  };

  const DatasetCheckpoint base = d.Checkpoint();
  for (int round = 0; round < 4; ++round) {
    add_random_users(15);
    const DatasetCheckpoint episode = d.Checkpoint();
    expect_matches_profiles(round);
    add_random_users(10);
    expect_matches_profiles(round);
    d.RollbackTo(episode);
    expect_matches_profiles(round);
    add_random_users(5);
    expect_matches_profiles(round);
    d.RollbackTo(base);
    expect_matches_profiles(round);
  }
}

TEST(CrossDomainTest, OverlapBookkeeping) {
  CrossDomainDataset cd("test", 6);
  cd.overlap[1] = true;
  cd.overlap[4] = true;
  EXPECT_EQ(cd.OverlapCount(), 2U);
  EXPECT_EQ(cd.OverlapItems(), (std::vector<ItemId>{1, 4}));
  cd.source.AddUser({1, 4});
  EXPECT_TRUE(cd.SourceRespectsOverlap());
  cd.source.AddUser({2});
  EXPECT_FALSE(cd.SourceRespectsOverlap());
}

TEST(CrossDomainTest, SourceHolders) {
  CrossDomainDataset cd("test", 6);
  cd.overlap[1] = true;
  cd.source.AddUser({1});
  cd.source.AddUser({1});
  EXPECT_EQ(cd.SourceHolders(1).size(), 2U);
  EXPECT_TRUE(cd.SourceHolders(0).empty());
}

TEST(SyntheticTest, TinyWorldShapes) {
  const SyntheticConfig config = SyntheticConfig::Tiny();
  const SyntheticWorld world = GenerateSyntheticWorld(config);
  EXPECT_EQ(world.dataset.target.num_users(), config.num_target_users);
  EXPECT_EQ(world.dataset.source.num_users(), config.num_source_users);
  EXPECT_EQ(world.dataset.target.num_items(), config.num_items);
  EXPECT_EQ(world.dataset.OverlapCount(), config.overlap_items);
  EXPECT_EQ(world.item_factors.rows(), config.num_items);
  EXPECT_EQ(world.item_cluster.size(), config.num_items);
}

TEST(SyntheticTest, SourceOnlyTouchesOverlap) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  EXPECT_TRUE(world.dataset.SourceRespectsOverlap());
}

TEST(SyntheticTest, EveryOverlapItemHasSourceHolder) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  for (const ItemId item : world.dataset.OverlapItems()) {
    EXPECT_FALSE(world.dataset.SourceHolders(item).empty())
        << "overlap item " << item << " has no source holder";
  }
}

TEST(SyntheticTest, DeterministicInSeed) {
  const SyntheticWorld a = GenerateSyntheticWorld(SyntheticConfig::Tiny());
  const SyntheticWorld b = GenerateSyntheticWorld(SyntheticConfig::Tiny());
  ASSERT_EQ(a.dataset.target.num_users(), b.dataset.target.num_users());
  for (UserId u = 0; u < a.dataset.target.num_users(); ++u) {
    EXPECT_EQ(a.dataset.target.UserProfile(u),
              b.dataset.target.UserProfile(u));
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig config = SyntheticConfig::Tiny();
  const SyntheticWorld a = GenerateSyntheticWorld(config);
  config.seed += 1;
  const SyntheticWorld b = GenerateSyntheticWorld(config);
  bool any_diff = false;
  for (UserId u = 0; u < a.dataset.target.num_users() && !any_diff; ++u) {
    any_diff = a.dataset.target.UserProfile(u) !=
               b.dataset.target.UserProfile(u);
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, ProfileLengthsWithinBounds) {
  const SyntheticConfig config = SyntheticConfig::Tiny();
  const SyntheticWorld world = GenerateSyntheticWorld(config);
  for (UserId u = 0; u < world.dataset.target.num_users(); ++u) {
    const std::size_t len = world.dataset.target.UserProfile(u).size();
    EXPECT_GE(len, 1U);
    EXPECT_LE(len, config.target_profile_max);
  }
}

TEST(SyntheticTest, PopularityIsSkewed) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::SmallCross());
  const auto order = world.dataset.target.ItemsByPopularity();
  const std::size_t head = world.dataset.target.ItemPopularity(order[0]);
  const std::size_t tail =
      world.dataset.target.ItemPopularity(order[order.size() / 2]);
  EXPECT_GT(head, 8 * std::max<std::size_t>(tail, 1))
      << "expected a long-tailed popularity distribution";
}

TEST(SyntheticTest, SmallCrossHasColdOverlapItems) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::SmallCross());
  std::size_t cold = 0;
  for (const ItemId item : world.dataset.OverlapItems()) {
    if (world.dataset.target.ItemPopularity(item) < 10) ++cold;
  }
  EXPECT_GE(cold, 50U) << "need at least 50 cold targets (paper protocol)";
}

TEST(SplitTest, SplitsPreserveInteractions) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  util::Rng rng(testhelpers::TestSeed(5));
  const TrainValidTestSplit split =
      SplitDataset(world.dataset.target, rng);
  EXPECT_EQ(split.train.num_interactions() + split.valid.size() +
                split.test.size(),
            world.dataset.target.num_interactions());
  EXPECT_EQ(split.train.num_users(), world.dataset.target.num_users());
}

TEST(SplitTest, EveryUserKeepsTrainingData) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  util::Rng rng(testhelpers::TestSeed(5));
  const auto split = SplitDataset(world.dataset.target, rng);
  for (UserId u = 0; u < split.train.num_users(); ++u) {
    EXPECT_FALSE(split.train.UserProfile(u).empty());
  }
}

TEST(SplitTest, HeldOutItemsComeFromUserProfiles) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  util::Rng rng(testhelpers::TestSeed(5));
  const auto split = SplitDataset(world.dataset.target, rng);
  for (const HeldOut& pair : split.test) {
    EXPECT_TRUE(world.dataset.target.HasInteraction(pair.user, pair.item));
    EXPECT_FALSE(split.train.HasInteraction(pair.user, pair.item));
  }
}

TEST(SplitTest, FractionsApproximatelyHonored) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::SmallCross());
  util::Rng rng(testhelpers::TestSeed(5));
  const auto split = SplitDataset(world.dataset.target, rng, 0.1, 0.1);
  const double total =
      static_cast<double>(world.dataset.target.num_interactions());
  EXPECT_NEAR(static_cast<double>(split.valid.size()) / total, 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(split.test.size()) / total, 0.1, 0.03);
}

TEST(StatsTest, ComputeStatsCountsMatch) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  const CrossDomainStats stats = ComputeStats(world.dataset);
  EXPECT_EQ(stats.target_users, world.dataset.target.num_users());
  EXPECT_EQ(stats.source_users, world.dataset.source.num_users());
  EXPECT_EQ(stats.overlapping_items, world.dataset.OverlapCount());
  EXPECT_EQ(stats.target_interactions,
            world.dataset.target.num_interactions());
  EXPECT_FALSE(FormatStats(stats).empty());
}

TEST(TargetItemsTest, ColdTargetsAreColdAndAttackable) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::SmallCross());
  util::Rng rng(testhelpers::TestSeed(9));
  const auto targets =
      SampleColdTargetItems(world.dataset, 50, 10, rng);
  EXPECT_EQ(targets.size(), 50U);
  std::set<ItemId> unique(targets.begin(), targets.end());
  EXPECT_EQ(unique.size(), targets.size());
  for (const ItemId item : targets) {
    EXPECT_TRUE(world.dataset.overlap[item]);
    EXPECT_FALSE(world.dataset.SourceHolders(item).empty());
    EXPECT_LT(world.dataset.target.ItemPopularity(item), 10U);
  }
}

TEST(TargetItemsTest, FallbackFillsQuota) {
  // Tiny world with a huge cold threshold of 0 forces the fallback path.
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  util::Rng rng(testhelpers::TestSeed(9));
  const auto targets = SampleColdTargetItems(world.dataset, 10, 0, rng);
  EXPECT_EQ(targets.size(), 10U);
}

TEST(TargetItemsTest, PopularityGroupsAreOrdered) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::SmallCross());
  util::Rng rng(testhelpers::TestSeed(9));
  const auto groups =
      SampleTargetsByPopularityGroup(world.dataset, 10, 5, rng);
  ASSERT_EQ(groups.size(), 10U);
  // Every sampled item in group g must be at least as popular as the
  // least popular item sampled in group g+2 (allowing boundary slack).
  double prev_mean = 1e18;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    double mean = 0.0;
    for (const ItemId item : group) {
      mean += static_cast<double>(
          world.dataset.target.ItemPopularity(item));
    }
    mean /= static_cast<double>(group.size());
    EXPECT_LE(mean, prev_mean + 1.0);
    prev_mean = mean;
  }
}

TEST(IoTest, SaveLoadRoundTrip) {
  const SyntheticWorld world =
      GenerateSyntheticWorld(SyntheticConfig::Tiny());
  const std::string prefix = testing::TempDir() + "/ca_io_test";
  ASSERT_TRUE(SaveCrossDomain(world.dataset, prefix));

  CrossDomainDataset loaded("placeholder", 1);
  ASSERT_TRUE(LoadCrossDomain(prefix, &loaded));
  EXPECT_EQ(loaded.name, world.dataset.name);
  EXPECT_EQ(loaded.target.num_users(), world.dataset.target.num_users());
  EXPECT_EQ(loaded.source.num_interactions(),
            world.dataset.source.num_interactions());
  EXPECT_EQ(loaded.OverlapCount(), world.dataset.OverlapCount());
  for (UserId u = 0; u < loaded.target.num_users(); ++u) {
    EXPECT_EQ(loaded.target.UserProfile(u),
              world.dataset.target.UserProfile(u));
  }
  for (const char* suffix : {".meta.csv", ".target.csv", ".source.csv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(IoTest, LoadMissingFails) {
  CrossDomainDataset out("x", 1);
  IoError error;
  EXPECT_FALSE(LoadCrossDomain("/nonexistent/prefix", &out, &error));
  EXPECT_EQ(error.file, "/nonexistent/prefix.meta.csv");
  EXPECT_EQ(error.line, 0U);
  EXPECT_NE(error.Format().find("cannot open"), std::string::npos);
}

/// Writes a valid tiny world to a fresh prefix, then lets the test mangle
/// one of its files to exercise a reject path.
class CorruptFixture {
 public:
  explicit CorruptFixture(const std::string& tag)
      : prefix_(testing::TempDir() + "/ca_io_corrupt_" + tag) {
    const SyntheticWorld world =
        GenerateSyntheticWorld(SyntheticConfig::Tiny());
    EXPECT_TRUE(SaveCrossDomain(world.dataset, prefix_));
  }
  ~CorruptFixture() {
    for (const char* suffix : {".meta.csv", ".target.csv", ".source.csv"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  const std::string& prefix() const { return prefix_; }

  void Overwrite(const std::string& suffix, const std::string& content) {
    std::ofstream out(prefix_ + suffix, std::ios::trunc);
    out << content;
  }

  IoError ExpectLoadFails() {
    CrossDomainDataset out("x", 1);
    IoError error;
    EXPECT_FALSE(LoadCrossDomain(prefix_, &out, &error));
    return error;
  }

 private:
  std::string prefix_;
};

TEST(IoCorruptTest, WrongHeaderReportsLineOne) {
  CorruptFixture fixture("header");
  fixture.Overwrite(".target.csv", "user,thing,position\n0,1,0\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_EQ(error.file, fixture.prefix() + ".target.csv");
  EXPECT_EQ(error.line, 1U);
}

TEST(IoCorruptTest, TruncatedRowReportsItsLine) {
  CorruptFixture fixture("truncated");
  // Data row on line 3 lost its position column (a torn write).
  fixture.Overwrite(".target.csv",
                    "user,item,position\n0,1,0\n0,2\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_EQ(error.line, 3U);
  EXPECT_NE(error.message.find("3 fields"), std::string::npos);
}

TEST(IoCorruptTest, NonNumericFieldReportsItsLine) {
  CorruptFixture fixture("alpha");
  fixture.Overwrite(".target.csv",
                    "user,item,position\n0,1,0\n0,banana,1\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_EQ(error.line, 3U);
  EXPECT_NE(error.message.find("non-numeric"), std::string::npos);
}

TEST(IoCorruptTest, OutOfRangeItemReportsItsLine) {
  CorruptFixture fixture("range");
  fixture.Overwrite(".target.csv",
                    "user,item,position\n0,999999,0\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_EQ(error.line, 2U);
  EXPECT_NE(error.message.find("out of range"), std::string::npos);
}

TEST(IoCorruptTest, NonDenseUsersRejected) {
  CorruptFixture fixture("gap");
  // User 1 is missing: ids must be dense.
  fixture.Overwrite(".target.csv",
                    "user,item,position\n0,1,0\n2,3,0\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_NE(error.message.find("not dense"), std::string::npos);
}

TEST(IoCorruptTest, BadMetaRejected) {
  CorruptFixture fixture("meta");
  fixture.Overwrite(".meta.csv", "name,num_items,overlap_bits\nw,0,\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_EQ(error.file, fixture.prefix() + ".meta.csv");
  EXPECT_NE(error.message.find("num_items"), std::string::npos);
}

TEST(IoCorruptTest, OverlapBitsLengthMismatchRejected) {
  CorruptFixture fixture("bits");
  fixture.Overwrite(".meta.csv", "name,num_items,overlap_bits\nw,4,01\n");
  const IoError error = fixture.ExpectLoadFails();
  EXPECT_NE(error.message.find("overlap_bits"), std::string::npos);
}

TEST(IoCorruptTest, ErrorOutParamIsOptional) {
  CorruptFixture fixture("noerr");
  fixture.Overwrite(".target.csv", "user,item,position\n0,banana,0\n");
  CrossDomainDataset out("x", 1);
  EXPECT_FALSE(LoadCrossDomain(fixture.prefix(), &out));  // no IoError*
}

}  // namespace
}  // namespace copyattack::data

namespace copyattack::data {
namespace {

/// Property sweep: generator invariants hold across a grid of
/// configurations (overlap discipline, holder guarantee, profile bounds,
/// determinism).
struct GenCase {
  std::size_t items;
  std::size_t overlap;
  std::size_t target_users;
  std::size_t source_users;
  std::size_t clusters;
};

class GeneratorProperty : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorProperty, Invariants) {
  const GenCase c = GetParam();
  SyntheticConfig config = SyntheticConfig::Tiny();
  config.num_items = c.items;
  config.overlap_items = c.overlap;
  config.num_target_users = c.target_users;
  config.num_source_users = c.source_users;
  config.num_clusters = c.clusters;
  config.seed = 1000 + c.items + c.overlap;
  const SyntheticWorld world = GenerateSyntheticWorld(config);

  EXPECT_EQ(world.dataset.OverlapCount(), c.overlap);
  EXPECT_TRUE(world.dataset.SourceRespectsOverlap());
  for (const ItemId item : world.dataset.OverlapItems()) {
    EXPECT_FALSE(world.dataset.SourceHolders(item).empty());
  }
  for (UserId u = 0; u < world.dataset.target.num_users(); ++u) {
    EXPECT_GE(world.dataset.target.UserProfile(u).size(), 1U);
  }
  // Item clusters are all within range.
  for (const std::size_t cluster : world.item_cluster) {
    EXPECT_LT(cluster, c.clusters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneratorProperty,
    ::testing::Values(GenCase{40, 10, 30, 50, 3},
                      GenCase{60, 60, 40, 60, 4},   // full overlap
                      GenCase{100, 50, 80, 200, 8},
                      GenCase{30, 1, 20, 40, 2},    // single shared item
                      GenCase{80, 40, 10, 300, 5}));

TEST(EvaluatorDeterminism, SameSeedSameMetrics) {
  const SyntheticWorld world = GenerateSyntheticWorld(SyntheticConfig::Tiny());
  util::Rng split_rng(testhelpers::TestSeed(3));
  const auto split = SplitDataset(world.dataset.target, split_rng);
  rec::MatrixFactorization mf;
  util::Rng train_rng(testhelpers::TestSeed(5));
  mf.Fit(split.train, 5, train_rng);

  util::Rng eval_a(testhelpers::TestSeed(9)), eval_b(testhelpers::TestSeed(9));
  const auto a = rec::EvaluateHeldOut(mf, world.dataset.target, split.test,
                                      {10, 20}, 40, eval_a);
  const auto b = rec::EvaluateHeldOut(mf, world.dataset.target, split.test,
                                      {10, 20}, 40, eval_b);
  EXPECT_DOUBLE_EQ(a.at(10).hr, b.at(10).hr);
  EXPECT_DOUBLE_EQ(a.at(20).ndcg, b.at(20).ndcg);
}

}  // namespace
}  // namespace copyattack::data

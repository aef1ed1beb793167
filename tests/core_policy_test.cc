#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_seed.h"

#include "cluster/hierarchical_tree.h"
#include "core/crafting_policy.h"
#include "core/selection_policy.h"
#include "math/matrix.h"
#include "nn/mlp.h"
#include "nn/rnn.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace copyattack::core {
namespace {

/// Fixture: 16 users with 4-D embeddings, a branching-2 tree, and simple
/// item embeddings. "Profiles": user u holds item (u % 4).
class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture()
      : rng_(testhelpers::TestSeed(5)),
        users_(MakeUsers()),
        items_(MakeItems()),
        tree_(cluster::HierarchicalTree::Build(users_, 2, rng_)) {}

  static math::Matrix MakeUsers() {
    util::Rng rng(testhelpers::TestSeed(1));
    math::Matrix m(16, 4);
    m.FillNormal(rng, 0.0f, 1.0f);
    return m;
  }

  static math::Matrix MakeItems() {
    util::Rng rng(testhelpers::TestSeed(2));
    math::Matrix m(4, 4);
    m.FillNormal(rng, 0.0f, 1.0f);
    return m;
  }

  std::vector<bool> MaskForItem(data::ItemId item) const {
    return tree_.ComputeMask(
        [item](std::size_t user) { return user % 4 == item; });
  }

  HierarchicalSelectionPolicy MakePolicy(std::uint64_t seed = 9) {
    util::Rng init_rng(testhelpers::TestSeed(seed));
    return HierarchicalSelectionPolicy(&tree_, &users_, &items_,
                                       HierarchicalSelectionPolicy::Config{},
                                       init_rng);
  }

  util::Rng rng_;
  math::Matrix users_;
  math::Matrix items_;
  cluster::HierarchicalTree tree_;
};

TEST_F(PolicyFixture, SampleRespectsMask) {
  auto policy = MakePolicy();
  const data::ItemId item = 2;
  policy.SetTargetItem(item, MaskForItem(item));
  util::Rng rng(testhelpers::TestSeed(11));
  for (int i = 0; i < 50; ++i) {
    SelectionStepRecord record;
    const data::UserId user = policy.SampleUser({}, rng, &record);
    EXPECT_EQ(user % 4, item) << "masked user selected";
    EXPECT_EQ(record.chosen_user, user);
    EXPECT_FALSE(record.path.empty());
  }
}

TEST_F(PolicyFixture, AvailableCountMatchesMask) {
  auto policy = MakePolicy();
  policy.SetTargetItem(1, MaskForItem(1));
  EXPECT_EQ(policy.AvailableCount(), 4U);  // users 1, 5, 9, 13
  EXPECT_TRUE(policy.AnyAvailable());
}

TEST_F(PolicyFixture, MarkUserSelectedShrinksPool) {
  auto policy = MakePolicy();
  policy.SetTargetItem(1, MaskForItem(1));
  util::Rng rng(testhelpers::TestSeed(13));
  std::set<data::UserId> seen;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(policy.AnyAvailable());
    SelectionStepRecord record;
    const data::UserId user = policy.SampleUser({}, rng, &record);
    EXPECT_TRUE(seen.insert(user).second) << "user selected twice";
    policy.MarkUserSelected(user);
  }
  EXPECT_FALSE(policy.AnyAvailable());
  EXPECT_EQ(policy.AvailableCount(), 0U);
}

TEST_F(PolicyFixture, ResetEpisodeMaskRestoresPool) {
  auto policy = MakePolicy();
  policy.SetTargetItem(1, MaskForItem(1));
  util::Rng rng(testhelpers::TestSeed(13));
  SelectionStepRecord record;
  const data::UserId user = policy.SampleUser({}, rng, &record);
  policy.MarkUserSelected(user);
  EXPECT_EQ(policy.AvailableCount(), 3U);
  policy.ResetEpisodeMask();
  EXPECT_EQ(policy.AvailableCount(), 4U);
}

TEST_F(PolicyFixture, PathsFollowTreeEdges) {
  auto policy = MakePolicy();
  policy.SetTargetItem(0, MaskForItem(0));
  util::Rng rng(testhelpers::TestSeed(17));
  SelectionStepRecord record;
  policy.SampleUser({}, rng, &record);
  std::size_t node = tree_.root();
  for (const auto& decision : record.path) {
    EXPECT_EQ(decision.node_id, node);
    ASSERT_LT(decision.action, tree_.node(node).children.size());
    node = tree_.node(node).children[decision.action];
  }
  EXPECT_TRUE(tree_.IsLeaf(node));
  EXPECT_EQ(tree_.node(node).leaf_user, record.chosen_user);
}

TEST_F(PolicyFixture, GradientUpdateIncreasesChosenPathProbability) {
  auto policy = MakePolicy();
  policy.SetTargetItem(0, MaskForItem(0));
  util::Rng rng(testhelpers::TestSeed(19));
  SelectionStepRecord record;
  const data::UserId user = policy.SampleUser({}, rng, &record);

  // Estimate selection frequency of `user` before reinforcement.
  auto frequency = [&](util::Rng& sample_rng) {
    int hits = 0;
    for (int i = 0; i < 400; ++i) {
      SelectionStepRecord r;
      if (policy.SampleUser({}, sample_rng, &r) == user) ++hits;
    }
    return hits / 400.0;
  };
  util::Rng freq_rng_a(testhelpers::TestSeed(23));
  const double before = frequency(freq_rng_a);

  // Reinforce the recorded choice several times with positive advantage.
  for (int i = 0; i < 10; ++i) {
    policy.AccumulateGradients(record, 1.0);
    policy.ApplyUpdates(0.2f, 0.0f);
  }

  util::Rng freq_rng_b(testhelpers::TestSeed(23));
  const double after = frequency(freq_rng_b);
  EXPECT_GT(after, before + 0.05)
      << "positive advantage must increase the chosen user's probability";
}

TEST_F(PolicyFixture, NegativeAdvantageDecreasesProbability) {
  auto policy = MakePolicy();
  policy.SetTargetItem(0, MaskForItem(0));
  util::Rng rng(testhelpers::TestSeed(29));
  SelectionStepRecord record;
  const data::UserId user = policy.SampleUser({}, rng, &record);

  auto frequency = [&](util::Rng& sample_rng) {
    int hits = 0;
    for (int i = 0; i < 400; ++i) {
      SelectionStepRecord r;
      if (policy.SampleUser({}, sample_rng, &r) == user) ++hits;
    }
    return hits / 400.0;
  };
  util::Rng freq_rng_a(testhelpers::TestSeed(31));
  const double before = frequency(freq_rng_a);
  for (int i = 0; i < 10; ++i) {
    policy.AccumulateGradients(record, -1.0);
    policy.ApplyUpdates(0.2f, 0.0f);
  }
  util::Rng freq_rng_b(testhelpers::TestSeed(31));
  const double after = frequency(freq_rng_b);
  EXPECT_LT(after, before + 0.02);
}

TEST_F(PolicyFixture, RnnStateChangesDistribution) {
  // The same policy with different selected-user histories should produce
  // (at least slightly) different sampling distributions once trained a
  // bit; here we only assert the state vector differs via behavior: train
  // on history A, then the distribution conditioned on A differs from the
  // one conditioned on B.
  auto policy = MakePolicy();
  policy.SetTargetItem(0, MaskForItem(0));
  util::Rng rng(testhelpers::TestSeed(37));

  SelectionStepRecord record;
  policy.SampleUser({1, 2}, rng, &record);
  for (int i = 0; i < 20; ++i) {
    policy.AccumulateGradients(record, 1.0);
    policy.ApplyUpdates(0.3f, 0.0f);
  }

  auto frequency = [&](const std::vector<data::UserId>& history,
                       std::uint64_t seed) {
    util::Rng sample_rng(testhelpers::TestSeed(seed));
    int hits = 0;
    for (int i = 0; i < 500; ++i) {
      SelectionStepRecord r;
      if (policy.SampleUser(history, sample_rng, &r) ==
          record.chosen_user) {
        ++hits;
      }
    }
    return hits / 500.0;
  };
  const double with_history = frequency({1, 2}, 41);
  const double without_history = frequency({}, 41);
  // Trained conditioned on history {1,2}; that context should favor the
  // reinforced user at least as much as the empty context.
  EXPECT_GE(with_history, without_history - 0.05);
}

TEST_F(PolicyFixture, TotalParameterCountPositive) {
  auto policy = MakePolicy();
  EXPECT_GT(policy.TotalParameterCount(), 0U);
}

TEST_F(PolicyFixture, TotalParameterCountEqualsEagerSum) {
  auto policy = MakePolicy();
  util::Rng rng(testhelpers::TestSeed(61));
  nn::RnnEncoder encoder("e", users_.cols(),
                         HierarchicalSelectionPolicy::kRnnHiddenDim, rng);
  std::size_t eager = 0;
  for (const nn::Parameter* p : encoder.Parameters()) {
    eager += p->value.size();
  }
  for (std::size_t id = 0; id < tree_.num_nodes(); ++id) {
    if (tree_.IsLeaf(id)) continue;
    nn::Mlp mlp("m",
                {policy.state_dim(), HierarchicalSelectionPolicy::kMlpHiddenDim,
                 tree_.node(id).children.size()},
                rng);
    for (const nn::Parameter* p : mlp.Parameters()) eager += p->value.size();
  }
  EXPECT_EQ(policy.TotalParameterCount(), eager);
  EXPECT_EQ(policy.materialized_nodes(), 0U) << "counting built a node";
}

/// Checkpoint format of the selection policy (DESIGN.md §11): encoder
/// parameters, tree-init RngState, u32 node count, then per built node a
/// u32 node id and its MLP's parameters.
class PolicyCheckpointTest : public PolicyFixture {
 protected:
  static std::string Save(HierarchicalSelectionPolicy& policy) {
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(policy.SaveState(out));
    return out.str();
  }

  static bool Load(HierarchicalSelectionPolicy& policy,
                   const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    return policy.LoadState(in);
  }

  static std::string U32(std::uint32_t value) {
    return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  /// Serialized parameters of `mlp`, as a node record carries them.
  static std::string Params(nn::Mlp& mlp) {
    std::ostringstream out(std::ios::binary);
    EXPECT_TRUE(nn::SaveParameters(mlp.Parameters(), out));
    return out.str();
  }

  /// An MLP named and shaped for node `node`, built from `rng`.
  nn::Mlp NodeMlp(std::size_t node, util::Rng& rng) const {
    using Policy = HierarchicalSelectionPolicy;
    return nn::Mlp("selection/node" + std::to_string(node),
                   {items_.cols() + Policy::kRnnHiddenDim,
                    Policy::kMlpHiddenDim, tree_.node(node).children.size()},
                   rng, nn::Activation::kRelu, Policy::kInitStddev);
  }

  /// A node record with id `id` and parameters fitting node `shape_of`.
  std::string NodeRecord(std::uint32_t id, std::size_t shape_of) const {
    util::Rng rng(testhelpers::TestSeed(67));
    nn::Mlp mlp = NodeMlp(shape_of, rng);
    return U32(id) + Params(mlp);
  }

  std::vector<std::size_t> InternalNodes() const {
    std::vector<std::size_t> ids;
    for (std::size_t id = 0; id < tree_.num_nodes(); ++id) {
      if (!tree_.IsLeaf(id)) ids.push_back(id);
    }
    return ids;
  }

  /// A policy trained on a few walks for item 1, so its state holds
  /// built nodes and moved weights.
  HierarchicalSelectionPolicy TrainedPolicy() {
    auto policy = MakePolicy();
    policy.SetTargetItem(1, MaskForItem(1));
    util::Rng rng(testhelpers::TestSeed(71));
    for (int i = 0; i < 3; ++i) {
      SelectionStepRecord record;
      policy.SampleUser({static_cast<data::UserId>(i)}, rng, &record);
      policy.AccumulateGradients(record, 1.0);
      policy.ApplyUpdates(0.2f, 0.0f);
    }
    return policy;
  }
};

TEST_F(PolicyCheckpointTest, NodesBuiltOnFirstVisitHoldTheEagerWeights) {
  // An eager build: the encoder, then every internal node's MLP in id
  // order, all from one stream.
  util::Rng eager_rng(testhelpers::TestSeed(9));
  nn::RnnEncoder encoder("selection/rnn", users_.cols(),
                         HierarchicalSelectionPolicy::kRnnHiddenDim,
                         eager_rng, HierarchicalSelectionPolicy::kInitStddev);
  std::vector<std::unique_ptr<nn::Mlp>> eager(tree_.num_nodes());
  for (const std::size_t id : InternalNodes()) {
    eager[id] = std::make_unique<nn::Mlp>(NodeMlp(id, eager_rng));
  }

  util::Rng lazy_rng(testhelpers::TestSeed(9));
  HierarchicalSelectionPolicy policy(&tree_, &users_, &items_,
                                     HierarchicalSelectionPolicy::Config{},
                                     lazy_rng);
  // The stream continues where the eager build left it (the crafting
  // policy draws next).
  const util::RngState lazy_end = lazy_rng.SaveState();
  const util::RngState eager_end = eager_rng.SaveState();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lazy_end.words[i], eager_end.words[i]);
  }
  EXPECT_EQ(lazy_end.has_cached_normal, eager_end.has_cached_normal);
  EXPECT_EQ(lazy_end.cached_normal, eager_end.cached_normal);
  EXPECT_EQ(policy.materialized_nodes(), 0U);

  const std::string fresh = Save(policy);
  policy.SetTargetItem(2, MaskForItem(2));
  util::Rng rng(testhelpers::TestSeed(73));
  SelectionStepRecord record;
  policy.SampleUser({}, rng, &record);
  // Exactly the walked nodes are built, each with the eager weights.
  EXPECT_EQ(policy.materialized_nodes(), record.path.size());
  std::set<std::size_t> walked;
  for (const auto& decision : record.path) walked.insert(decision.node_id);
  std::string expected = fresh.substr(0, fresh.size() - 4) +
                         U32(static_cast<std::uint32_t>(walked.size()));
  for (const std::size_t id : walked) {
    expected += U32(static_cast<std::uint32_t>(id)) + Params(*eager[id]);
  }
  EXPECT_EQ(Save(policy), expected);
}

TEST_F(PolicyCheckpointTest, StateSavedBeforeAnyWalkHoldsNoNodeRecords) {
  auto fresh = MakePolicy();
  const std::string blob = Save(fresh);
  EXPECT_EQ(blob.substr(blob.size() - 4), U32(0));

  // A policy with built nodes drops them when it loads that state.
  auto trained = TrainedPolicy();
  ASSERT_GT(trained.materialized_nodes(), 0U);
  ASSERT_TRUE(Load(trained, blob));
  EXPECT_EQ(trained.materialized_nodes(), 0U);
  EXPECT_EQ(Save(trained), blob);
}

TEST_F(PolicyCheckpointTest, UnsavedNodesReDeriveFromTheSavedStream) {
  auto trained = TrainedPolicy();
  const std::string blob = Save(trained);
  auto restored = MakePolicy(999);  // a different init stream
  restored.SetTargetItem(1, MaskForItem(1));
  ASSERT_TRUE(Load(restored, blob));
  EXPECT_EQ(Save(restored), blob);

  // Fifty stochastic walks per item reach nodes the three training walks
  // never built; the restored policy must build them from the saved
  // stream, not from its own.
  const std::size_t loaded = restored.materialized_nodes();
  for (const data::ItemId item : {1, 3}) {
    trained.SetTargetItem(item, MaskForItem(item));
    restored.SetTargetItem(item, MaskForItem(item));
    util::Rng rng_a(testhelpers::TestSeed(79));
    util::Rng rng_b(testhelpers::TestSeed(79));
    for (int i = 0; i < 50; ++i) {
      SelectionStepRecord a, b;
      EXPECT_EQ(trained.SampleUser({2}, rng_a, &a),
                restored.SampleUser({2}, rng_b, &b));
    }
  }
  EXPECT_GT(restored.materialized_nodes(), loaded);
  EXPECT_EQ(Save(restored), Save(trained));
}

TEST_F(PolicyCheckpointTest, LoadStateRejectsMalformedNodeRecords) {
  auto policy = MakePolicy();
  const std::string fresh = Save(policy);
  const std::string header = fresh.substr(0, fresh.size() - 4);
  const std::vector<std::size_t> internal = InternalNodes();
  ASSERT_GE(internal.size(), 2U);
  const std::size_t a = internal[0];
  const std::size_t b = internal[1];
  std::size_t leaf = 0;
  while (!tree_.IsLeaf(leaf)) ++leaf;
  const auto ida = static_cast<std::uint32_t>(a);
  const auto idb = static_cast<std::uint32_t>(b);
  const auto blob = [&](const std::vector<std::string>& records) {
    std::string bytes =
        header + U32(static_cast<std::uint32_t>(records.size()));
    for (const std::string& record : records) bytes += record;
    return bytes;
  };

  // The hand-built layout is the real one: a well-formed blob loads.
  ASSERT_TRUE(Load(policy, blob({NodeRecord(ida, a), NodeRecord(idb, b)})));
  EXPECT_EQ(policy.materialized_nodes(), 2U);

  EXPECT_FALSE(Load(policy, blob({NodeRecord(idb, b), NodeRecord(ida, a)})))
      << "unsorted ids";
  EXPECT_FALSE(Load(policy, blob({NodeRecord(ida, a), NodeRecord(ida, a)})))
      << "duplicate id";
  EXPECT_FALSE(Load(policy, blob({NodeRecord(
                                static_cast<std::uint32_t>(tree_.num_nodes()),
                                a)})))
      << "id past the last node";
  EXPECT_FALSE(Load(policy, blob({NodeRecord(0xFFFFFFFFU, a)})))
      << "id far out of range";
  EXPECT_FALSE(
      Load(policy, blob({NodeRecord(static_cast<std::uint32_t>(leaf), a)})))
      << "leaf id";
  EXPECT_FALSE(Load(policy, blob({NodeRecord(idb, a)})))
      << "record shaped for another node";
  EXPECT_FALSE(Load(policy,
                    header + U32(static_cast<std::uint32_t>(
                                 internal.size() + 1))))
      << "more records than internal nodes";
}

TEST_F(PolicyCheckpointTest, LoadStateRejectsEveryTruncation) {
  auto trained = TrainedPolicy();
  const std::string blob = Save(trained);
  auto policy = MakePolicy();
  for (std::size_t size = 0; size < blob.size(); ++size) {
    EXPECT_FALSE(Load(policy, blob.substr(0, size))) << "size " << size;
  }
  EXPECT_TRUE(Load(policy, blob));
  EXPECT_EQ(Save(policy), blob);
}

TEST_F(PolicyFixture, CraftingPolicySamplesValidLevels) {
  util::Rng init_rng(testhelpers::TestSeed(43));
  CraftingPolicy policy(&users_, &items_, init_rng);
  policy.SetTargetItem(1);
  util::Rng rng(testhelpers::TestSeed(47));
  for (int i = 0; i < 100; ++i) {
    CraftStepRecord record;
    const std::size_t level = policy.SampleLevel(3, rng, &record);
    EXPECT_LT(level, kNumCraftLevels);
    EXPECT_EQ(record.user, 3U);
    EXPECT_EQ(record.action, level);
  }
}

TEST_F(PolicyFixture, CraftingPolicyLearnsPreferredLevel) {
  util::Rng init_rng(testhelpers::TestSeed(53));
  CraftingPolicy policy(&users_, &items_, init_rng);
  policy.SetTargetItem(2);
  util::Rng rng(testhelpers::TestSeed(59));

  // Reward only level 4: it should dominate after training.
  for (int episode = 0; episode < 300; ++episode) {
    CraftStepRecord record;
    const std::size_t level = policy.SampleLevel(7, rng, &record);
    const double reward = (level == 4) ? 1.0 : 0.0;
    policy.AccumulateGradients(record, reward - 0.1);
    policy.ApplyUpdates(0.2f, 5.0f);
  }
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    CraftStepRecord record;
    if (policy.SampleLevel(7, rng, &record) == 4) ++hits;
  }
  EXPECT_GT(hits, 120) << "crafting policy failed to learn level 4";
}

TEST_F(PolicyFixture, DeterministicGivenSameSeeds) {
  auto policy_a = MakePolicy();
  auto policy_b = MakePolicy();
  policy_a.SetTargetItem(0, MaskForItem(0));
  policy_b.SetTargetItem(0, MaskForItem(0));
  util::Rng rng_a(testhelpers::TestSeed(61)), rng_b(testhelpers::TestSeed(61));
  for (int i = 0; i < 10; ++i) {
    SelectionStepRecord ra, rb;
    EXPECT_EQ(policy_a.SampleUser({}, rng_a, &ra),
              policy_b.SampleUser({}, rng_b, &rb));
  }
}

TEST_F(PolicyFixture, SampleAfterFullMaskAborts) {
  auto policy = MakePolicy();
  // Static mask allowing nothing is rejected at the tree level: the root
  // is masked and sampling must abort.
  policy.SetTargetItem(0,
                       std::vector<bool>(tree_.num_nodes(), false));
  util::Rng rng(testhelpers::TestSeed(67));
  SelectionStepRecord record;
  EXPECT_DEATH(policy.SampleUser({}, rng, &record), "no selectable user");
}

}  // namespace
}  // namespace copyattack::core

namespace copyattack::core {
namespace {

TEST_F(PolicyFixture, GreedySamplingIsDeterministic) {
  auto policy = MakePolicy();
  policy.SetTargetItem(0, MaskForItem(0));
  util::Rng rng_a(testhelpers::TestSeed(71)), rng_b(testhelpers::TestSeed(99));  // different RNGs — greedy must ignore
  SelectionStepRecord ra, rb;
  const data::UserId a =
      policy.SampleUser({}, rng_a, &ra, /*greedy=*/true);
  const data::UserId b =
      policy.SampleUser({}, rng_b, &rb, /*greedy=*/true);
  EXPECT_EQ(a, b);
}

TEST_F(PolicyFixture, GreedyRespectsMask) {
  auto policy = MakePolicy();
  policy.SetTargetItem(3, MaskForItem(3));
  util::Rng rng(testhelpers::TestSeed(71));
  SelectionStepRecord record;
  const data::UserId user =
      policy.SampleUser({}, rng, &record, /*greedy=*/true);
  EXPECT_EQ(user % 4, 3U);
}

TEST_F(PolicyFixture, CraftingGreedyPicksArgmax) {
  util::Rng init_rng(testhelpers::TestSeed(43));
  CraftingPolicy policy(&users_, &items_, init_rng);
  policy.SetTargetItem(1);
  util::Rng rng_a(testhelpers::TestSeed(1)), rng_b(testhelpers::TestSeed(2));
  CraftStepRecord ra, rb;
  EXPECT_EQ(policy.SampleLevel(3, rng_a, &ra, /*greedy=*/true),
            policy.SampleLevel(3, rng_b, &rb, /*greedy=*/true));
}

}  // namespace
}  // namespace copyattack::core

namespace copyattack::core {
namespace {

TEST_F(PolicyFixture, GruEncoderVariantWorksEndToEnd) {
  util::Rng init_rng(testhelpers::TestSeed(9));
  HierarchicalSelectionPolicy::Config config;
  config.encoder = SequenceEncoderType::kGru;
  HierarchicalSelectionPolicy policy(&tree_, &users_, &items_, config,
                                     init_rng);
  policy.SetTargetItem(0, MaskForItem(0));
  util::Rng rng(testhelpers::TestSeed(19));
  SelectionStepRecord record;
  const data::UserId user = policy.SampleUser({1, 5}, rng, &record);
  EXPECT_EQ(user % 4, 0U);

  // A positive-advantage update must not crash and must raise the chosen
  // user's probability, as with the vanilla encoder.
  auto frequency = [&](util::Rng& sample_rng) {
    int hits = 0;
    for (int i = 0; i < 300; ++i) {
      SelectionStepRecord r;
      if (policy.SampleUser({1, 5}, sample_rng, &r) == user) ++hits;
    }
    return hits / 300.0;
  };
  util::Rng freq_a(testhelpers::TestSeed(23));
  const double before = frequency(freq_a);
  for (int i = 0; i < 10; ++i) {
    policy.AccumulateGradients(record, 1.0);
    policy.ApplyUpdates(0.2f, 0.0f);
  }
  util::Rng freq_b(testhelpers::TestSeed(23));
  const double after = frequency(freq_b);
  EXPECT_GT(after, before - 0.02);
}

}  // namespace
}  // namespace copyattack::core

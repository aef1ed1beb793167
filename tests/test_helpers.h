#ifndef COPYATTACK_TESTS_TEST_HELPERS_H_
#define COPYATTACK_TESTS_TEST_HELPERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/parallel_runner.h"
#include "core/runner.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "rec/pinsage_lite.h"
#include "test_seed.h"
#include "util/rng.h"

namespace copyattack::testhelpers {

/// A tiny end-to-end world shared by the core tests: synthetic cross-domain
/// data, a train split, a fitted PinSage-style target model, and the
/// source-domain artifacts (MF embeddings + clustering tree).
struct TinyWorld {
  data::SyntheticWorld world;
  core::World prepared;
  const data::TrainValidTestSplit& split = prepared.target.split;
  const rec::PinSageLite& model = prepared.target.model;  // copy per campaign
  const core::SourceArtifacts& artifacts = prepared.source;
  data::ItemId cold_target = data::kNoItem;

  TinyWorld()
      : world(data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny())),
        prepared(core::PrepareWorld(world.dataset, Options())) {
    util::Rng rng(TestSeed(17));
    const auto targets =
        data::SampleColdTargetItems(world.dataset, 1, 10, rng);
    if (!targets.empty()) cold_target = targets[0];
  }

  /// The set-up seeds; `max_epochs = patience` trains exactly 12 epochs.
  static core::WorldOptions Options() {
    core::WorldOptions options;
    options.target.split_seed = TestSeed(23);
    options.target.train_seed = TestSeed(29);
    options.target.train.max_epochs = 12;
    options.target.train.patience = 12;
    options.source.mf_epochs = 8;
    options.source.tree_depth = 3;
    return options;
  }

  /// Model factory for campaign runners (fresh serving state per clone).
  core::ModelFactory ModelFactory() const { return prepared.target.Factory(); }
};

/// Returns the process-wide shared TinyWorld (built once; read-only).
inline const TinyWorld& SharedTinyWorld() {
  static const TinyWorld* const world = new TinyWorld();
  return *world;
}

/// Per-k HR/NDCG of two results match exactly.
inline void ExpectMetricsEqual(const rec::MetricsByK& a,
                               const rec::MetricsByK& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [k, metrics] : a) {
    const auto it = b.find(k);
    ASSERT_NE(it, b.end());
    EXPECT_EQ(metrics.hr, it->second.hr);
    EXPECT_EQ(metrics.ndcg, it->second.ndcg);
    EXPECT_EQ(metrics.count, it->second.count);
  }
}

inline void ExpectOutcomesEqual(const core::TargetOutcomeState& a,
                                const core::TargetOutcomeState& b) {
  EXPECT_EQ(a.final_reward, b.final_reward);
  EXPECT_EQ(a.profiles_injected, b.profiles_injected);
  EXPECT_EQ(a.items_per_profile, b.items_per_profile);
  EXPECT_EQ(a.query_rounds, b.query_rounds);
  ExpectMetricsEqual(a.metrics, b.metrics);
}

/// Two campaign runs are bit-identical: every completed target's outcome
/// and the aggregate row (wall time and checkpoint bookkeeping aside).
inline void ExpectResultsEqual(const core::ParallelCampaignResult& a,
                               const core::ParallelCampaignResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  ASSERT_EQ(a.completed, b.completed);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.completed[i] == 0) continue;
    SCOPED_TRACE("outcome " + std::to_string(i));
    ExpectOutcomesEqual(a.outcomes[i], b.outcomes[i]);
  }
  EXPECT_EQ(a.aggregate.method, b.aggregate.method);
  EXPECT_EQ(a.aggregate.num_target_items, b.aggregate.num_target_items);
  EXPECT_EQ(a.aggregate.avg_final_reward, b.aggregate.avg_final_reward);
  EXPECT_EQ(a.aggregate.avg_profiles_injected,
            b.aggregate.avg_profiles_injected);
  EXPECT_EQ(a.aggregate.avg_items_per_profile,
            b.aggregate.avg_items_per_profile);
  EXPECT_EQ(a.aggregate.avg_query_rounds, b.aggregate.avg_query_rounds);
  ExpectMetricsEqual(a.aggregate.metrics, b.aggregate.metrics);
}

/// `num_users` users, each holding `profile_len` distinct items drawn
/// uniformly from `num_items`, in draw order.
inline data::Dataset RandomProfiles(std::size_t num_users,
                                    std::size_t num_items,
                                    std::size_t profile_len,
                                    std::uint64_t seed) {
  data::Dataset dataset(num_items);
  util::Rng rng(seed);
  for (std::size_t u = 0; u < num_users; ++u) {
    data::Profile profile;
    for (const std::size_t item :
         rng.SampleWithoutReplacement(num_items, profile_len)) {
      profile.push_back(static_cast<data::ItemId>(item));
    }
    dataset.AddUser(std::move(profile));
  }
  return dataset;
}

}  // namespace copyattack::testhelpers

#endif  // COPYATTACK_TESTS_TEST_HELPERS_H_

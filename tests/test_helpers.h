#ifndef COPYATTACK_TESTS_TEST_HELPERS_H_
#define COPYATTACK_TESTS_TEST_HELPERS_H_

#include <cstdint>
#include <memory>
#include <utility>

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

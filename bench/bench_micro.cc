// Google-benchmark microbenchmarks for the substrate hot paths: balanced
// tree construction, masked tree-walk decisions, the BPR draw producer,
// BPR training epochs and the attacker's whole surrogate, black-box query
// scoring (per score and per query-round row), and top-k selection
// (allocating and per-row forms).

#include <benchmark/benchmark.h>

#include "attack/surrogate.h"
#include "cluster/hierarchical_tree.h"
#include "cluster/kmeans.h"
#include "core/environment.h"
#include "core/runner.h"
#include "core/selection_policy.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "math/top_k.h"
#include "math/vector_ops.h"
#include "rec/bpr_draws.h"
#include "rec/matrix_factorization.h"
#include "rec/pinsage_lite.h"
#include "util/rng.h"

namespace {

using namespace copyattack;

const data::SyntheticWorld& World() {
  static const data::SyntheticWorld* const world =
      new data::SyntheticWorld(
          data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny()));
  return *world;
}

/// The scoring, injection and reset suites' target model on the Tiny
/// world: split seed 37, then three epochs from seed 41 (`max_epochs =
/// patience` trains exactly that many). Suites that mutate it copy it.
const core::TargetModel& TinyTarget() {
  static const core::TargetModel* const target =
      new core::TargetModel(core::TrainTargetModel(
          World().dataset.target,
          {.split_seed = 37,
           .train_seed = 41,
           .train = {.max_epochs = 3, .patience = 3}}));
  return *target;
}

math::Matrix RandomEmbeddings(std::size_t n, std::size_t dim,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  math::Matrix m(n, dim);
  m.FillNormal(rng, 0.0f, 0.5f);
  return m;
}

void BM_BalancedKMeans(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const math::Matrix points = RandomEmbeddings(n, 8, 11);
  std::vector<std::size_t> subset(n);
  for (std::size_t i = 0; i < n; ++i) subset[i] = i;
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::BalancedKMeans(points, subset, 8, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BalancedKMeans)->Arg(1000)->Arg(4000);

void BM_TreeBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const math::Matrix points = RandomEmbeddings(n, 8, 13);
  for (auto _ : state) {
    util::Rng rng(7);
    benchmark::DoNotOptimize(
        cluster::HierarchicalTree::BuildWithDepth(points, 3, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeBuild)->Arg(1000)->Arg(4000);

void BM_TreeDecision(benchmark::State& state) {
  const std::size_t n = 4096;
  const math::Matrix users = RandomEmbeddings(n, 8, 17);
  const math::Matrix items = RandomEmbeddings(64, 8, 19);
  util::Rng tree_rng(23);
  const auto tree =
      cluster::HierarchicalTree::BuildWithDepth(users, 3, tree_rng);
  util::Rng init_rng(29);
  core::HierarchicalSelectionPolicy policy(
      &tree, &users, &items, core::HierarchicalSelectionPolicy::Config{},
      init_rng);
  policy.SetTargetItem(0,
                       tree.ComputeMask([](std::size_t) { return true; }));
  util::Rng rng(31);
  for (auto _ : state) {
    core::SelectionStepRecord record;
    benchmark::DoNotOptimize(policy.SampleUser({}, rng, &record));
  }
}
BENCHMARK(BM_TreeDecision);

// The BPR epochs run on the LargeCross world, where a source-domain epoch
// is about a million steps, so the time per step is the draw/update
// pipeline's and not the per-epoch producer thread start. MF trains on
// the source domain (as source-MF pre-training does), PinSage on the
// target domain's training split. `BM_BprDraws` times the producer alone
// (the consumer discards each block). An epoch runs on two threads, so
// these report wall time: the calling thread's CPU time leaves out the
// producer's.
const data::SyntheticWorld& LargeWorld() {
  static const data::SyntheticWorld* const world =
      new data::SyntheticWorld(data::GenerateSyntheticWorld(
          data::SyntheticConfig::LargeCross()));
  return *world;
}

void BM_BprDraws(benchmark::State& state) {
  const data::Dataset& train = LargeWorld().dataset.source;
  util::Rng rng(41);
  for (auto _ : state) {
    rec::ForEachBprBlock(train, rng,
                         [](const rec::BprTriple* triples, std::size_t n) {
                           benchmark::DoNotOptimize(triples);
                           benchmark::DoNotOptimize(n);
                         });
  }
  state.SetItemsProcessed(state.iterations() * train.num_interactions());
}
BENCHMARK(BM_BprDraws)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MfTrainEpoch(benchmark::State& state) {
  const data::Dataset& train = LargeWorld().dataset.source;
  rec::MatrixFactorization mf;
  util::Rng rng(41);
  mf.InitTraining(train, rng);
  for (auto _ : state) {
    mf.TrainEpoch(train, rng);
  }
  state.SetItemsProcessed(state.iterations() * train.num_interactions());
}
BENCHMARK(BM_MfTrainEpoch)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PinSageTrainEpoch(benchmark::State& state) {
  util::Rng split_rng(37);
  const auto split =
      data::SplitDataset(LargeWorld().dataset.target, split_rng);
  rec::PinSageLite model;
  util::Rng rng(41);
  model.InitTraining(split.train, rng);
  for (auto _ : state) {
    model.TrainEpoch(split.train, rng);
  }
  state.SetItemsProcessed(state.iterations() *
                          split.train.num_interactions());
}
BENCHMARK(BM_PinSageTrainEpoch)->Unit(benchmark::kMillisecond)->UseRealTime();

// One whole attacker surrogate (attack/surrogate.h): `kEpochs` MF epochs
// over the target domain, as the attack server trains it for its first
// surrogate-based job.
void BM_SurrogateTrain(benchmark::State& state) {
  const data::Dataset& observable = LargeWorld().dataset.target;
  for (auto _ : state) {
    const attack::TargetSurrogate surrogate(observable);
    benchmark::DoNotOptimize(surrogate.item_embeddings().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          attack::TargetSurrogate::kEpochs *
                          observable.num_interactions());
}
BENCHMARK(BM_SurrogateTrain)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PinSageScore(benchmark::State& state) {
  const rec::PinSageLite& model = TinyTarget().model;
  const data::Dataset& train = TinyTarget().split.train;
  data::UserId user = 0;
  data::ItemId item = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Score(user, item));
    user = (user + 1) % static_cast<data::UserId>(train.num_users());
    item = (item + 7) % static_cast<data::ItemId>(train.num_items());
  }
}
BENCHMARK(BM_PinSageScore);

// One query-round row: 101 candidates (the target plus 100 negatives)
// scored through the Recommender interface, as the oracle scores them.
// `score_ns` is the time per candidate score.
void BM_PinSageScoreRow(benchmark::State& state) {
  const rec::Recommender& recommender = TinyTarget().model;
  const data::Dataset& train = TinyTarget().split.train;
  const std::size_t num_items = train.num_items();
  std::vector<data::ItemId> candidates(101);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = static_cast<data::ItemId>((i * 7) % num_items);
  }
  std::vector<float> row(candidates.size());
  data::UserId user = 0;
  for (auto _ : state) {
    recommender.ScoreCandidatesInto(user, candidates, row.data());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    user = (user + 1) % static_cast<data::UserId>(train.num_users());
  }
  state.counters["score_ns"] = benchmark::Counter(
      static_cast<double>(state.iterations() * candidates.size()) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PinSageScoreRow);

void BM_PinSageObserveNewUser(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rec::PinSageLite model = TinyTarget().model;
    data::Dataset polluted = TinyTarget().split.train;
    const data::UserId user = polluted.AddUser({0, 1, 2, 3, 4});
    state.ResumeTiming();
    model.ObserveNewUser(polluted, user);
  }
}
BENCHMARK(BM_PinSageObserveNewUser);

void BM_EnvReset(benchmark::State& state) {
  // Steady-state episode Reset on a reused environment: after the first
  // (cold) reset every iteration takes the snapshot/rollback fast path.
  rec::PinSageLite model = TinyTarget().model;
  util::Rng target_rng(47);
  const auto targets =
      data::SampleColdTargetItems(World().dataset, 1, 10, target_rng);
  core::EnvConfig config;
  config.budget = 6;
  config.num_pretend_users = 10;
  core::AttackEnvironment env(World().dataset, TinyTarget().split.train,
                              &model, config);
  env.Reset(targets[0]);  // cold reset outside the timed loop
  const data::Profile injection = {0, 1, 2, 3, 4};
  for (auto _ : state) {
    state.PauseTiming();
    env.Step(data::Profile(injection));  // make the reset non-trivial
    state.ResumeTiming();
    env.Reset(targets[0]);
  }
}
BENCHMARK(BM_EnvReset);

void BM_EnvResetLegacy(benchmark::State& state) {
  // The pre-rollback reset recipe (deep-copy the training data, re-add
  // pretend users, BeginServing) for before/after comparison with
  // BM_EnvReset.
  rec::PinSageLite model = TinyTarget().model;
  for (auto _ : state) {
    data::Dataset polluted = TinyTarget().split.train;
    for (std::size_t i = 0; i < 10; ++i) {
      polluted.AddUser({0, 1, 2, 3, 4});
    }
    model.BeginServing(polluted);
    benchmark::DoNotOptimize(polluted.num_users());
  }
}
BENCHMARK(BM_EnvResetLegacy);

void BM_InjectUser(benchmark::State& state) {
  // Per-injection cost after `range(0)` prior injections in the same
  // episode. Amortized growth means the cost should stay flat across the
  // 0/32/256 columns.
  const std::size_t prior = static_cast<std::size_t>(state.range(0));
  rec::PinSageLite model = TinyTarget().model;
  data::Dataset polluted = TinyTarget().split.train;
  model.BeginServing(polluted);
  const auto checkpoint = polluted.Checkpoint();
  model.CheckpointServing();
  const data::Profile injection = {0, 1, 2, 3, 4};
  for (auto _ : state) {
    state.PauseTiming();
    polluted.RollbackTo(checkpoint);
    model.RollbackServing();
    for (std::size_t i = 0; i < prior; ++i) {
      const data::UserId u = polluted.AddUser(data::Profile(injection));
      model.ObserveNewUser(polluted, u);
    }
    state.ResumeTiming();
    const data::UserId user = polluted.AddUser(data::Profile(injection));
    model.ObserveNewUser(polluted, user);
  }
}
BENCHMARK(BM_InjectUser)->Arg(0)->Arg(32)->Arg(256);

void BM_Dot(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const math::Matrix m = RandomEmbeddings(2, n, 53);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::Dot(m.Row(0), m.Row(1), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)->Arg(16)->Arg(64)->Arg(256);

void BM_Axpy(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  math::Matrix m = RandomEmbeddings(2, n, 59);
  for (auto _ : state) {
    math::Axpy(0.001f, m.Row(0), m.Row(1), n);
    benchmark::DoNotOptimize(m.Row(1)[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)->Arg(16)->Arg(64)->Arg(256);

void BM_SquaredDistance(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const math::Matrix m = RandomEmbeddings(2, n, 61);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::SquaredDistance(m.Row(0), m.Row(1), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SquaredDistance)->Arg(16)->Arg(64)->Arg(256);

// The oracle's select: Top-20 of each row of a rows x cols block, into a
// caller buffer (a query selects one 101-wide row). Args: input order (0 random, 1 ascending,
// 2 descending, 3 all equal), cols, rows. `row_ns` is the time per row.
void BM_TopKPerRow(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  const std::size_t cols = static_cast<std::size_t>(state.range(1));
  const std::size_t rows = static_cast<std::size_t>(state.range(2));
  const std::size_t k = 20;
  util::Rng rng(47);
  std::vector<float> block(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const float rising = static_cast<float>(c);
      const float random = static_cast<float>(rng.UniformDouble());
      block[r * cols + c] = order == 0   ? random
                            : order == 1 ? rising
                            : order == 2 ? -rising
                                         : 1.0f;
    }
  }
  std::vector<std::size_t> top(rows * k);
  for (auto _ : state) {
    math::TopKPerRow(block.data(), rows, cols, k, top.data());
    benchmark::DoNotOptimize(top.data());
    benchmark::ClobberMemory();
  }
  state.counters["row_ns"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rows) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TopKPerRow)
    ->Args({0, 101, 50})
    ->Args({1, 101, 50})
    ->Args({2, 101, 50})
    ->Args({3, 101, 50})
    ->Args({0, 1100, 1});

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny()));
  }
}
BENCHMARK(BM_SyntheticGeneration);

}  // namespace

BENCHMARK_MAIN();

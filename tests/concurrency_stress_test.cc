// TSan-targeted stress suite for the concurrent episode hot path: shared
// ThreadPool initialization, nested/re-entrant ParallelFor, RunCampaign's
// distinct-slot outcome writes, and the Dataset single-writer contract.
// These tests are labeled `stress` and sized so ThreadSanitizer (which
// serializes heavily) still finishes well inside the ctest timeout;
// tools/check_all.sh runs them under the tsan preset.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/parallel_runner.h"
#include "core/runner.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/black_box.h"
#include "rec/bpr_draws.h"
#include "rec/matrix_factorization.h"
#include "serve/job_queue.h"
#include "test_helpers.h"
#include "test_seed.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace copyattack {
namespace {

using testhelpers::SharedTinyWorld;
using testhelpers::TestSeed;
using util::ThreadPool;

// --- ThreadPool::Shared() initialization -----------------------------------

// Many external threads race to be the first user of the shared pool; the
// magic-static construction plus concurrent Submit/ParallelFor traffic must
// be race-free and every task must run exactly once.
TEST(ThreadPoolStressTest, SharedPoolInitAndSubmitFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kTasksPerThread = 64;
  std::atomic<int> executed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&executed] {
      for (int i = 0; i < kTasksPerThread; ++i) {
        ThreadPool::Shared().Submit(
            [&executed] { executed.fetch_add(1); });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ThreadPool::Shared().Wait();
  EXPECT_EQ(executed.load(), kThreads * kTasksPerThread);
}

// Concurrent top-level ParallelFor calls from distinct external threads
// share the pool; each call must see exactly its own range.
TEST(ThreadPoolStressTest, ConcurrentTopLevelParallelForCalls) {
  constexpr int kCallers = 6;
  constexpr std::size_t kRange = 512;
  std::vector<std::atomic<std::uint64_t>> sums(kCallers);
  for (auto& sum : sums) sum.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sums, c] {
      ThreadPool::ParallelFor(kRange, 4, [&sums, c](std::size_t i) {
        sums[c].fetch_add(i + 1);
      });
    });
  }
  for (auto& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), kRange * (kRange + 1) / 2) << "caller " << c;
  }
}

// --- Nested / re-entrant ParallelFor ---------------------------------------

// A nested call from inside a ParallelFor body used to submit helper tasks
// to the same pool and block on them — a deadlock once every worker was
// parked in an outer wait. The fix runs nested ranges inline; this test
// both regression-checks the hang (via the ctest timeout) and verifies
// every (outer, inner) pair executes exactly once under TSan.
TEST(ThreadPoolStressTest, NestedParallelForRunsEveryPairOnce) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> cells(kOuter * kInner);
  for (auto& cell : cells) cell.store(0);
  ThreadPool::ParallelFor(kOuter, 8, [&cells](std::size_t outer) {
    ThreadPool::ParallelFor(kInner, 8, [&cells, outer](std::size_t inner) {
      cells[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].load(), 1) << "cell " << i;
  }
}

// Three levels deep, repeated — exercises the thread-local re-entrancy
// flag's set/restore across many pool tasks.
TEST(ThreadPoolStressTest, DeeplyNestedParallelForConverges) {
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> count{0};
    ThreadPool::ParallelFor(4, 4, [&count](std::size_t) {
      ThreadPool::ParallelFor(4, 4, [&count](std::size_t) {
        ThreadPool::ParallelFor(4, 4,
                                [&count](std::size_t) { count.fetch_add(1); });
      });
    });
    ASSERT_EQ(count.load(), 4 * 4 * 4) << "round " << round;
  }
}

// --- Observability under concurrency ---------------------------------------

// The metrics hot path (sharded relaxed atomics) and the span recorder
// (per-thread rings) must be TSan-clean and lose no increments while many
// external threads record simultaneously with telemetry enabled.
TEST(ObsStressTest, CountersHistogramsAndSpansFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 512;
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("stress.ops");
  obs::Histogram& histogram =
      registry.GetHistogram("stress.value", {64.0, 256.0, 448.0});
  obs::TraceRecorder::Global().Clear();
  obs::SetEnabled(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        obs::ScopedSpan span("stress.op");
        counter.Add(1);
        histogram.Observe(static_cast<double>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  obs::SetEnabled(false);

  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  const obs::HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Each thread observes 0..511 once: sum = threads * 511*512/2.
  EXPECT_DOUBLE_EQ(snapshot.sum, kThreads * (511.0 * 512.0 / 2.0));
  // Spans recorded concurrently: every event must be accounted for, either
  // still in a ring or counted as overwritten.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  EXPECT_EQ(recorder.Collect().size() + recorder.overwritten(),
            static_cast<std::size_t>(kThreads) * kOpsPerThread);
  recorder.Clear();
}

// --- RunCampaign distinct-slot writes --------------------------------------

// Campaign workers write disjoint outcome slots without locks; under TSan
// this validates the claim, and comparing against the sequential run pins
// the paper-protocol guarantee that threading never changes the metrics.
TEST(CampaignStressTest, ParallelCampaignMatchesSequentialBitExact) {
  const auto& tw = SharedTinyWorld();
  util::Rng rng(TestSeed(71));
  const auto targets =
      data::SampleColdTargetItems(tw.world.dataset, 6, 10, rng);
  ASSERT_GE(targets.size(), 2U);

  core::CampaignConfig config;
  config.env.budget = 6;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 8;
  config.env.query_candidates = 40;
  config.episodes = 2;
  config.eval_users = 40;
  config.eval_negatives = 30;
  auto factory = [&](std::uint64_t) {
    return std::make_unique<core::TargetAttack>(tw.world.dataset, 0.7);
  };

  config.num_threads = 1;
  const auto sequential =
      core::RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                        factory, targets, config);
  for (int round = 0; round < 3; ++round) {
    config.num_threads = 8;
    const auto threaded =
        core::RunCampaign(tw.world.dataset, tw.split.train,
                          tw.ModelFactory(), factory, targets, config);
    ASSERT_EQ(threaded.method, sequential.method);
    for (const std::size_t k : config.eval_ks) {
      ASSERT_EQ(threaded.metrics.at(k).hr, sequential.metrics.at(k).hr)
          << "HR@" << k << " diverged in round " << round;
      ASSERT_EQ(threaded.metrics.at(k).ndcg, sequential.metrics.at(k).ndcg)
          << "NDCG@" << k << " diverged in round " << round;
    }
    ASSERT_EQ(threaded.avg_items_per_profile,
              sequential.avg_items_per_profile);
    ASSERT_EQ(threaded.avg_final_reward, sequential.avg_final_reward);
  }
}

// --- Sharded runner under TSan ---------------------------------------------

// The ISSUE-6 soak: the sharded runner's cross-shard state (global outcome
// slots, the episode counter, the abort flag, aggregated shard stats) must
// be race-free while shards outnumber worker threads, and the merged result
// must still equal the single-shard run.
TEST(CampaignStressTest, ShardedRunnerManyShardsMatchesSingleShard) {
  const auto& tw = SharedTinyWorld();
  util::Rng rng(TestSeed(79));
  const auto targets =
      data::SampleColdTargetItems(tw.world.dataset, 6, 10, rng);
  ASSERT_GE(targets.size(), 4U);

  core::CampaignConfig config;
  config.env.budget = 6;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 8;
  config.env.query_candidates = 40;
  config.episodes = 2;
  config.eval_users = 40;
  config.eval_negatives = 30;
  const core::StrategyFactory factory = [&tw](std::uint64_t) {
    return std::make_unique<core::TargetAttack>(tw.world.dataset, 0.7);
  };

  core::ParallelRunnerOptions single;
  single.jobs = 1;
  single.shards = 1;
  const core::ParallelCampaignRunner reference_runner(
      tw.world.dataset, tw.split.train, tw.ModelFactory(), factory, single);
  const auto reference = reference_runner.Run(targets, config);

  for (int round = 0; round < 3; ++round) {
    core::ParallelRunnerOptions options;
    options.jobs = 4;
    options.shards = targets.size();
    const core::ParallelCampaignRunner runner(
        tw.world.dataset, tw.split.train, tw.ModelFactory(), factory,
        options);
    const auto sharded = runner.Run(targets, config);
    ASSERT_EQ(sharded.completed, reference.completed) << "round " << round;
    ASSERT_EQ(sharded.aggregate.avg_final_reward,
              reference.aggregate.avg_final_reward)
        << "round " << round;
    for (const std::size_t k : config.eval_ks) {
      ASSERT_EQ(sharded.aggregate.metrics.at(k).hr,
                reference.aggregate.metrics.at(k).hr)
          << "HR@" << k << " diverged in round " << round;
    }
    std::size_t items = 0;
    for (const auto& shard : sharded.shards) items += shard.num_items;
    ASSERT_EQ(items, targets.size());
  }
}

// --- JobQueue producer/consumer handshake ----------------------------------

// Many producers and consumers hammer one queue; every job pushed must be
// popped exactly once and Close must wake every blocked consumer.
TEST(JobQueueStressTest, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kJobsPerProducer = 200;
  serve::JobQueue queue;
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &popped] {
      serve::PromotionJob job;
      while (queue.Pop(&job)) popped.fetch_add(1);
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kJobsPerProducer; ++i) {
        serve::PromotionJob job;
        // Built by append (GCC 12's -Wrestrict misfires on the
        // equivalent operator+ chain at -O2).
        job.id = "p";
        job.id += std::to_string(p);
        job.id += '_';
        job.id += std::to_string(i);
        queue.Push(job);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  queue.Close();
  for (auto& consumer : consumers) consumer.join();

  EXPECT_EQ(popped.load(), kProducers * kJobsPerProducer);
  EXPECT_EQ(queue.pending(), 0U);
}

// --- Dataset checkpoint/rollback under concurrency -------------------------

data::Dataset BuildSmallDataset(std::uint64_t seed) {
  return testhelpers::RandomProfiles(40, 64, 6, seed);
}

// The supported concurrent pattern: each thread owns its dataset and runs
// the checkpoint → mutate → rollback episode loop. TSan proves there is no
// hidden shared state between instances; the final state must equal the
// checkpointed one.
TEST(DatasetStressTest, PerThreadCheckpointRollbackIsIndependent) {
  constexpr int kThreads = 8;
  constexpr int kEpisodes = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      data::Dataset dataset = BuildSmallDataset(TestSeed(100 + t));
      const std::size_t base_users = dataset.num_users();
      const std::size_t base_interactions = dataset.num_interactions();
      util::Rng rng(TestSeed(500 + t));
      const data::DatasetCheckpoint checkpoint = dataset.Checkpoint();
      for (int episode = 0; episode < kEpisodes; ++episode) {
        for (int u = 0; u < 5; ++u) {
          data::Profile profile;
          profile.push_back(static_cast<data::ItemId>(
              rng.UniformUint64(dataset.num_items())));
          dataset.AddUser(std::move(profile));
        }
        dataset.RollbackTo(checkpoint);
        if (dataset.num_users() != base_users ||
            dataset.num_interactions() != base_interactions) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// Misuse: two threads mutating ONE dataset violates the single-writer
// contract. The mutation sentinel must abort with a diagnostic before the
// overlapping writer corrupts the vectors — deterministically, because
// every mutating entry point checks the flag before touching data.
TEST(DatasetStressTest, ConcurrentMutationOfOneDatasetIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        data::Dataset dataset = BuildSmallDataset(7);
        std::atomic<bool> start{false};
        std::vector<std::thread> writers;
        for (int t = 0; t < 4; ++t) {
          writers.emplace_back([&dataset, &start, t] {
            while (!start.load()) {
            }
            util::Rng rng(1000 + t);
            for (int i = 0; i < 200000; ++i) {
              const auto checkpoint = dataset.Checkpoint();
              data::Profile profile;
              profile.push_back(static_cast<data::ItemId>(
                  rng.UniformUint64(dataset.num_items())));
              dataset.AddUser(std::move(profile));
              dataset.RollbackTo(checkpoint);
            }
          });
        }
        start.store(true);
        for (auto& writer : writers) writer.join();
      },
      "concurrent Dataset mutation");
}

// Misuse: rolling back with a checkpoint that does not describe a prefix of
// the dataset (here: taken from a different dataset with another item
// universe) must abort, not silently mis-truncate.
TEST(DatasetStressTest, ForeignCheckpointIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        data::Dataset a = BuildSmallDataset(7);
        data::Dataset b(a.num_items() + 1);
        const auto checkpoint = b.Checkpoint();
        a.Checkpoint();  // enable journaling on `a`
        a.RollbackTo(checkpoint);
      },
      "");
}

// The black-box attack meters are relaxed atomics (CA_ATOMIC_ONLY): many
// threads querying one oracle must tally exactly, with no torn or lost
// increments for TSan to flag. (Injection mutates the dataset and stays
// single-threaded by contract; queries are the concurrent operation.)
TEST(BlackBoxStressTest, ConcurrentQueriesCountExactly) {
  const auto& tw = testhelpers::SharedTinyWorld();
  rec::PinSageLite model(tw.model);
  data::Dataset polluted = tw.split.train;
  model.BeginServing(polluted);
  rec::BlackBoxRecommender bb(&model, &polluted);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kQueriesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bb, t] {
      const std::vector<data::ItemId> candidates = {0, 1, 2, 3, 4, 5};
      for (std::size_t i = 0; i < kQueriesPerThread; ++i) {
        bb.QueryTopK(static_cast<data::UserId>(t % 4), candidates, 3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bb.query_count(), kThreads * kQueriesPerThread);
}

// Every MatrixFactorization epoch runs its BPR draws on a producer thread
// that hands triples to the fitting thread through a ring. Four threads
// each fit their own model over one shared const dataset larger than the
// ring; TSan checks each ring's hand-off, and every fit must equal the
// same fit run alone.
TEST(BprDrawsStressTest, ConcurrentMfFitsMatchSequentialFits) {
  const data::Dataset train =
      testhelpers::RandomProfiles(300, 200, 40, TestSeed(113));
  ASSERT_GT(train.num_interactions(),
            rec::kBprRingBlocks * rec::kBprBlockTriples);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kEpochs = 2;
  const auto fit = [&train](std::size_t t) {
    rec::MatrixFactorization mf;
    util::Rng rng(util::DeriveStreamSeed(TestSeed(127), t));
    mf.Fit(train, kEpochs, rng);
    return mf;
  };

  std::vector<rec::MatrixFactorization> sequential;
  for (std::size_t t = 0; t < kThreads; ++t) sequential.push_back(fit(t));
  std::vector<rec::MatrixFactorization> concurrent(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &fit, t] { concurrent[t] = fit(t); });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const auto member : {&rec::MatrixFactorization::user_embeddings,
                              &rec::MatrixFactorization::item_embeddings}) {
      const math::Matrix& expected = (sequential[t].*member)();
      const math::Matrix& actual = (concurrent[t].*member)();
      ASSERT_EQ(actual.size(), expected.size());
      EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                            expected.size() * sizeof(float)),
                0)
          << "fit " << t;
    }
  }
}

TEST(DatasetStressTest, RollbackWithoutCheckpointIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        data::Dataset dataset = BuildSmallDataset(7);
        data::DatasetCheckpoint forged;
        forged.item_profile_sizes.assign(dataset.num_items(), 0);
        dataset.RollbackTo(forged);
      },
      "RollbackTo without a prior Checkpoint");
}

}  // namespace
}  // namespace copyattack

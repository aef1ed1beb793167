// Tests of the fault-tolerance subsystem (ISSUE 5): the deterministic
// FaultInjector decorator, the ResilientBlackBox retry/backoff/circuit-
// breaker client, and the attack environment's proxy-reward degradation
// while the oracle is unavailable.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/environment.h"
#include "core/runner.h"
#include "fault/crash_point.h"
#include "fault/fault_injector.h"
#include "fault/resilient_black_box.h"
#include "gtest/gtest.h"
#include "rec/black_box.h"
#include "test_helpers.h"

namespace copyattack {
namespace {

using testhelpers::SharedTinyWorld;

/// Scripted in-memory oracle: answers every query with a fixed list and
/// fails on demand, so the decorators' behavior is fully controlled.
class FakeBlackBox : public rec::BlackBoxInterface {
 public:
  FakeBlackBox() : polluted_(8) {}

  rec::InjectResult Inject(data::Profile profile) override {
    ++inject_calls_;
    rec::InjectResult result;
    result.status = NextStatus();
    if (result.ok()) {
      result.user = polluted_.AddUser(std::move(profile));
      ++injected_profiles_;
    }
    return result;
  }

  rec::QueryResult Query(data::UserId /*user*/,
                         const std::vector<data::ItemId>& /*candidates*/,
                         std::size_t k) override {
    ++query_calls_;
    rec::QueryResult result;
    result.status = NextStatus();
    if (result.ok()) {
      for (std::size_t i = 0; i < k; ++i) {
        result.items.push_back(static_cast<data::ItemId>(serial_++ % 8));
      }
    }
    return result;
  }

  std::size_t query_count() const override { return query_calls_; }
  std::size_t injected_profiles() const override {
    return injected_profiles_;
  }
  std::size_t injected_interactions() const override { return 0; }
  void ResetCounters() override {}
  const data::Dataset& polluted() const override { return polluted_; }

  /// Statuses returned by upcoming operations, consumed front to back;
  /// once the script runs out, everything succeeds.
  void Script(std::deque<rec::BlackBoxStatus> statuses) {
    script_ = std::move(statuses);
  }
  void FailAlways(rec::BlackBoxStatus status) {
    fail_always_ = true;
    fail_status_ = status;
  }
  void Recover() {
    fail_always_ = false;
    script_.clear();
  }

  std::size_t inject_calls() const { return inject_calls_; }
  std::size_t query_calls() const { return query_calls_; }

 private:
  rec::BlackBoxStatus NextStatus() {
    if (fail_always_) return fail_status_;
    if (script_.empty()) return rec::BlackBoxStatus::kOk;
    const rec::BlackBoxStatus status = script_.front();
    script_.pop_front();
    return status;
  }

  data::Dataset polluted_;
  std::deque<rec::BlackBoxStatus> script_;
  bool fail_always_ = false;
  rec::BlackBoxStatus fail_status_ = rec::BlackBoxStatus::kTransientError;
  std::size_t inject_calls_ = 0;
  std::size_t query_calls_ = 0;
  std::size_t injected_profiles_ = 0;
  std::size_t serial_ = 0;
};

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, DisabledScheduleIsTransparent) {
  FakeBlackBox inner;
  fault::FaultScheduleConfig config;  // enabled = false
  fault::FaultInjector injector(&inner, config);
  EXPECT_TRUE(injector.Inject({0, 1, 2}).ok());
  const auto query = injector.Query(0, {0, 1, 2, 3}, 3);
  EXPECT_TRUE(query.ok());
  EXPECT_EQ(query.items.size(), 3U);
  EXPECT_EQ(injector.counts().TotalFired(), 0U);
  EXPECT_EQ(injector.injected_profiles(), 1U);
}

TEST(FaultInjectorTest, SameSeedSameScheduleIsBitIdentical) {
  const auto config = fault::FaultScheduleConfig::Aggressive(99);
  std::vector<rec::BlackBoxStatus> run_a, run_b;
  std::vector<std::vector<data::ItemId>> items_a, items_b;
  for (int run = 0; run < 2; ++run) {
    FakeBlackBox inner;
    fault::FaultInjector injector(&inner, config);
    auto& statuses = run == 0 ? run_a : run_b;
    auto& items = run == 0 ? items_a : items_b;
    for (int i = 0; i < 64; ++i) {
      statuses.push_back(injector.Inject({0, 1}).status);
      const auto query = injector.Query(0, {0, 1, 2, 3, 4}, 4);
      statuses.push_back(query.status);
      items.push_back(query.items);
    }
  }
  EXPECT_EQ(run_a, run_b);
  EXPECT_EQ(items_a, items_b);
}

TEST(FaultInjectorTest, AggressiveScheduleFiresEveryFaultClass) {
  FakeBlackBox inner;
  fault::FaultInjector injector(&inner,
                                fault::FaultScheduleConfig::Aggressive(7));
  for (int i = 0; i < 400; ++i) {
    injector.Inject({0, 1, 2});
    injector.Query(static_cast<data::UserId>(i % 3), {0, 1, 2, 3, 4}, 4);
  }
  const fault::FaultCounts& counts = injector.counts();
  EXPECT_GT(counts.query_transient, 0U);
  EXPECT_GT(counts.query_timeout, 0U);
  EXPECT_GT(counts.query_rate_limited, 0U);
  EXPECT_GT(counts.query_stale, 0U);
  EXPECT_GT(counts.query_truncated, 0U);
  EXPECT_GT(counts.inject_transient, 0U);
  EXPECT_GT(counts.inject_dropped, 0U);
}

TEST(FaultInjectorTest, TruncationKeepsAtLeastOneItem) {
  FakeBlackBox inner;
  fault::FaultScheduleConfig config;
  config.enabled = true;
  config.seed = 5;
  config.truncate_rate = 1.0;
  config.truncate_keep_fraction = 0.5;
  fault::FaultInjector injector(&inner, config);
  const auto query = injector.Query(0, {0, 1, 2, 3, 4, 5}, 6);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query.items.size(), 3U);
  // keep_fraction of a 1-item list still returns one item.
  config.truncate_keep_fraction = 0.01;
  fault::FaultInjector tiny(&inner, config);
  const auto one = tiny.Query(0, {0, 1}, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.items.size(), 1U);
}

TEST(FaultInjectorTest, StaleSnapshotServesPreviousList) {
  FakeBlackBox inner;
  fault::FaultScheduleConfig config;
  config.enabled = true;
  config.seed = 5;
  config.stale_topk_rate = 1.0;
  fault::FaultInjector injector(&inner, config);
  // First query: no snapshot yet, the fresh list is served and cached.
  const auto first = injector.Query(0, {0, 1, 2, 3}, 3);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(injector.counts().query_stale, 0U);
  // Second query: the fresh inner list differs (FakeBlackBox serial
  // counter), but the stale fault returns the first list.
  const auto second = injector.Query(0, {0, 1, 2, 3}, 3);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.items, first.items);
  EXPECT_EQ(injector.counts().query_stale, 1U);
  // A different user has no snapshot.
  const auto other = injector.Query(1, {0, 1, 2, 3}, 3);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.items, first.items);
}

TEST(FaultInjectorTest, SilentDropAcksWithoutLanding) {
  FakeBlackBox inner;
  fault::FaultScheduleConfig config;
  config.enabled = true;
  config.seed = 5;
  config.inject_drop_rate = 1.0;
  fault::FaultInjector injector(&inner, config);
  const auto result = injector.Inject({0, 1, 2});
  EXPECT_TRUE(result.ok()) << "silent drop must look like success";
  EXPECT_NE(result.user, data::kNoUser);
  EXPECT_EQ(inner.inject_calls(), 0U) << "nothing reached the oracle";
  EXPECT_EQ(injector.injected_profiles(), 0U);
  EXPECT_EQ(injector.counts().inject_dropped, 1U);
}

// ---------------------------------------------------------------------------
// ResilientBlackBox

TEST(ResilientBlackBoxTest, RetriesThroughTransientFailures) {
  FakeBlackBox inner;
  inner.Script({rec::BlackBoxStatus::kTransientError,
                rec::BlackBoxStatus::kTimeout});
  fault::ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 4;
  fault::ResilientBlackBox client(&inner, config);
  const auto result = client.Query(0, {0, 1, 2}, 2);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(inner.query_calls(), 3U);  // two failures + one success
  EXPECT_EQ(client.stats().retries, 2U);
  EXPECT_EQ(client.stats().retry_exhausted, 0U);
  EXPECT_GT(client.stats().total_backoff_us, 0U);
}

TEST(ResilientBlackBoxTest, RetryExhaustionReportsUnavailable) {
  FakeBlackBox inner;
  inner.FailAlways(rec::BlackBoxStatus::kTransientError);
  fault::ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 3;
  config.breaker.failure_threshold = 100;  // keep the breaker out of it
  fault::ResilientBlackBox client(&inner, config);
  const auto result = client.Query(0, {0, 1, 2}, 2);
  EXPECT_EQ(result.status, rec::BlackBoxStatus::kUnavailable);
  EXPECT_EQ(inner.query_calls(), 3U);
  EXPECT_EQ(client.stats().retries, 2U);
  EXPECT_EQ(client.stats().retry_exhausted, 1U);
}

TEST(ResilientBlackBoxTest, RetryingAnInjectResendsTheFullProfile) {
  FakeBlackBox inner;
  inner.Script({rec::BlackBoxStatus::kTransientError});
  fault::ResilienceConfig config;
  config.enabled = true;
  fault::ResilientBlackBox client(&inner, config);
  const auto result = client.Inject({3, 4, 5});
  ASSERT_TRUE(result.ok());
  // The retried attempt must deliver the same payload, not a moved-from
  // husk of the first attempt.
  EXPECT_EQ(client.polluted().UserProfile(result.user),
            (data::Profile{3, 4, 5}));
}

TEST(ResilientBlackBoxTest, BackoffGrowsExponentiallyUnderVirtualClock) {
  FakeBlackBox inner;
  inner.FailAlways(rec::BlackBoxStatus::kRateLimited);
  fault::ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_us = 1000;
  config.retry.backoff_multiplier = 2.0;
  config.retry.jitter = 0.0;  // exact expectations
  config.breaker.failure_threshold = 100;
  config.virtual_op_cost_us = 0;
  fault::ResilientBlackBox client(&inner, config);
  client.Query(0, {0}, 1);
  // Waits: 1000 + 2000 + ... for max_attempts-1 = 3 retries.
  EXPECT_EQ(client.stats().total_backoff_us, 1000U + 2000U + 4000U);
  EXPECT_EQ(client.virtual_now_us(), 7000U);
}

TEST(ResilientBlackBoxTest, NonRetryableStatusFailsFast) {
  FakeBlackBox inner;
  inner.FailAlways(rec::BlackBoxStatus::kUnavailable);
  fault::ResilienceConfig config;
  config.enabled = true;
  fault::ResilientBlackBox client(&inner, config);
  const auto result = client.Query(0, {0}, 1);
  EXPECT_EQ(result.status, rec::BlackBoxStatus::kUnavailable);
  EXPECT_EQ(inner.query_calls(), 1U);
  EXPECT_EQ(client.stats().retries, 0U);
}

TEST(ResilientBlackBoxTest, BreakerTripsHalfOpensAndCloses) {
  FakeBlackBox inner;
  inner.FailAlways(rec::BlackBoxStatus::kTransientError);
  fault::ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 1;  // every failed op is one failure
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration_us = 50000;
  config.breaker.half_open_successes = 1;
  config.virtual_op_cost_us = 10000;
  fault::ResilientBlackBox client(&inner, config);

  client.Query(0, {0}, 1);
  EXPECT_EQ(client.breaker_state(), fault::BreakerState::kClosed);
  client.Query(0, {0}, 1);  // second consecutive failure trips it
  EXPECT_EQ(client.breaker_state(), fault::BreakerState::kOpen);
  EXPECT_EQ(client.stats().breaker_trips, 1U);

  // While open (and young), calls are rejected without touching the
  // oracle; the virtual clock still advances toward the cool-down.
  const std::size_t calls_before = inner.query_calls();
  for (int i = 0; i < 4; ++i) {
    const auto rejected = client.Query(0, {0}, 1);
    EXPECT_EQ(rejected.status, rec::BlackBoxStatus::kUnavailable);
  }
  EXPECT_EQ(inner.query_calls(), calls_before);
  EXPECT_EQ(client.stats().short_circuited, 4U);

  // Cool-down elapsed: the next call is a half-open probe — it actually
  // reaches the oracle. It fails (and with max_attempts = 1 exhaustion
  // rewrites the status to kUnavailable), so the breaker reopens.
  const auto probe = client.Query(0, {0}, 1);
  EXPECT_EQ(probe.status, rec::BlackBoxStatus::kUnavailable);
  EXPECT_EQ(inner.query_calls(), calls_before + 1);
  EXPECT_EQ(client.breaker_state(), fault::BreakerState::kOpen);
  EXPECT_EQ(client.stats().breaker_reopens, 1U);

  // Oracle recovers; once the new cool-down elapses a successful probe
  // closes the breaker.
  inner.Recover();
  while (client.breaker_state() != fault::BreakerState::kClosed) {
    client.Query(0, {0}, 1);
  }
  EXPECT_EQ(client.stats().breaker_closes, 1U);
  EXPECT_TRUE(client.Query(0, {0}, 1).ok());
}

TEST(ResilientBlackBoxTest, DisabledConfigIsTransparent) {
  FakeBlackBox inner;
  inner.FailAlways(rec::BlackBoxStatus::kTransientError);
  fault::ResilienceConfig config;  // enabled = false
  fault::ResilientBlackBox client(&inner, config);
  const auto result = client.Query(0, {0}, 1);
  EXPECT_EQ(result.status, rec::BlackBoxStatus::kTransientError);
  EXPECT_EQ(inner.query_calls(), 1U);
  EXPECT_EQ(client.stats().retries, 0U);
}

// ---------------------------------------------------------------------------
// Environment integration

core::EnvConfig FaultyEnvConfig() {
  core::EnvConfig config;
  config.budget = 6;
  config.num_pretend_users = 4;
  config.query_interval = 2;
  config.query_candidates = 20;
  return config;
}

TEST(EnvironmentFaultTest, QueryRewardFallsBackToProxyWhileOracleDown) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model(tw.model);
  core::EnvConfig config = FaultyEnvConfig();
  // Every query fails; the resilient client exhausts its retries and the
  // breaker opens, so every reward round must degrade to the proxy
  // estimate instead of aborting the episode.
  config.fault.enabled = true;
  config.fault.seed = 3;
  config.fault.query_transient_rate = 1.0;
  config.resilience.enabled = true;
  config.resilience.retry.max_attempts = 2;
  core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                              config);
  env.Reset(tw.cold_target);
  std::size_t rounds = 0;
  while (!env.done()) {
    const auto step = env.Step({0, 1, 2});
    if (step.queried) ++rounds;
  }
  EXPECT_GT(rounds, 0U);
  EXPECT_EQ(env.proxy_reward_fallbacks(), rounds);
  ASSERT_NE(env.resilient(), nullptr);
  EXPECT_GT(env.resilient()->stats().retry_exhausted +
                env.resilient()->stats().short_circuited,
            0U);
}

TEST(EnvironmentFaultTest, FaultStackAbsentWhenDisabled) {
  const auto& tw = SharedTinyWorld();
  rec::PinSageLite model(tw.model);
  core::AttackEnvironment env(tw.world.dataset, tw.split.train, &model,
                              FaultyEnvConfig());
  env.Reset(tw.cold_target);
  EXPECT_EQ(env.fault_injector(), nullptr);
  EXPECT_EQ(env.resilient(), nullptr);
}

TEST(EnvironmentFaultTest, CampaignUnderFaultsIsDeterministic) {
  // Acceptance criterion: same seed + same fault schedule ⇒ bit-identical
  // campaign outcome, because the fault and jitter streams depend only on
  // (seed, call index), never on wall time.
  const auto& tw = SharedTinyWorld();
  core::CampaignConfig campaign;
  campaign.env = FaultyEnvConfig();
  campaign.env.fault = fault::FaultScheduleConfig::Aggressive(11);
  campaign.env.resilience.enabled = true;
  campaign.episodes = 2;
  campaign.eval_users = 30;
  campaign.eval_negatives = 40;
  campaign.seed = 5;
  util::Rng target_rng(testhelpers::TestSeed(73));
  const auto targets =
      data::SampleColdTargetItems(tw.world.dataset, 2, 10, target_rng);
  const core::StrategyFactory factory = [&](std::uint64_t) {
    return std::make_unique<core::TargetAttack>(tw.world.dataset, 0.7);
  };
  const auto a = core::RunCampaign(tw.world.dataset, tw.split.train,
                                   tw.ModelFactory(), factory, targets,
                                   campaign);
  const auto b = core::RunCampaign(tw.world.dataset, tw.split.train,
                                   tw.ModelFactory(), factory, targets,
                                   campaign);
  EXPECT_DOUBLE_EQ(a.metrics.at(20).hr, b.metrics.at(20).hr);
  EXPECT_DOUBLE_EQ(a.metrics.at(5).ndcg, b.metrics.at(5).ndcg);
  EXPECT_DOUBLE_EQ(a.avg_items_per_profile, b.avg_items_per_profile);
  EXPECT_DOUBLE_EQ(a.avg_final_reward, b.avg_final_reward);
}

// ---------------------------------------------------------------------------
// Deterministic crash points (ISSUE 10).

/// Always leave the process-global schedule disarmed, even on failure.
struct CrashScheduleGuard {
  ~CrashScheduleGuard() { fault::DisarmCrashSchedule(); }
};

TEST(CrashPointTest, DisarmedSitesAreFreeAndUncounted) {
  CrashScheduleGuard guard;
  ASSERT_FALSE(fault::CrashScheduleArmed());
  CA_CRASH_POINT("test.site_a");
  CA_CRASH_POINT("test.site_b");
  EXPECT_EQ(fault::CrashPointHits(), 0U);
}

TEST(CrashPointTest, CountOnlyScheduleCountsAndTracesEveryHit) {
  CrashScheduleGuard guard;
  const std::string trace =
      (std::filesystem::path(::testing::TempDir()) / "crash_trace.txt")
          .string();
  std::filesystem::remove(trace);
  fault::CrashScheduleConfig schedule;
  schedule.enabled = true;
  schedule.at_hit = 0;  // count/trace only, never fire
  schedule.trace_path = trace;
  fault::ArmCrashSchedule(schedule);
  CA_CRASH_POINT("test.alpha");
  CA_CRASH_POINT("test.beta");
  CA_CRASH_POINT("test.alpha");
  EXPECT_EQ(fault::CrashPointHits(), 3U);
  fault::DisarmCrashSchedule();

  std::ifstream in(trace);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[0], "test.alpha");
  EXPECT_EQ(lines[1], "test.beta");
  EXPECT_EQ(lines[2], "test.alpha");
}

TEST(CrashPointTest, SiteFilteredScheduleIndexesMatchingHitsOnly) {
  // at_hit counts hits OF THE NAMED SITE: the second beta must fire even
  // though alphas are interleaved before and between them.
  CrashScheduleGuard guard;
  fault::CrashScheduleConfig schedule;
  schedule.enabled = true;
  schedule.mode = fault::CrashMode::kThrow;
  schedule.site = "test.beta";
  schedule.at_hit = 2;
  fault::ArmCrashSchedule(schedule);
  CA_CRASH_POINT("test.alpha");
  CA_CRASH_POINT("test.beta");
  CA_CRASH_POINT("test.alpha");
  try {
    CA_CRASH_POINT("test.beta");
    FAIL() << "second test.beta hit did not fire";
  } catch (const fault::CrashForTest& crash) {
    EXPECT_EQ(crash.site, "test.beta");
    EXPECT_EQ(crash.hit, 4U);  // global hit index, for log correlation
  }
}

TEST(CrashPointTest, ThrowModeIsOneShot) {
  CrashScheduleGuard guard;
  fault::CrashScheduleConfig schedule;
  schedule.enabled = true;
  schedule.mode = fault::CrashMode::kThrow;
  schedule.at_hit = 1;
  fault::ArmCrashSchedule(schedule);
  EXPECT_THROW(CA_CRASH_POINT("test.once"), fault::CrashForTest);
  // Disarmed before the throw: recovery code re-entering the same site
  // (the post-crash checkpoint save) must run to completion.
  EXPECT_FALSE(fault::CrashScheduleArmed());
  CA_CRASH_POINT("test.once");  // must not fire again
}

}  // namespace
}  // namespace copyattack

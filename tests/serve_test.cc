// Tests of the attack-server subsystem (ISSUE 6): promotion-job CSV
// parsing, the job queue's producer/consumer handshake, the shared
// strategy dispatch table, end-to-end job execution with per-job
// checkpoint/resume, and the one surrogate a server shares across jobs.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "attack/surrogate.h"
#include "core/parallel_runner.h"
#include "obs/obs.h"
#include "serve/attack_server.h"
#include "serve/job_queue.h"
#include "test_helpers.h"
#include "test_seed.h"

namespace copyattack::serve {
namespace {

using testhelpers::ExpectResultsEqual;
using testhelpers::SharedTinyWorld;
using testhelpers::TinyWorld;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ParseJobsCsv, ParsesRowsSkippingHeaderCommentsAndBlanks) {
  std::istringstream in(
      "id,method,targets,budget,episodes,seed\n"
      "\n"
      "# promote the winter catalog\n"
      "promo-1,CopyAttack,4,10,3,99\n"
      "promo_2, TargetAttack40 , 2 , 5 , 1 , 7\n");
  std::vector<PromotionJob> jobs;
  std::string error;
  ASSERT_TRUE(ParseJobsCsv(in, &jobs, &error)) << error;
  ASSERT_EQ(jobs.size(), 2U);
  EXPECT_EQ(jobs[0].id, "promo-1");
  EXPECT_EQ(jobs[0].method, "CopyAttack");
  EXPECT_EQ(jobs[0].num_targets, 4U);
  EXPECT_EQ(jobs[0].budget, 10U);
  EXPECT_EQ(jobs[0].episodes, 3U);
  EXPECT_EQ(jobs[0].seed, 99U);
  EXPECT_EQ(jobs[1].id, "promo_2");
  EXPECT_EQ(jobs[1].method, "TargetAttack40");
  EXPECT_EQ(jobs[1].seed, 7U);
}

TEST(ParseJobsCsv, RejectsMalformedRowsWithLineNumbers) {
  const struct {
    const char* csv;
    const char* expect;
  } cases[] = {
      {"a,CopyAttack,1,1\n", "expected 6 fields"},
      {"bad id!,CopyAttack,1,1,1,1\n", "job id"},
      {"a,,1,1,1,1\n", "method"},
      {"a,CopyAttack,0,1,1,1\n", "targets"},
      {"a,CopyAttack,1,-3,1,1\n", "budget"},
      {"a,CopyAttack,1,1,x,1\n", "episodes"},
  };
  for (const auto& test_case : cases) {
    std::istringstream in(std::string("# leading comment\n") +
                          test_case.csv);
    std::vector<PromotionJob> jobs;
    std::string error;
    EXPECT_FALSE(ParseJobsCsv(in, &jobs, &error)) << test_case.csv;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find(test_case.expect), std::string::npos) << error;
  }
}

TEST(ParseJobsCsv, RejectsDuplicateJobIds) {
  // A duplicate id would collide on `checkpoint_root/job_<id>` and
  // silently resume the first job's checkpoint.
  std::istringstream in(
      "id,method,targets,budget,episodes,seed\n"
      "promo-1,CopyAttack,4,10,3,99\n"
      "promo-1,TargetAttack40,2,5,1,7\n");
  std::vector<PromotionJob> jobs;
  std::string error;
  EXPECT_FALSE(ParseJobsCsv(in, &jobs, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("duplicate job id 'promo-1'"), std::string::npos)
      << error;
}

TEST(ParseJobsCsv, RejectsBlankAndWhitespaceOnlyJobIds) {
  std::istringstream in(" ,CopyAttack,1,1,1,1\n");
  std::vector<PromotionJob> jobs;
  std::string error;
  EXPECT_FALSE(ParseJobsCsv(in, &jobs, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("blank"), std::string::npos) << error;
}

TEST(JobQueueTest, DeliversInFifoOrderThenSignalsClosed) {
  JobQueue queue;
  PromotionJob a;
  a.id = "a";
  PromotionJob b;
  b.id = "b";
  queue.Push(a);
  queue.Push(b);
  EXPECT_EQ(queue.pending(), 2U);
  queue.Close();
  EXPECT_TRUE(queue.closed());

  PromotionJob out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out.id, "a");
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out.id, "b");
  EXPECT_FALSE(queue.Pop(&out));
  EXPECT_FALSE(queue.Pop(&out));  // stays closed
}

TEST(JobQueueTest, BlockedConsumerWakesOnPushAndClose) {
  JobQueue queue;
  std::vector<std::string> seen;
  std::thread consumer([&] {
    PromotionJob job;
    while (queue.Pop(&job)) seen.push_back(job.id);
  });
  PromotionJob job;
  job.id = "x";
  queue.Push(job);
  job.id = "y";
  queue.Push(job);
  queue.Close();
  consumer.join();
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], "x");
  EXPECT_EQ(seen[1], "y");
}

TEST(JobQueueTest, TakeRemainingDrainsWithoutBlocking) {
  JobQueue queue;
  PromotionJob job;
  job.id = "r1";
  queue.Push(job);
  job.id = "r2";
  queue.Push(job);
  const std::vector<PromotionJob> remaining = queue.TakeRemaining();
  ASSERT_EQ(remaining.size(), 2U);
  EXPECT_EQ(remaining[0].id, "r1");
  EXPECT_EQ(remaining[1].id, "r2");
  EXPECT_EQ(queue.pending(), 0U);
  queue.Close();
  PromotionJob out;
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(MakeStrategyFactoryTest, ResolvesEveryKnownMethod) {
  const TinyWorld& world = SharedTinyWorld();
  const struct {
    const char* method;
    bool learns;
  } cases[] = {
      {"RandomAttack", false},      {"TargetAttack40", false},
      {"TargetAttack70", false},    {"TargetAttack100", false},
      {"PolicyNetwork", true},      {"CopyAttack", true},
      {"CopyAttack-Masking", true}, {"CopyAttack-Length", true},
      {"SurrogateTransfer", true},  {"Influence", true},
  };
  for (const auto& test_case : cases) {
    const StrategySpec spec = MakeStrategyFactory(
        world.world.dataset, world.artifacts, test_case.method);
    ASSERT_TRUE(static_cast<bool>(spec.factory)) << test_case.method;
    EXPECT_EQ(spec.learns, test_case.learns) << test_case.method;
    const auto strategy = spec.factory(1);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), test_case.method);
  }
  EXPECT_FALSE(static_cast<bool>(
      MakeStrategyFactory(world.world.dataset, world.artifacts, "Nope")
          .factory));
}

TEST(MakeStrategyFactoryTest, ResolvesSnakeCaseZooAliases) {
  const TinyWorld& world = SharedTinyWorld();
  const struct {
    const char* alias;
    const char* canonical;
  } cases[] = {
      {"surrogate_transfer", "SurrogateTransfer"},
      {"influence", "Influence"},
  };
  for (const auto& test_case : cases) {
    const StrategySpec spec = MakeStrategyFactory(
        world.world.dataset, world.artifacts, test_case.alias);
    ASSERT_TRUE(static_cast<bool>(spec.factory)) << test_case.alias;
    EXPECT_EQ(spec.factory(1)->name(), test_case.canonical);
  }
}

TEST(MakeStrategyFactoryTest, UnknownMethodErrorListsRegisteredNames) {
  const TinyWorld& world = SharedTinyWorld();
  const StrategySpec spec =
      MakeStrategyFactory(world.world.dataset, world.artifacts, "Nope");
  EXPECT_FALSE(static_cast<bool>(spec.factory));
  EXPECT_NE(spec.error.find("unknown --method 'Nope'"), std::string::npos)
      << spec.error;
  // The message must enumerate every registered method so a typo'd CLI
  // flag or job row is self-diagnosing.
  for (const std::string& name : RegisteredMethods()) {
    EXPECT_NE(spec.error.find(name), std::string::npos) << name;
  }
  // A resolvable method never carries an error.
  EXPECT_TRUE(MakeStrategyFactory(world.world.dataset, world.artifacts,
                                  "CopyAttack")
                  .error.empty());
}

ServerConfig TestServerConfig() {
  ServerConfig config;
  config.runner.jobs = 1;
  return config;
}

PromotionJob TestJob(const std::string& id, const std::string& method) {
  PromotionJob job;
  job.id = id;
  job.method = method;
  job.num_targets = 2;
  job.budget = 5;
  job.episodes = 2;
  job.seed = testhelpers::TestSeed(83);
  return job;
}

TEST(AttackServerTest, RunsJobsAndReportsUnknownMethods) {
  const TinyWorld& world = SharedTinyWorld();
  AttackServer server(world.world.dataset, world.split.train,
                      world.ModelFactory(), world.artifacts,
                      TestServerConfig());

  JobQueue queue;
  queue.Push(TestJob("ok-job", "TargetAttack40"));
  queue.Push(TestJob("bad-job", "NoSuchMethod"));
  queue.Close();

  const std::vector<JobReport> reports = server.Drain(&queue);
  ASSERT_EQ(reports.size(), 2U);
  EXPECT_TRUE(reports[0].ok);
  EXPECT_EQ(reports[0].job.id, "ok-job");
  EXPECT_GT(reports[0].result.aggregate.num_target_items, 0U);
  EXPECT_EQ(reports[0].result.aggregate.method, "TargetAttack40");
  EXPECT_FALSE(reports[1].ok);
  EXPECT_NE(reports[1].error.find("NoSuchMethod"), std::string::npos);
  EXPECT_EQ(server.jobs_run(), 1U);
  EXPECT_EQ(server.jobs_failed(), 1U);
}

TEST(AttackServerTest, JobCheckpointResumeMatchesUninterruptedJob) {
  const TinyWorld& world = SharedTinyWorld();
  const PromotionJob job = TestJob("resumable", "CopyAttack");

  // Reference: the job runs straight through without crash safety.
  AttackServer plain(world.world.dataset, world.split.train,
                     world.ModelFactory(), world.artifacts,
                     TestServerConfig());
  const JobReport reference = plain.RunJob(job);
  ASSERT_TRUE(reference.ok);
  ASSERT_FALSE(reference.result.aggregate.aborted);

  // Crash mid-job, then resume from `<root>/job_<id>`.
  const std::string root = FreshDir("attack_server_resume");
  ServerConfig crash_config = TestServerConfig();
  crash_config.checkpoint_root = root;
  crash_config.runner.checkpoint.abort_after_episodes = 2;
  AttackServer crashed(world.world.dataset, world.split.train,
                       world.ModelFactory(), world.artifacts,
                       crash_config);
  const JobReport aborted = crashed.RunJob(job);
  ASSERT_TRUE(aborted.ok);
  EXPECT_TRUE(aborted.result.aggregate.aborted);
  EXPECT_TRUE(std::filesystem::exists(root + "/job_" + job.id));

  ServerConfig resume_config = TestServerConfig();
  resume_config.checkpoint_root = root;
  resume_config.resume = true;
  AttackServer resumed_server(world.world.dataset, world.split.train,
                              world.ModelFactory(), world.artifacts,
                              resume_config);
  const JobReport resumed = resumed_server.RunJob(job);
  ASSERT_TRUE(resumed.ok);
  EXPECT_FALSE(resumed.result.aggregate.aborted);
  EXPECT_NE(resumed.result.aggregate.resumed_from,
            core::CheckpointSource::kNone);

  EXPECT_EQ(resumed.result.aggregate.avg_final_reward,
            reference.result.aggregate.avg_final_reward);
  EXPECT_EQ(resumed.result.aggregate.avg_profiles_injected,
            reference.result.aggregate.avg_profiles_injected);
  EXPECT_EQ(resumed.result.aggregate.num_target_items,
            reference.result.aggregate.num_target_items);
  for (const auto& [k, metrics] : reference.result.aggregate.metrics) {
    const auto it = resumed.result.aggregate.metrics.find(k);
    ASSERT_NE(it, resumed.result.aggregate.metrics.end());
    EXPECT_EQ(metrics.hr, it->second.hr);
    EXPECT_EQ(metrics.ndcg, it->second.ndcg);
  }
}

/// `attack.surrogate_epochs` counted over `body` with telemetry on.
template <typename Body>
std::uint64_t SurrogateEpochsDuring(Body body) {
  obs::Counter& epochs =
      obs::MetricsRegistry::Global().GetCounter("attack.surrogate_epochs");
  epochs.Reset();
  obs::SetEnabled(true);
  body();
  obs::SetEnabled(false);
  obs::TraceRecorder::Global().Clear();
  return epochs.Value();
}

TEST(AttackServerTest, SurrogateJobsShareOneModelAndMatchSeparateServers) {
  const TinyWorld& world = SharedTinyWorld();
  PromotionJob second_transfer = TestJob("transfer-2", "surrogate_transfer");
  second_transfer.seed = testhelpers::TestSeed(89);
  const std::vector<PromotionJob> jobs = {
      TestJob("transfer-1", "surrogate_transfer"),
      TestJob("influence", "influence"),
      TestJob("masking", "CopyAttack-Masking"), second_transfer};

  // One server drains the whole queue...
  std::vector<JobReport> shared;
  const std::uint64_t shared_epochs = SurrogateEpochsDuring([&] {
    AttackServer server(world.world.dataset, world.split.train,
                        world.ModelFactory(), world.artifacts,
                        TestServerConfig());
    JobQueue queue;
    for (const PromotionJob& job : jobs) queue.Push(job);
    queue.Close();
    shared = server.Drain(&queue);
  });
  // ...and each job is served alone by a fresh server.
  std::vector<JobReport> separate;
  const std::uint64_t separate_epochs = SurrogateEpochsDuring([&] {
    for (const PromotionJob& job : jobs) {
      AttackServer server(world.world.dataset, world.split.train,
                          world.ModelFactory(), world.artifacts,
                          TestServerConfig());
      separate.push_back(server.RunJob(job));
    }
  });

  ASSERT_EQ(shared.size(), jobs.size());
  ASSERT_EQ(separate.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].id);
    ASSERT_TRUE(shared[i].ok) << shared[i].error;
    ASSERT_TRUE(separate[i].ok) << separate[i].error;
    ExpectResultsEqual(shared[i].result, separate[i].result);
  }
  // The shared server trains once; a server per job trains once for each
  // of the three surrogate-based jobs.
  EXPECT_EQ(shared_epochs, attack::TargetSurrogate::kEpochs);
  EXPECT_EQ(separate_epochs, 3 * attack::TargetSurrogate::kEpochs);
}

TEST(AttackServerTest, SurrogateJobResumesOnServerHoldingAnotherJobsModel) {
  const TinyWorld& world = SharedTinyWorld();
  const PromotionJob job = TestJob("resumable-transfer", "surrogate_transfer");

  // Reference: the job runs straight through on a fresh server.
  AttackServer plain(world.world.dataset, world.split.train,
                     world.ModelFactory(), world.artifacts,
                     TestServerConfig());
  const JobReport reference = plain.RunJob(job);
  ASSERT_TRUE(reference.ok);
  ASSERT_FALSE(reference.result.aggregate.aborted);

  // The crash hook cuts every run on this server after three episodes:
  // the influence job plays two and completes, training the surrogate;
  // the transfer job (two targets, two episodes each) is cut inside its
  // second target and then resumes on the same server.
  const std::string root = FreshDir("attack_server_surrogate_resume");
  ServerConfig config = TestServerConfig();
  config.checkpoint_root = root;
  config.resume = true;
  config.runner.checkpoint.abort_after_episodes = 3;
  AttackServer server(world.world.dataset, world.split.train,
                      world.ModelFactory(), world.artifacts, config);
  PromotionJob influence = TestJob("warm-up", "influence");
  influence.num_targets = 1;

  JobReport warm_up, aborted, resumed;
  const std::uint64_t epochs = SurrogateEpochsDuring([&] {
    warm_up = server.RunJob(influence);
    aborted = server.RunJob(job);
    resumed = server.RunJob(job);
  });
  ASSERT_TRUE(warm_up.ok);
  ASSERT_FALSE(warm_up.result.aggregate.aborted);
  ASSERT_TRUE(aborted.ok);
  EXPECT_TRUE(aborted.result.aggregate.aborted);
  ASSERT_TRUE(resumed.ok);
  EXPECT_FALSE(resumed.result.aggregate.aborted);
  EXPECT_NE(resumed.result.aggregate.resumed_from,
            core::CheckpointSource::kNone);
  ExpectResultsEqual(resumed.result, reference.result);
  // Only the influence job trained: both transfer runs reused its model.
  EXPECT_EQ(epochs, attack::TargetSurrogate::kEpochs);
}

// ---------------------------------------------------------------------------
// Supervision (ISSUE 10): watchdog deadline, retries, quarantine, drain.

/// The drain flag is process-global; every drain test scopes it.
struct DrainGuard {
  DrainGuard() { ResetDrainForTest(); }
  ~DrainGuard() { ResetDrainForTest(); }
};

std::size_t ReadAttemptsFile(const std::string& job_dir) {
  std::ifstream in(AttemptsPath(job_dir));
  std::size_t attempts = 0;
  in >> attempts;
  return attempts;
}

TEST(AttackServerSupervisionTest, WedgedJobIsKilledRetriedAndQuarantined) {
  const TinyWorld& world = SharedTinyWorld();
  const std::string root = FreshDir("attack_server_wedged");
  ServerConfig config = TestServerConfig();
  config.checkpoint_root = root;
  config.job_deadline_seconds = 10.0;  // ten fake-clock ticks
  config.max_attempts = 2;
  config.retry_backoff_seconds = 0.25;
  // Virtual clock: every observation advances one second, so a job that
  // keeps playing episodes (each episode polls the watchdog) blows its
  // deadline deterministically, with no wall-clock in the test at all.
  auto ticks = std::make_shared<std::int64_t>(0);
  config.now_ns = [ticks] { return ++*ticks * 1'000'000'000; };
  auto slept = std::make_shared<std::vector<double>>();
  config.sleep_seconds = [slept](double s) { slept->push_back(s); };

  AttackServer server(world.world.dataset, world.split.train,
                      world.ModelFactory(), world.artifacts, config);
  // Wedged: far more episodes than the deadline allows. The quick job
  // behind it must still run — a wedged job must not stall the queue.
  PromotionJob wedged = TestJob("wedged", "CopyAttack");
  wedged.num_targets = 1;
  wedged.episodes = 200;
  JobQueue queue;
  queue.Push(wedged);
  queue.Push(TestJob("after-wedge", "TargetAttack40"));
  queue.Close();

  const std::vector<JobReport> reports = server.Drain(&queue);
  ASSERT_EQ(reports.size(), 2U);

  const JobReport& report = reports[0];
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.timed_out);
  EXPECT_TRUE(report.quarantined);
  EXPECT_EQ(report.attempts, 2U);
  EXPECT_NE(report.error.find("deadline"), std::string::npos)
      << report.error;
  // One retry => one backoff sleep, at the base interval.
  ASSERT_EQ(slept->size(), 1U);
  EXPECT_DOUBLE_EQ((*slept)[0], 0.25);
  // The burned attempts stay on disk (a restart must not grant the job a
  // fresh budget), and the quarantine ledger names the job.
  EXPECT_EQ(ReadAttemptsFile(root + "/job_wedged"), 2U);
  std::ifstream quarantine(QuarantinePath(root));
  ASSERT_TRUE(quarantine.is_open());
  std::string quarantine_text((std::istreambuf_iterator<char>(quarantine)),
                              std::istreambuf_iterator<char>());
  EXPECT_NE(quarantine_text.find("wedged,CopyAttack"), std::string::npos)
      << quarantine_text;

  // The queue kept moving: the job behind the wedge completed.
  EXPECT_TRUE(reports[1].ok);
  EXPECT_EQ(reports[1].job.id, "after-wedge");
  EXPECT_EQ(server.jobs_run(), 1U);
  EXPECT_EQ(server.jobs_failed(), 1U);

  // A resubmit of the quarantined job is refused before it runs: the
  // persisted attempt counter already exhausted max_attempts.
  AttackServer fresh(world.world.dataset, world.split.train,
                     world.ModelFactory(), world.artifacts, config);
  const JobReport resubmitted = fresh.RunJob(wedged);
  EXPECT_FALSE(resubmitted.ok);
  EXPECT_TRUE(resubmitted.quarantined);
  EXPECT_NE(resubmitted.error.find("quarantined before start"),
            std::string::npos)
      << resubmitted.error;
}

TEST(AttackServerSupervisionTest, UnlimitedAttemptsNeverQuarantine) {
  // max_attempts = 0 (the chaos soak's setting): a deadline kill retries
  // forever — here the clock freezes after the first kill, so the second
  // attempt runs to completion instead.
  const TinyWorld& world = SharedTinyWorld();
  const std::string root = FreshDir("attack_server_unlimited");
  ServerConfig config = TestServerConfig();
  config.checkpoint_root = root;
  config.job_deadline_seconds = 10.0;
  config.max_attempts = 0;
  auto ticks = std::make_shared<std::int64_t>(0);
  config.now_ns = [ticks] {
    if (*ticks < 12) ++*ticks;  // wedge attempt 1, then freeze the clock
    return *ticks * 1'000'000'000;
  };
  AttackServer server(world.world.dataset, world.split.train,
                      world.ModelFactory(), world.artifacts, config);
  // Enough episodes that attempt 1 cannot finish before the clock passes
  // the deadline (each episode polls the watchdog at least once).
  PromotionJob job = TestJob("eventually-ok", "CopyAttack");
  job.num_targets = 1;
  job.episodes = 30;
  const JobReport report = server.RunJob(job);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.timed_out);  // attempt 1 was killed
  EXPECT_FALSE(report.quarantined);
  EXPECT_GE(report.attempts, 2U);
  // Success clears the on-disk attempt counter.
  EXPECT_FALSE(std::filesystem::exists(AttemptsPath(root + "/job_" +
                                                    job.id)));
}

TEST(AttackServerDrainTest, DrainBeforeServingPersistsWholeQueue) {
  DrainGuard guard;
  const TinyWorld& world = SharedTinyWorld();
  const std::string root = FreshDir("attack_server_drain_idle");
  ServerConfig config = TestServerConfig();
  config.checkpoint_root = root;
  AttackServer server(world.world.dataset, world.split.train,
                      world.ModelFactory(), world.artifacts, config);
  JobQueue queue;
  queue.Push(TestJob("q1", "TargetAttack40"));
  queue.Push(TestJob("q2", "TargetAttack70"));
  queue.Close();

  RequestDrain();
  const std::vector<JobReport> reports = server.Drain(&queue);
  EXPECT_TRUE(reports.empty());

  std::ifstream in(RemainingJobsPath(root));
  ASSERT_TRUE(in.is_open());
  std::vector<PromotionJob> remaining;
  std::string error;
  ASSERT_TRUE(ParseJobsCsv(in, &remaining, &error)) << error;
  ASSERT_EQ(remaining.size(), 2U);
  EXPECT_EQ(remaining[0].id, "q1");
  EXPECT_EQ(remaining[1].id, "q2");
}

TEST(AttackServerDrainTest, MidRunDrainCheckpointsAndRequeuesCutJob) {
  DrainGuard guard;
  const TinyWorld& world = SharedTinyWorld();
  const std::string root = FreshDir("attack_server_drain_midrun");
  ServerConfig config = TestServerConfig();
  config.checkpoint_root = root;
  // The watchdog clock doubles as the deterministic "SIGTERM arrives
  // mid-job" trigger: the fourth observation raises the drain flag. The
  // deadline itself is far away — this job is healthy, just unlucky.
  config.job_deadline_seconds = 1e6;
  auto ticks = std::make_shared<std::int64_t>(0);
  config.now_ns = [ticks] {
    if (++*ticks == 4) RequestDrain();
    return *ticks;  // nanoseconds: elapsed stays ~0
  };
  AttackServer server(world.world.dataset, world.split.train,
                      world.ModelFactory(), world.artifacts, config);
  PromotionJob cut = TestJob("cut-short", "CopyAttack");
  cut.num_targets = 1;
  cut.episodes = 50;
  JobQueue queue;
  queue.Push(cut);
  queue.Push(TestJob("never-ran", "TargetAttack40"));
  queue.Close();

  const std::vector<JobReport> reports = server.Drain(&queue);
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_TRUE(reports[0].drained);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_FALSE(reports[0].timed_out);

  // The cut job is requeued FIRST (its checkpoint resumes the run), then
  // the job the drain never reached.
  std::ifstream in(RemainingJobsPath(root));
  ASSERT_TRUE(in.is_open());
  std::vector<PromotionJob> remaining;
  std::string error;
  ASSERT_TRUE(ParseJobsCsv(in, &remaining, &error)) << error;
  ASSERT_EQ(remaining.size(), 2U);
  EXPECT_EQ(remaining[0].id, "cut-short");
  EXPECT_EQ(remaining[1].id, "never-ran");
  // The drained attempt was rolled back — shutting the server down must
  // not burn the job's retry budget.
  EXPECT_EQ(ReadAttemptsFile(root + "/job_cut-short"), 0U);
  // And its checkpoint exists, so the restart resumes rather than replays.
  EXPECT_TRUE(std::filesystem::exists(root + "/job_cut-short"));
}

}  // namespace
}  // namespace copyattack::serve

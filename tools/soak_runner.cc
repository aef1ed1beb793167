// soak_runner: process-level chaos soak for the attack server (ISSUE 10
// tentpole). Loops fork / kill-at-a-random-crash-point / resume over an
// attack-server job queue and asserts that the final campaign outcomes
// are bit-identical to an uninterrupted run.
//
// usage: soak_runner [--cycles=20] [--seed=42] [--dir=PATH]
//                    [--jobs_file=jobs.csv] [--keep]
//
// Protocol (the parent stays single-threaded — fork() from a threaded
// process is undefined-behavior bingo, so every piece of real work runs
// in a forked child):
//   1. reference child: runs the queue uninterrupted with a count-only
//      crash schedule, dumping hexfloat outcomes + a crash-point trace.
//      The trace's line count T is the schedule universe.
//   2. K chaos cycles: each child arms a deterministic kill at hit
//      N_c = 1 + DeriveStreamSeed(seed, c) % T (exit-mode crash points,
//      `std::_Exit(134)` — no flushing, the in-process stand-in for
//      SIGKILL) and resumes the shared checkpoint tree. Exit 134 means
//      "died at the scheduled point" and the chain continues; exit 0
//      means the schedule outlived the remaining work, the run completed
//      — its outcomes must equal the reference bit-for-bit, and the
//      chain restarts from a clean tree.
//   3. final child: unarmed resume of whatever the last kill left
//      behind; must complete with outcomes bit-identical to reference.
//
// Exit status: 0 when every completed run matched the reference, 1 on
// any divergence or unexpected child status, 2 on usage errors.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "data/synthetic.h"
#include "fault/crash_point.h"
#include "serve/attack_server.h"
#include "serve/job_queue.h"
#include "util/string_utils.h"

namespace {

namespace core = copyattack::core;
namespace data = copyattack::data;
namespace fault = copyattack::fault;
namespace serve = copyattack::serve;
namespace util = copyattack::util;

struct Options {
  std::size_t cycles = 20;
  std::uint64_t seed = 42;
  std::string dir;
  std::string jobs_file;
  bool keep = false;
};

/// The built-in queue when no --jobs_file is given: one learning and one
/// single-episode baseline job, mirroring check_all.sh's parallel soak.
std::vector<serve::PromotionJob> DefaultJobs() {
  serve::PromotionJob copy;
  copy.id = "soak-copy";
  copy.method = "CopyAttack";
  copy.num_targets = 2;
  copy.budget = 6;
  copy.episodes = 3;
  copy.seed = 1337;
  serve::PromotionJob baseline;
  baseline.id = "soak-baseline";
  baseline.method = "TargetAttack40";
  baseline.num_targets = 2;
  baseline.budget = 6;
  baseline.episodes = 1;
  baseline.seed = 1337;
  return {copy, baseline};
}

/// Serves the queue once against `ckpt_root` (resume on) and writes the
/// outcomes, hexfloat so the comparison is bit-exact, to `out_path`.
/// Runs INSIDE a forked child. Returns the child's exit code; never
/// returns at all when an exit-mode crash point fires first.
int ChildServe(const std::vector<serve::PromotionJob>& jobs,
               const std::string& ckpt_root, const std::string& out_path,
               const fault::CrashScheduleConfig* schedule) {
  if (schedule != nullptr) fault::ArmCrashSchedule(*schedule);

  // The identical deterministic world the unit tests use
  // (tests/test_helpers.h): every child rebuilds it bit-for-bit, so the
  // only cross-child state is the checkpoint tree under test.
  const data::SyntheticWorld world =
      data::GenerateSyntheticWorld(data::SyntheticConfig::Tiny());
  // max_epochs = patience = 12 always trains the full 12 epochs.
  const core::World prepared = core::PrepareWorld(
      world.dataset, {.target = {.split_seed = 23,
                                 .train_seed = 29,
                                 .train = {.max_epochs = 12, .patience = 12}},
                      .source = {.mf_epochs = 8}});

  serve::ServerConfig config;
  config.runner.jobs = 1;  // serial: the crash-hit order must be total
  config.checkpoint_root = ckpt_root;
  config.resume = true;
  config.checkpoint_every = 1;
  // Scheduled crashes must never quarantine: the soak's contract is that
  // a killed job RESUMES, not that it gets parked after 3 kills.
  config.max_attempts = 0;

  serve::JobQueue queue;
  for (const serve::PromotionJob& job : jobs) queue.Push(job);
  queue.Close();

  serve::AttackServer server(world.dataset, prepared.target.split.train,
                             prepared.target.Factory(), prepared.source,
                             config);
  const std::vector<serve::JobReport> reports = server.Drain(&queue);

  std::ostringstream dump;
  dump << std::hexfloat;
  for (const serve::JobReport& report : reports) {
    if (!report.ok) {
      std::fprintf(stderr, "soak child: job %s failed: %s\n",
                   report.job.id.c_str(), report.error.c_str());
      return 3;
    }
    dump << "job " << report.job.id << '\n';
    for (std::size_t g = 0; g < report.result.outcomes.size(); ++g) {
      if (report.result.completed[g] == 0) {
        std::fprintf(stderr, "soak child: job %s target %zu incomplete\n",
                     report.job.id.c_str(), g);
        return 3;
      }
      const core::TargetOutcomeState& outcome = report.result.outcomes[g];
      dump << "  target " << g;
      for (const auto& [k, m] : outcome.metrics) {
        dump << " k" << k << " hr " << m.hr << " ndcg " << m.ndcg
             << " n " << m.count;
      }
      dump << " ipp " << outcome.items_per_profile << " inj "
           << outcome.profiles_injected << " rounds "
           << outcome.query_rounds << " reward " << outcome.final_reward
           << '\n';
    }
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) return 3;
  out << dump.str();
  out.close();
  return out ? 0 : 3;
}

/// Forks, runs `body` in the child (exiting with its return value via
/// `std::_Exit` so no parent-inherited state is flushed twice), and
/// returns the child's wait status to the parent.
int ForkAndWait(const std::function<int()>& body) {
  std::fflush(nullptr);  // don't let the child re-flush parent buffers
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("soak_runner: fork");
    std::exit(1);
  }
  if (pid == 0) std::_Exit(body());
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    std::perror("soak_runner: waitpid");
    std::exit(1);
  }
  return status;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t CountLines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::size_t parsed = 0;
    if (arg.rfind("--cycles=", 0) == 0) {
      if (!util::ParseSizeT(arg.substr(9), &parsed) || parsed == 0) {
        std::fprintf(stderr, "soak_runner: bad --cycles '%s'\n",
                     arg.c_str());
        return 2;
      }
      options.cycles = parsed;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!util::ParseSizeT(arg.substr(7), &parsed)) {
        std::fprintf(stderr, "soak_runner: bad --seed '%s'\n", arg.c_str());
        return 2;
      }
      options.seed = static_cast<std::uint64_t>(parsed);
    } else if (arg.rfind("--dir=", 0) == 0) {
      options.dir = arg.substr(6);
    } else if (arg.rfind("--jobs_file=", 0) == 0) {
      options.jobs_file = arg.substr(12);
    } else if (arg == "--keep") {
      options.keep = true;
    } else {
      std::fprintf(stderr,
                   "usage: soak_runner [--cycles=K] [--seed=S] "
                   "[--dir=PATH] [--jobs_file=jobs.csv] [--keep]\n");
      return 2;
    }
  }
  if (options.dir.empty()) {
    options.dir = (std::filesystem::temp_directory_path() /
                   ("copyattack_soak_" + std::to_string(::getpid())))
                      .string();
  }

  std::vector<serve::PromotionJob> jobs;
  if (options.jobs_file.empty()) {
    jobs = DefaultJobs();
  } else {
    std::ifstream in(options.jobs_file);
    if (!in) {
      std::fprintf(stderr, "soak_runner: cannot open --jobs_file %s\n",
                   options.jobs_file.c_str());
      return 2;
    }
    std::string error;
    if (!serve::ParseJobsCsv(in, &jobs, &error) || jobs.empty()) {
      std::fprintf(stderr, "soak_runner: bad --jobs_file: %s\n",
                   error.empty() ? "no jobs" : error.c_str());
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  const std::string ref_root = options.dir + "/ref_ckpt";
  const std::string ref_out = options.dir + "/ref_outcomes.txt";
  const std::string trace_path = options.dir + "/crash_trace.txt";
  const std::string chaos_root = options.dir + "/chaos_ckpt";
  const std::string chaos_out = options.dir + "/chaos_outcomes.txt";

  // 1. Reference: uninterrupted, count-only schedule measures the
  // crash-point universe T of one full run.
  std::printf("soak_runner: reference run (measuring crash-point "
              "universe)...\n");
  std::fflush(nullptr);
  {
    fault::CrashScheduleConfig count_only;
    count_only.enabled = true;
    count_only.at_hit = 0;  // never fire, just trace
    count_only.trace_path = trace_path;
    const int status = ForkAndWait([&] {
      return ChildServe(jobs, ref_root, ref_out, &count_only);
    });
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "soak_runner: reference run failed (status %d)\n",
                   status);
      return 1;
    }
  }
  const std::string reference = ReadFileOrEmpty(ref_out);
  const std::size_t universe = CountLines(ReadFileOrEmpty(trace_path));
  if (reference.empty() || universe == 0) {
    std::fprintf(stderr,
                 "soak_runner: reference produced no outcomes or no "
                 "crash-point hits\n");
    return 1;
  }
  std::printf("soak_runner: reference OK (%zu crash-point hits)\n",
              universe);

  // 2. Chaos chain: kill at a seeded random hit, resume, repeat.
  std::size_t kills = 0, completions = 0;
  for (std::size_t cycle = 1; cycle <= options.cycles; ++cycle) {
    const fault::CrashScheduleConfig schedule =
        fault::CrashScheduleConfig::Seeded(options.seed, cycle, universe);
    std::printf("soak_runner: cycle %zu/%zu (kill at hit %llu)\n", cycle,
                options.cycles,
                static_cast<unsigned long long>(schedule.at_hit));
    std::fflush(nullptr);
    const int status = ForkAndWait([&] {
      return ChildServe(jobs, chaos_root, chaos_out, &schedule);
    });
    if (WIFEXITED(status) && WEXITSTATUS(status) == fault::kCrashExitCode) {
      ++kills;  // died exactly where scheduled; next cycle resumes
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      // The schedule outlived the remaining (resumed) work: the run
      // completed, which is the moment of truth — bit-identical or bust.
      ++completions;
      if (ReadFileOrEmpty(chaos_out) != reference) {
        std::fprintf(stderr,
                     "soak_runner: cycle %zu outcomes DIVERGED from the "
                     "uninterrupted reference\n",
                     cycle);
        return 1;
      }
      // Chain restart: wipe the completed tree so later cycles kill
      // early phases again instead of no-opping on finished state.
      std::filesystem::remove_all(chaos_root, ec);
      std::filesystem::remove(chaos_out, ec);
      continue;
    }
    std::fprintf(stderr,
                 "soak_runner: cycle %zu: unexpected child status %d\n",
                 cycle, status);
    return 1;
  }

  // 3. Final: unarmed resume of whatever the last kill left behind.
  std::printf("soak_runner: final uninterrupted resume...\n");
  std::fflush(nullptr);
  {
    const int status = ForkAndWait(
        [&] { return ChildServe(jobs, chaos_root, chaos_out, nullptr); });
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "soak_runner: final resume failed (status %d)\n",
                   status);
      return 1;
    }
  }
  if (ReadFileOrEmpty(chaos_out) != reference) {
    std::fprintf(stderr,
                 "soak_runner: final outcomes DIVERGED from the "
                 "uninterrupted reference\n");
    return 1;
  }

  std::printf(
      "soak_runner: OK — %zu cycles (%zu kills, %zu mid-chain "
      "completions), final outcomes bit-identical to the uninterrupted "
      "run\n",
      options.cycles, kills, completions + 1);
  if (!options.keep) std::filesystem::remove_all(options.dir, ec);
  return 0;
}

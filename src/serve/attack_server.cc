#include "serve/attack_server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "attack/influence.h"
#include "attack/surrogate.h"
#include "attack/surrogate_transfer.h"
#include "core/baselines.h"
#include "core/copy_attack.h"
#include "data/target_items.h"
#include "fault/crash_point.h"
#include "obs/obs.h"
#include "obs/time.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace copyattack::serve {

namespace {

/// Set from the SIGTERM/SIGINT handler: a lock-free atomic store is the
/// whole async-signal-safe surface. Everything else (persisting the
/// remaining queue, flushing checkpoints) happens on the serving thread
/// once it observes the flag at a yield point.
std::atomic<bool> g_drain_requested{false};

void DrainSignalHandler(int /*signum*/) {
  g_drain_requested.store(true, std::memory_order_relaxed);
}

/// CSV-safe single field: commas and newlines in free-text error
/// messages would break the quarantine CSV's row structure.
std::string CsvSanitize(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return text;
}

std::size_t ReadAttempts(const std::string& job_dir) {
  if (job_dir.empty()) return 0;
  std::ifstream in(AttemptsPath(job_dir));
  if (!in) return 0;
  std::string text;
  std::getline(in, text);
  std::size_t attempts = 0;
  if (!util::ParseSizeT(util::Trim(text), &attempts)) return 0;
  return attempts;
}

void WriteAttempts(const std::string& job_dir, std::size_t attempts) {
  if (job_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(job_dir, ec);  // best effort
  std::ofstream out(AttemptsPath(job_dir), std::ios::trunc);
  if (out) out << attempts << '\n';
}

void ClearAttempts(const std::string& job_dir) {
  if (job_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove(AttemptsPath(job_dir), ec);
}

/// Appends one quarantine row (header on first write).
void AppendQuarantineRow(const std::string& checkpoint_root,
                         const PromotionJob& job, std::size_t attempts,
                         const std::string& last_error) {
  if (checkpoint_root.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(checkpoint_root, ec);
  const std::string path = QuarantinePath(checkpoint_root);
  const bool fresh = !std::filesystem::exists(path, ec);
  std::ofstream out(path, std::ios::app);
  if (!out) {
    CA_LOG(Warning) << "server: cannot append to quarantine file " << path;
    return;
  }
  if (fresh) {
    out << "id,method,targets,budget,episodes,seed,attempts,last_error\n";
  }
  out << job.id << ',' << job.method << ',' << job.num_targets << ','
      << job.budget << ',' << job.episodes << ',' << job.seed << ','
      << attempts << ',' << CsvSanitize(last_error) << '\n';
}

}  // namespace

void RequestDrain() {
  g_drain_requested.store(true, std::memory_order_relaxed);
}

bool DrainRequested() {
  return g_drain_requested.load(std::memory_order_relaxed);
}

void ResetDrainForTest() {
  g_drain_requested.store(false, std::memory_order_relaxed);
}

void InstallDrainSignalHandlers() {
  std::signal(SIGTERM, DrainSignalHandler);
  std::signal(SIGINT, DrainSignalHandler);
}

std::string QuarantinePath(const std::string& checkpoint_root) {
  return (std::filesystem::path(checkpoint_root) / "quarantine.csv")
      .string();
}

std::string RemainingJobsPath(const std::string& checkpoint_root) {
  return (std::filesystem::path(checkpoint_root) / "remaining_jobs.csv")
      .string();
}

std::string AttemptsPath(const std::string& job_dir) {
  return (std::filesystem::path(job_dir) / "attempts.count").string();
}

namespace {

core::StrategyFactory RandomAttackFactory(
    const data::CrossDomainDataset& dataset, const core::SourceArtifacts&,
    SurrogateSlot*) {
  return [&dataset](std::uint64_t) {
    return std::make_unique<core::RandomAttack>(dataset);
  };
}

template <int kKeepPercent>
core::StrategyFactory TargetAttackFactory(
    const data::CrossDomainDataset& dataset, const core::SourceArtifacts&,
    SurrogateSlot*) {
  return [&dataset](std::uint64_t) {
    return std::make_unique<core::TargetAttack>(dataset, kKeepPercent / 100.0);
  };
}

// The flat baseline of paper §5.1.4: CopyAttack over a one-level tree.
core::StrategyFactory PolicyNetworkFactory(
    const data::CrossDomainDataset& dataset,
    const core::SourceArtifacts& artifacts, SurrogateSlot*) {
  auto tree = core::BuildFlatTree(artifacts.mf.user_embeddings());
  return [&dataset, &artifacts, tree](std::uint64_t seed) {
    return std::make_unique<core::CopyAttack>(
        &dataset, tree, &artifacts.mf.user_embeddings(),
        &artifacts.mf.item_embeddings(), core::CopyAttackConfig{}, seed);
  };
}

template <bool kMasking, bool kCrafting>
core::StrategyFactory CopyAttackFactory(
    const data::CrossDomainDataset& dataset,
    const core::SourceArtifacts& artifacts, SurrogateSlot*) {
  core::CopyAttackConfig config;
  config.use_masking = kMasking;
  config.use_crafting = kCrafting;
  return [&dataset, &artifacts, config](std::uint64_t seed) {
    return std::make_unique<core::CopyAttack>(
        &dataset, &artifacts.tree, &artifacts.mf.user_embeddings(),
        &artifacts.mf.item_embeddings(), config, seed);
  };
}

// The surrogate trains into an empty slot, from a fixed seed
// (attack/surrogate.h); a filled slot already holds that same model.
// Every per-target strategy of the campaign — on every shard, and again
// after a resume — shares the identical read-only model, so the method
// stays bit-identical across shard counts, kill-and-resume, and whichever
// job filled the slot.
template <typename Attack>
core::StrategyFactory SurrogateFactory(const data::CrossDomainDataset& dataset,
                                       const core::SourceArtifacts&,
                                       SurrogateSlot* surrogate) {
  if (*surrogate == nullptr) {
    *surrogate =
        std::make_shared<const attack::TargetSurrogate>(dataset.target);
  }
  return [&dataset, model = *surrogate](std::uint64_t seed) {
    return std::make_unique<Attack>(&dataset, model, seed);
  };
}

constexpr auto kSurrogateTransfer =
    SurrogateFactory<attack::SurrogateTransferAttack>;
constexpr auto kInfluence = SurrogateFactory<attack::InfluenceAttack>;

struct Method {
  const char* name;
  core::StrategyFactory (*build)(const data::CrossDomainDataset&,
                                 const core::SourceArtifacts&,
                                 SurrogateSlot*);
  bool learns = true;
  /// Resolves like its method but is not listed in `RegisteredMethods`.
  bool alias = false;
};

/// The one method table, in registry order: `MakeStrategyFactory`
/// dispatches on it and `UnknownMethodError` checks names against it.
constexpr Method kMethods[] = {
    {"RandomAttack", RandomAttackFactory, /*learns=*/false},
    {"TargetAttack40", TargetAttackFactory<40>, /*learns=*/false},
    {"TargetAttack70", TargetAttackFactory<70>, /*learns=*/false},
    {"TargetAttack100", TargetAttackFactory<100>, /*learns=*/false},
    {"PolicyNetwork", PolicyNetworkFactory},
    {"CopyAttack", CopyAttackFactory<true, true>},
    {"CopyAttack-Masking", CopyAttackFactory<false, true>},
    {"CopyAttack-Length", CopyAttackFactory<true, false>},
    {"SurrogateTransfer", kSurrogateTransfer},
    {"Influence", kInfluence},
    {"surrogate_transfer", kSurrogateTransfer, /*learns=*/true,
     /*alias=*/true},
    {"influence", kInfluence, /*learns=*/true, /*alias=*/true}};

const Method* FindMethod(const std::string& name) {
  for (const Method& method : kMethods) {
    if (name == method.name) return &method;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& RegisteredMethods() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> listed;
    for (const Method& method : kMethods) {
      if (!method.alias) listed.push_back(method.name);
    }
    return listed;
  }();
  return names;
}

std::string UnknownMethodError(const std::string& method) {
  if (FindMethod(method) != nullptr) return "";
  std::string error = "unknown --method '" + method + "'; registered methods:";
  for (const std::string& name : RegisteredMethods()) error += ' ' + name;
  return error;
}

StrategySpec MakeStrategyFactory(const data::CrossDomainDataset& dataset,
                                 const core::SourceArtifacts& artifacts,
                                 const std::string& method,
                                 SurrogateSlot* surrogate) {
  CA_CHECK(surrogate != nullptr);
  StrategySpec spec;
  if (const Method* entry = FindMethod(method)) {
    spec.factory = entry->build(dataset, artifacts, surrogate);
    spec.learns = entry->learns;
  } else {
    spec.error = UnknownMethodError(method);
  }
  return spec;
}

StrategySpec MakeStrategyFactory(const data::CrossDomainDataset& dataset,
                                 const core::SourceArtifacts& artifacts,
                                 const std::string& method) {
  SurrogateSlot surrogate;
  return MakeStrategyFactory(dataset, artifacts, method, &surrogate);
}

AttackServer::AttackServer(const data::CrossDomainDataset& dataset,
                           const data::Dataset& target_train,
                           core::ModelFactory model_factory,
                           const core::SourceArtifacts& artifacts,
                           const ServerConfig& config)
    : dataset_(dataset),
      target_train_(target_train),
      model_factory_(std::move(model_factory)),
      artifacts_(artifacts),
      config_(config) {
  CA_CHECK(model_factory_ != nullptr);
  CA_CHECK_GT(config_.runner.jobs, 0U)
      << "--jobs must be a positive integer";
}

JobReport AttackServer::RunJob(const PromotionJob& job) {
  OBS_SPAN("server.job");
  JobReport report;
  report.job = job;

  const StrategySpec spec =
      MakeStrategyFactory(dataset_, artifacts_, job.method, &surrogate_);
  if (!spec.factory) {
    report.error = spec.error;
    ++jobs_failed_;
    OBS_COUNTER_INC("server.job_failures");
    CA_LOG(Warning) << "server: job " << job.id << " rejected: "
                    << report.error;
    return report;
  }

  util::Rng target_rng(job.seed);
  const std::vector<data::ItemId> targets = data::SampleColdTargetItems(
      dataset_, job.num_targets, config_.cold_max_interactions,
      target_rng);

  core::CampaignConfig campaign;
  campaign.env.budget = job.budget;
  campaign.episodes = spec.learns ? job.episodes : 1;
  campaign.seed = job.seed;

  const std::string job_dir =
      config_.checkpoint_root.empty()
          ? std::string()
          : config_.checkpoint_root + "/job_" + job.id;

  // Attempts already burned by crashed prior processes: the counter is
  // bumped on disk BEFORE each attempt runs and cleared only on success,
  // so a hard kill mid-attempt still counts against `max_attempts`.
  report.attempts = ReadAttempts(job_dir);
  const auto exhausted = [this](std::size_t attempts) {
    return config_.max_attempts > 0 && attempts >= config_.max_attempts;
  };
  if (exhausted(report.attempts)) {
    report.error = "quarantined before start: " +
                   std::to_string(report.attempts) +
                   " prior attempt(s) crashed or timed out";
    report.quarantined = true;
    ++jobs_failed_;
    OBS_COUNTER_INC("server.job_failures");
    OBS_COUNTER_INC("server.quarantined");
    AppendQuarantineRow(config_.checkpoint_root, job, report.attempts,
                        report.error);
    CA_LOG(Warning) << "server: job " << job.id << " " << report.error;
    return report;
  }

  const auto now_seconds = [this] {
    return static_cast<double>(config_.now_ns ? config_.now_ns()
                                              : obs::MonotonicNanos()) *
           1e-9;
  };

  // Retry loop: each attempt resumes from the job's last checkpoint (the
  // watchdog kill happens at an episode boundary, where the checkpoint
  // is already flushed — rollback and retry are the same operation).
  bool resume = config_.resume;
  while (true) {
    CA_CRASH_POINT("serve.job_begin");
    ++report.attempts;
    WriteAttempts(job_dir, report.attempts);

    core::ParallelRunnerOptions options = config_.runner;
    options.checkpoint = core::CampaignCheckpointOptions{};
    // The simulated-crash hook passes through so tests can kill a job
    // mid-campaign and resume it.
    options.checkpoint.abort_after_episodes =
        config_.runner.checkpoint.abort_after_episodes;
    if (!job_dir.empty()) {
      options.checkpoint.dir = job_dir;
      options.checkpoint.resume = resume;
      options.checkpoint.every_episodes = config_.checkpoint_every;
    }

    // Watchdog + drain, enforced cooperatively at episode boundaries.
    const double deadline = config_.job_deadline_seconds;
    const double started = deadline > 0.0 ? now_seconds() : 0.0;
    std::atomic<bool> deadline_hit{false};
    options.cancel = [this, deadline, started, &deadline_hit,
                      &now_seconds] {
      if (DrainRequested()) return true;
      if (deadline > 0.0 && now_seconds() - started > deadline) {
        deadline_hit.store(true, std::memory_order_relaxed);
        return true;
      }
      return deadline_hit.load(std::memory_order_relaxed);
    };

    const core::ParallelCampaignRunner runner(dataset_, target_train_,
                                              model_factory_,
                                              spec.factory, options);
    report.result = runner.Run(targets, campaign);

    if (deadline_hit.load(std::memory_order_relaxed)) {
      report.timed_out = true;
      report.error = "deadline exceeded (" +
                     std::to_string(report.attempts) + " attempt(s), " +
                     std::to_string(deadline) +
                     "s each); rolled back to last checkpoint";
      OBS_COUNTER_INC("server.watchdog_timeouts");
      CA_LOG(Warning) << "server: job " << job.id
                      << " deadline-killed on attempt " << report.attempts;
      if (exhausted(report.attempts)) {
        report.quarantined = true;
        ++jobs_failed_;
        OBS_COUNTER_INC("server.job_failures");
        OBS_COUNTER_INC("server.quarantined");
        AppendQuarantineRow(config_.checkpoint_root, job, report.attempts,
                            report.error);
        CA_LOG(Warning) << "server: job " << job.id << " quarantined";
        return report;
      }
      // Backoff, then retry from the checkpoint the killed attempt left.
      if (config_.retry_backoff_seconds > 0.0) {
        double backoff = config_.retry_backoff_seconds;
        for (std::size_t k = 1; k + 1 < report.attempts; ++k) {
          backoff *= 2.0;
        }
        if (config_.sleep_seconds) {
          config_.sleep_seconds(backoff);
        } else {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
        }
      }
      resume = !job_dir.empty();
      OBS_COUNTER_INC("server.retries");
      continue;
    }

    if (report.result.aggregate.aborted && DrainRequested()) {
      // Not a failure: the drain cut the job short at a checkpointed
      // boundary. Roll the attempt back so the restart doesn't pay for
      // our shutdown, and leave the checkpoint for `--resume`.
      report.drained = true;
      report.error = "drained before completion (checkpoint flushed)";
      if (report.attempts > 0) WriteAttempts(job_dir, report.attempts - 1);
      CA_LOG(Info) << "server: job " << job.id << " drained mid-run";
      return report;
    }

    // Success (or a simulated-crash abort from the test hook, which the
    // caller resumes explicitly). Crash point BEFORE the attempt counter
    // clears: a kill here must leave the job resumable, not quarantined
    // — the completed-targets checkpoint makes the rerun cheap.
    CA_CRASH_POINT("serve.job_commit");
    ClearAttempts(job_dir);
    report.ok = true;
    ++jobs_run_;
    OBS_COUNTER_INC("server.jobs");
    CA_LOG(Info) << "server: job " << job.id << " (" << job.method << ", "
                 << targets.size() << " targets) done on attempt "
                 << report.attempts;
    return report;
  }
}

std::vector<JobReport> AttackServer::Drain(JobQueue* queue) {
  CA_CHECK(queue != nullptr);
  std::vector<JobReport> reports;
  PromotionJob job;
  while (!DrainRequested() && queue->Pop(&job)) {
    OBS_GAUGE_SET("server.queue_depth",
                  static_cast<double>(queue->pending()));
    reports.push_back(RunJob(job));
  }
  if (DrainRequested()) {
    // Persist what we never got to run so the operator can restart with
    // `--queue remaining_jobs.csv --resume=1` and lose nothing. A job the
    // drain cut short mid-run goes back on the list first: its checkpoint
    // makes the rerun resume where the drain stopped it.
    std::vector<PromotionJob> remaining = queue->TakeRemaining();
    if (!reports.empty() && reports.back().drained) {
      remaining.insert(remaining.begin(), reports.back().job);
    }
    if (!config_.checkpoint_root.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config_.checkpoint_root, ec);
      std::ofstream out(RemainingJobsPath(config_.checkpoint_root),
                        std::ios::trunc);
      if (out) WriteJobsCsv(remaining, out);
    }
    CA_LOG(Info) << "server: drain requested; " << remaining.size()
                 << " queued job(s) persisted, exiting gracefully";
  }
  return reports;
}

}  // namespace copyattack::serve

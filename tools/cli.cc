#include "cli.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/parallel_runner.h"
#include "core/runner.h"
#include "data/io.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "obs/time.h"
#include "obs/trace.h"
#include "serve/attack_server.h"
#include "serve/job_queue.h"
#include "util/flags.h"
#include "util/string_utils.h"

#include "recipes.h"

namespace copyattack::tools {
namespace {

util::FlagParser MakeParser() {
  util::FlagParser parser;
  parser.Define("config", "small",
                "generate: world preset (small|large|tiny); recipe "
                "arms_race_frontier: tiny|small")
      .Define("out", "world", "generate: output path prefix")
      .Define("data", "world", "stats/train/attack: dataset path prefix")
      .Define("seed", "7", "generate/attack: RNG seed")
      .Define("max-epochs", "40", "train: epoch cap")
      .Define("patience", "5", "train: early-stopping patience")
      .Define("method", "CopyAttack",
              "attack: method name (CopyAttack[-Masking|-Length], "
              "PolicyNetwork, RandomAttack, TargetAttack40/70/100, "
              "surrogate_transfer, influence)")
      .DefinePositiveInt("targets", "10",
                         "attack: number of cold target items")
      .DefinePositiveInt("budget", "30", "attack: profile budget per episode")
      .DefinePositiveInt("episodes", "15",
                         "attack: training episodes (learning methods)")
      .DefinePositiveInt("depth", "3", "attack: clustering tree depth")
      .DefinePositiveInt("jobs", "1",
                         "attack/attack-server: campaign-runner worker "
                         "threads")
      .Define("queue", "-",
              "attack-server: promotion-jobs CSV path ('-' = stdin)")
      .Define("checkpoint_root", "",
              "attack-server: per-job checkpoint tree root (empty = off)")
      .Define("job_deadline", "0",
              "attack-server: per-job wall-clock deadline in seconds; "
              "overrunning jobs are killed at an episode boundary and "
              "retried from their checkpoint (0 = no watchdog)")
      .Define("max_attempts", "3",
              "attack-server: attempts (runs + retries, crashes included) "
              "before a job is parked in quarantine.csv (0 = unlimited)")
      .Define("retry_backoff", "0",
              "attack-server: base of the exponential retry backoff in "
              "seconds (0 = retry immediately)")
      .Define("faults", "off",
              "attack: black-box fault schedule (off|light|aggressive); "
              "anything but off also enables the resilient retry client")
      .Define("fault_seed", "64279", "attack: fault-schedule RNG seed")
      .Define("checkpoint_dir", "",
              "attack: crash-safe checkpoint directory (empty = off)")
      .DefinePositiveInt("checkpoint_every", "1",
                         "attack: episodes between mid-target checkpoints")
      .Define("resume", "0",
              "attack: resume from --checkpoint_dir if a checkpoint exists")
      .Define("telemetry_out", "",
              "any command: enable telemetry and export metrics.csv, "
              "summary.json and trace.json into this directory");
  return parser;
}

int PrintHelp(const util::FlagParser& parser, std::ostream& out) {
  out << "usage: copyattack "
         "<generate|stats|train|attack|attack-server|recipe|help> [flags]\n\n"
      << "flags:\n"
      << parser.HelpText();
  return 0;
}

int CmdGenerate(const util::FlagParser& parser, std::ostream& out) {
  data::SyntheticConfig config;
  const std::string preset = parser.GetString("config");
  if (preset == "small") {
    config = data::SyntheticConfig::SmallCross();
  } else if (preset == "large") {
    config = data::SyntheticConfig::LargeCross();
  } else if (preset == "tiny") {
    config = data::SyntheticConfig::Tiny();
  } else {
    out << "error: unknown --config " << preset << '\n';
    return 2;
  }
  if (parser.WasSupplied("seed")) {
    config.seed = parser.GetSizeT("seed");
  }
  const data::SyntheticWorld world = data::GenerateSyntheticWorld(config);
  const std::string prefix = parser.GetString("out");
  if (!data::SaveCrossDomain(world.dataset, prefix)) {
    out << "error: could not write " << prefix << ".*.csv\n";
    return 1;
  }
  out << data::FormatStats(data::ComputeStats(world.dataset));
  out << "written: " << prefix << ".{meta,target,source}.csv\n";
  return 0;
}

/// Loads a dataset pair or reports the failure.
bool LoadOrComplain(const util::FlagParser& parser,
                    data::CrossDomainDataset* dataset, std::ostream& out) {
  const std::string prefix = parser.GetString("data");
  data::IoError error;
  if (!data::LoadCrossDomain(prefix, dataset, &error)) {
    out << "error: could not load dataset prefix " << prefix << ": "
        << error.Format() << '\n';
    return false;
  }
  return true;
}

int CmdStats(const util::FlagParser& parser, std::ostream& out) {
  data::CrossDomainDataset dataset("", 1);
  if (!LoadOrComplain(parser, &dataset, out)) return 1;
  out << data::FormatStats(data::ComputeStats(dataset));
  return 0;
}

int CmdTrain(const util::FlagParser& parser, std::ostream& out) {
  data::CrossDomainDataset dataset("", 1);
  if (!LoadOrComplain(parser, &dataset, out)) return 1;

  core::TargetModelOptions options;
  options.train.max_epochs = parser.GetSizeT("max-epochs");
  options.train.patience = parser.GetSizeT("patience");
  obs::Stopwatch watch;
  const rec::TrainReport report =
      core::TrainTargetModel(dataset.target, options).report;
  out << "epochs:        " << report.epochs_run << '\n'
      << "valid HR@10:   " << report.best_valid_hr << '\n'
      << "test  HR@10:   " << report.test_hr << '\n'
      << "test  NDCG@10: " << report.test_ndcg << '\n'
      << "wall seconds:  " << watch.ElapsedSeconds() << '\n';
  return 0;
}

int CmdAttack(const util::FlagParser& parser, std::ostream& out) {
  data::CrossDomainDataset dataset("", 1);
  if (!LoadOrComplain(parser, &dataset, out)) return 1;

  core::CampaignConfig campaign;
  campaign.env.budget = parser.GetSizeT("budget");
  campaign.episodes = parser.GetSizeT("episodes");
  campaign.seed = parser.GetSizeT("seed");
  campaign.num_threads = parser.GetSizeT("jobs");

  // Flag values are checked before the (expensive) set-up.
  const std::string faults = parser.GetString("faults");
  if (faults != "off") {
    const std::uint64_t fault_seed = parser.GetSizeT("fault_seed");
    if (faults == "light") {
      campaign.env.fault = fault::FaultScheduleConfig::Light(fault_seed);
    } else if (faults == "aggressive") {
      campaign.env.fault = fault::FaultScheduleConfig::Aggressive(fault_seed);
    } else {
      out << "error: unknown --faults " << faults << '\n';
      return 2;
    }
    // A faulty oracle without the resilient client would poison rewards
    // with transient errors, so the two are enabled together.
    campaign.env.resilience.enabled = true;
    campaign.env.resilience.seed = fault_seed ^ 0x5EEDULL;
  }

  campaign.checkpoint.dir = parser.GetString("checkpoint_dir");
  campaign.checkpoint.resume = parser.GetBool("resume");
  campaign.checkpoint.every_episodes = parser.GetSizeT("checkpoint_every");

  const core::World world = core::PrepareWorld(
      dataset, {.source = {.tree_depth = parser.GetSizeT("depth")}});
  out << "target model test HR@10: " << world.target.report.test_hr << '\n';
  util::Rng target_rng(parser.GetSizeT("seed"));
  const auto targets = data::SampleColdTargetItems(
      dataset, parser.GetSizeT("targets"), 10, target_rng);
  out << "attacking " << targets.size() << " cold target items\n";

  const std::string method = parser.GetString("method");
  const serve::StrategySpec spec =
      serve::MakeStrategyFactory(dataset, world.source, method);
  if (!spec.factory) {
    out << "error: " << spec.error << '\n';
    return 2;
  }
  if (!spec.learns) campaign.episodes = 1;

  out << core::CampaignRowHeader() << '\n';
  const data::Dataset& train = world.target.split.train;
  const auto clean = core::EvaluateWithoutAttack(
      dataset, train, world.target.Factory(), targets, campaign);
  out << core::FormatCampaignRow(clean) << '\n';

  core::ParallelRunnerOptions options;
  options.jobs = campaign.num_threads;
  options.checkpoint = campaign.checkpoint;
  const core::ParallelCampaignResult run =
      core::ParallelCampaignRunner(dataset, train, world.target.Factory(),
                                   spec.factory, options)
          .Run(targets, campaign);
  const core::CampaignResult& attacked = run.aggregate;
  out << core::FormatCampaignRow(attacked) << '\n';
  out << "throughput: " << util::FormatDouble(run.campaigns_per_sec, 2)
      << " campaigns/s over " << options.jobs << " jobs\n";
  if (!campaign.checkpoint.dir.empty()) {
    out << "checkpoints: " << attacked.checkpoint_saves << " saved";
    if (attacked.resumed_from != core::CheckpointSource::kNone) {
      out << ", resumed from " << core::ToString(attacked.resumed_from);
    }
    out << '\n';
  }
  return 0;
}

int CmdAttackServer(const util::FlagParser& parser, std::ostream& out) {
  data::CrossDomainDataset dataset("", 1);
  if (!LoadOrComplain(parser, &dataset, out)) return 1;

  // Parse the job queue up front so a malformed CSV fails before the
  // (expensive) model training.
  std::vector<serve::PromotionJob> jobs;
  std::string parse_error;
  const std::string queue_path = parser.GetString("queue");
  bool parsed = false;
  if (queue_path == "-") {
    parsed = serve::ParseJobsCsv(std::cin, &jobs, &parse_error);
  } else {
    std::ifstream in(queue_path);
    if (!in) {
      out << "error: could not open --queue " << queue_path << '\n';
      return 1;
    }
    parsed = serve::ParseJobsCsv(in, &jobs, &parse_error);
  }
  if (!parsed) {
    out << "error: " << parse_error << '\n';
    return 2;
  }
  if (jobs.empty()) {
    out << "error: --queue " << queue_path << " holds no jobs\n";
    return 2;
  }

  const core::World world = core::PrepareWorld(
      dataset, {.source = {.tree_depth = parser.GetSizeT("depth")}});
  out << "target model test HR@10: " << world.target.report.test_hr << '\n';

  serve::ServerConfig server_config;
  server_config.runner.jobs = parser.GetSizeT("jobs");
  server_config.checkpoint_root = parser.GetString("checkpoint_root");
  server_config.resume = parser.GetBool("resume");
  server_config.checkpoint_every = parser.GetSizeT("checkpoint_every");
  server_config.job_deadline_seconds = parser.GetDouble("job_deadline");
  server_config.max_attempts = parser.GetSizeT("max_attempts");
  server_config.retry_backoff_seconds = parser.GetDouble("retry_backoff");

  // SIGTERM/SIGINT now drain gracefully: the running job stops at its
  // next checkpointed episode boundary and the un-run queue is persisted
  // under the checkpoint root.
  serve::InstallDrainSignalHandlers();

  serve::JobQueue queue;
  for (serve::PromotionJob& job : jobs) queue.Push(std::move(job));
  queue.Close();

  serve::AttackServer server(dataset, world.target.split.train,
                             world.target.Factory(), world.source,
                             server_config);
  out << "serving " << jobs.size() << " promotion jobs ("
      << server_config.runner.jobs << " worker threads)\n";
  const std::vector<serve::JobReport> reports = server.Drain(&queue);

  bool any_failed = false;
  out << core::CampaignRowHeader() << '\n';
  for (const serve::JobReport& report : reports) {
    if (report.drained) {
      out << "job " << report.job.id << ": drained: " << report.error
          << '\n';
      continue;  // not a failure: checkpointed, resumable
    }
    if (!report.ok) {
      any_failed = true;
      out << "job " << report.job.id
          << (report.quarantined ? ": quarantined: " : ": error: ")
          << report.error << '\n';
      continue;
    }
    std::ostringstream label;
    label << report.job.id << ":" << report.result.aggregate.method;
    core::CampaignResult row = report.result.aggregate;
    row.method = label.str();
    out << core::FormatCampaignRow(row) << "  ("
        << util::FormatDouble(report.result.campaigns_per_sec, 2)
        << " campaigns/s)\n";
  }
  out << "served " << server.jobs_run() << " jobs, "
      << server.jobs_failed() << " failed\n";
  return any_failed ? 1 : 0;
}

int CmdRecipe(const util::FlagParser& parser, std::ostream& out) {
  const std::vector<std::string>& names = parser.positional();
  const bench::Recipe* recipe =
      names.size() == 1 ? bench::FindRecipe(names[0]) : nullptr;
  if (recipe == nullptr) {
    out << "error: "
        << (names.empty() ? std::string("recipe needs a name")
                          : "unknown recipe '" + util::Join(names, " ") + "'")
        << "; recipes:\n";
    for (const bench::Recipe& r : bench::Recipes()) {
      out << "  " << r.name << ": " << r.doc << '\n';
    }
    return 2;
  }
  return bench::RunRecipe(*recipe, parser.GetString("config"), out);
}

}  // namespace

int DispatchCommand(const util::FlagParser& parser, std::ostream& out) {
  const std::string& command = parser.command();
  if (command == "generate") return CmdGenerate(parser, out);
  if (command == "stats") return CmdStats(parser, out);
  if (command == "train") return CmdTrain(parser, out);
  if (command == "attack") return CmdAttack(parser, out);
  if (command == "attack-server") return CmdAttackServer(parser, out);
  if (command == "recipe") return CmdRecipe(parser, out);
  if (command.empty() || command == "help") {
    return PrintHelp(parser, out);
  }
  out << "error: unknown command '" << command << "'\n";
  PrintHelp(parser, out);
  return 2;
}

int RunCli(int argc, const char* const* argv, std::ostream& out) {
  util::FlagParser parser = MakeParser();
  if (!parser.Parse(argc - 1, argv + 1)) {
    out << "error: " << parser.error() << '\n';
    PrintHelp(parser, out);
    return 2;
  }
  const std::string telemetry_dir = parser.GetString("telemetry_out");
  if (!telemetry_dir.empty()) obs::SetEnabled(true);
  const int status = DispatchCommand(parser, out);
  if (!telemetry_dir.empty()) {
    obs::SetEnabled(false);
    if (obs::ExportAll(telemetry_dir)) {
      out << "telemetry written to " << telemetry_dir << '\n';
    } else {
      out << "error: could not write telemetry to " << telemetry_dir << '\n';
      return status != 0 ? status : 1;
    }
  }
  return status;
}

}  // namespace copyattack::tools

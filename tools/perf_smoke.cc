// Perf smoke check for the episode hot path. Measures, on the synthetic
// LargeCross pair:
//   - steady-state episode Reset latency (snapshot/rollback fast path),
//   - the legacy reset recipe (deep-copy + re-add pretend users +
//     BeginServing) replicated in-process for a fair before/after,
//   - per-injection latency across quartiles of a 128-profile campaign
//     (amortized growth means the quartiles should be flat),
//   - Dot/Axpy/SquaredDistance kernel throughput at dim 256,
//   - observability overhead: reset/injection latency with telemetry
//     runtime-disabled (the default) vs runtime-enabled.
//
// Writes one CSV row to the path given as argv[1] (default
// bench_results/micro_hotpath.csv relative to the working directory) and
// mirrors it on stdout; next to it, obs_overhead.csv (the enabled-vs-
// disabled comparison), campaign_scaling.csv (the sharded-runner
// threads x campaigns/sec sweep, ISSUE 6) and telemetry_largecross.json
// (the JSON metrics summary of an instrumented LargeCross episode run).
// Exits non-zero if the fast reset is not at least 5x faster than the
// legacy recipe, or — on machines with >= 8 hardware threads — if the
// sharded runner at 8 threads is not at least 3x the sequential
// campaigns/sec.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "core/environment.h"
#include "core/parallel_runner.h"
#include "core/runner.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "fault/fault_injector.h"
#include "math/vector_ops.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/pinsage_lite.h"
#include "util/rng.h"

namespace {

using namespace copyattack;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "bench_results/micro_hotpath.csv";

  auto world =
      data::GenerateSyntheticWorld(data::SyntheticConfig::LargeCross());
  util::Rng split_rng(23);
  auto split = data::SplitDataset(world.dataset.target, split_rng);
  rec::PinSageLite model;
  util::Rng fit_rng(29);
  model.Fit(split.train, 3, fit_rng);

  core::EnvConfig env_config;
  env_config.budget = 30;
  env_config.num_pretend_users = 50;
  core::AttackEnvironment env(world.dataset, split.train, &model,
                              env_config);

  // Steady-state reset latency (avg over 20, after a warmup reset).
  env.Reset(0);
  auto t0 = Clock::now();
  const int kResets = 20;
  for (int i = 0; i < kResets; ++i) env.Reset(0);
  auto t1 = Clock::now();
  const double reset_fast_us = 1e6 * Seconds(t0, t1) / kResets;

  // The pre-rollback reset recipe: deep-copy the training data, re-add the
  // pretend users, rebuild the serving state. Measured on the same data
  // and model so the comparison is apples-to-apples.
  double reset_legacy_us = 0.0;
  {
    std::vector<data::Profile> pretend;
    util::Rng pretend_rng(31);
    for (std::size_t i = 0; i < env_config.num_pretend_users; ++i) {
      const data::UserId donor = static_cast<data::UserId>(
          pretend_rng.UniformUint64(split.train.num_users()));
      data::Profile profile = split.train.UserProfile(donor);
      if (profile.empty()) profile = {0, 1, 2};
      pretend.push_back(std::move(profile));
    }
    const int kLegacyResets = 20;
    auto s = Clock::now();
    for (int i = 0; i < kLegacyResets; ++i) {
      data::Dataset polluted = split.train;
      for (const data::Profile& profile : pretend) {
        polluted.AddUser(data::Profile(profile));
      }
      model.BeginServing(polluted);
    }
    auto e = Clock::now();
    reset_legacy_us = 1e6 * Seconds(s, e) / kLegacyResets;
    // The loop above left the model serving the throwaway dataset; restore
    // the environment's serving state before the injection measurements.
    env.Reset(0);
  }

  // Per-injection cost: inject 128 profiles, timed in 4 quartiles of 32.
  // Flat quartiles demonstrate O(1) amortized growth.
  env.Reset(0);
  util::Rng rng(5);
  std::vector<data::Profile> profiles;
  for (int i = 0; i < 128; ++i) {
    data::UserId u = static_cast<data::UserId>(
        rng.UniformUint64(world.dataset.source.num_users()));
    profiles.push_back(world.dataset.source.UserProfile(u));
    if (profiles.back().empty()) profiles.back() = {0, 1, 2};
  }
  double inject_us[4] = {0, 0, 0, 0};
  for (int q = 0; q < 4; ++q) {
    auto s = Clock::now();
    for (int i = 0; i < 32; ++i) {
      env.black_box().Inject(data::Profile(profiles[q * 32 + i]));
    }
    auto e = Clock::now();
    inject_us[q] = 1e6 * Seconds(s, e) / 32;
  }

  // Observability overhead on the episode hot path: the same reset +
  // injection recipe with telemetry runtime-disabled (the default above)
  // vs runtime-enabled. Disabled instrumentation costs one relaxed atomic
  // load and a predicted branch per call site.
  double reset_disabled_us = 0.0, reset_enabled_us = 0.0;
  double inject_disabled_us = 0.0, inject_enabled_us = 0.0;
  {
    const int kObsResets = 40;
    const int kObsInjects = 128;
    const auto measure = [&](double* reset_us, double* inject_us_out) {
      env.Reset(0);
      auto s = Clock::now();
      for (int i = 0; i < kObsResets; ++i) env.Reset(0);
      auto e = Clock::now();
      *reset_us = 1e6 * Seconds(s, e) / kObsResets;
      s = Clock::now();
      for (int i = 0; i < kObsInjects; ++i) {
        env.black_box().Inject(
            data::Profile(profiles[i % profiles.size()]));
      }
      e = Clock::now();
      *inject_us_out = 1e6 * Seconds(s, e) / kObsInjects;
    };
    measure(&reset_disabled_us, &inject_disabled_us);
    obs::SetEnabled(true);
    measure(&reset_enabled_us, &inject_enabled_us);
    obs::SetEnabled(false);
  }

  // Instrumented LargeCross episode run for the committed telemetry
  // artifact: full env.Step episodes (spans, latency histograms, reward
  // histograms, black-box query counters) with telemetry enabled.
  {
    obs::MetricsRegistry::Global().ResetAll();
    obs::TraceRecorder::Global().Clear();
    obs::SetEnabled(true);
    util::Rng episode_rng(41);
    for (int episode = 0; episode < 4; ++episode) {
      env.Reset(0);
      while (!env.done()) {
        const data::UserId donor = static_cast<data::UserId>(
            episode_rng.UniformUint64(world.dataset.source.num_users()));
        data::Profile profile = world.dataset.source.UserProfile(donor);
        if (profile.empty()) profile = {0, 1, 2};
        env.Step(std::move(profile));
      }
    }
    obs::SetEnabled(false);
  }

  // Fault-tolerance decorator overhead (ISSUE 5): the same injection
  // recipe through a fault-injecting oracle wrapped by the resilient
  // client (light schedule, virtual clock — backoff waits cost no wall
  // time) vs the undecorated oracle measured above. The committed CSV
  // documents that the decorators stay off the clean hot path.
  double inject_faulted_us = 0.0;
  {
    core::EnvConfig faulted_config = env_config;
    faulted_config.fault = fault::FaultScheduleConfig::Light(1337);
    faulted_config.resilience.enabled = true;
    core::AttackEnvironment faulted_env(world.dataset, split.train, &model,
                                        faulted_config);
    faulted_env.Reset(0);
    const int kFaultInjects = 128;
    auto s = Clock::now();
    for (int i = 0; i < kFaultInjects; ++i) {
      faulted_env.black_box().Inject(
          data::Profile(profiles[i % profiles.size()]));
    }
    auto e = Clock::now();
    inject_faulted_us = 1e6 * Seconds(s, e) / kFaultInjects;
  }

  // Kernel throughput at dim 256 (flop counts: dot/axpy 2n, sqdist 3n).
  double dot_gflops = 0.0, axpy_gflops = 0.0, sqdist_gflops = 0.0;
  {
    std::vector<float> a(256), b(256), y(256);
    util::Rng krng(9);
    for (auto& v : a) v = static_cast<float>(krng.UniformDouble());
    for (auto& v : b) v = static_cast<float>(krng.UniformDouble());
    volatile float sink = 0.0f;
    const long iters = 2000000;
    auto s = Clock::now();
    for (long i = 0; i < iters; ++i) {
      sink = sink + math::Dot(a.data(), b.data(), 256);
    }
    auto e = Clock::now();
    dot_gflops = 2.0 * 256 * iters / Seconds(s, e) / 1e9;
    s = Clock::now();
    for (long i = 0; i < iters; ++i) {
      math::Axpy(1.0001f, a.data(), y.data(), 256);
    }
    e = Clock::now();
    axpy_gflops = 2.0 * 256 * iters / Seconds(s, e) / 1e9;
    s = Clock::now();
    for (long i = 0; i < iters; ++i) {
      sink = sink + math::SquaredDistance(a.data(), b.data(), 256);
    }
    e = Clock::now();
    sqdist_gflops = 3.0 * 256 * iters / Seconds(s, e) / 1e9;
    (void)sink;
  }

  const double speedup = reset_legacy_us / reset_fast_us;
  const std::string header =
      "reset_fast_us,reset_legacy_us,reset_speedup,"
      "inject_q0_us,inject_q1_us,inject_q2_us,inject_q3_us,"
      "dot256_gflops,axpy256_gflops,sqdist256_gflops";
  char row[512];
  std::snprintf(row, sizeof(row),
                "%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.2f,%.2f,%.2f",
                reset_fast_us, reset_legacy_us, speedup, inject_us[0],
                inject_us[1], inject_us[2], inject_us[3], dot_gflops,
                axpy_gflops, sqdist_gflops);

  const std::filesystem::path out(out_path);
  if (out.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(out.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "perf_smoke: cannot create %s: %s\n",
                   out.parent_path().c_str(), ec.message().c_str());
      return 2;
    }
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "%s\n%s\n", header.c_str(), row);
  std::fclose(f);
  std::printf("%s\n%s\n", header.c_str(), row);

  // Companion artifacts next to the hot-path CSV.
  const std::filesystem::path result_dir =
      out.has_parent_path() ? out.parent_path() : std::filesystem::path(".");
  {
    const double inject_overhead_pct =
        inject_disabled_us > 0.0
            ? 100.0 * (inject_enabled_us - inject_disabled_us) /
                  inject_disabled_us
            : 0.0;
    const std::string overhead_path =
        (result_dir / "obs_overhead.csv").string();
    std::FILE* of = std::fopen(overhead_path.c_str(), "w");
    if (of == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot open %s\n",
                   overhead_path.c_str());
      return 2;
    }
    const std::string overhead_header =
        "reset_disabled_us,reset_enabled_us,"
        "inject_disabled_us,inject_enabled_us,inject_enabled_overhead_pct";
    char overhead_row[256];
    std::snprintf(overhead_row, sizeof(overhead_row),
                  "%.2f,%.2f,%.3f,%.3f,%.1f", reset_disabled_us,
                  reset_enabled_us, inject_disabled_us, inject_enabled_us,
                  inject_overhead_pct);
    std::fprintf(of, "%s\n%s\n", overhead_header.c_str(), overhead_row);
    std::fclose(of);
    std::printf("%s\n%s\n", overhead_header.c_str(), overhead_row);
  }
  {
    const double fault_overhead_pct =
        inject_disabled_us > 0.0
            ? 100.0 * (inject_faulted_us - inject_disabled_us) /
                  inject_disabled_us
            : 0.0;
    const std::string fault_path =
        (result_dir / "fault_overhead.csv").string();
    std::FILE* ff = std::fopen(fault_path.c_str(), "w");
    if (ff == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot open %s\n",
                   fault_path.c_str());
      return 2;
    }
    const std::string fault_header =
        "inject_plain_us,inject_faulted_us,fault_overhead_pct";
    char fault_row[128];
    std::snprintf(fault_row, sizeof(fault_row), "%.3f,%.3f,%.1f",
                  inject_disabled_us, inject_faulted_us, fault_overhead_pct);
    std::fprintf(ff, "%s\n%s\n", fault_header.c_str(), fault_row);
    std::fclose(ff);
    std::printf("%s\n%s\n", fault_header.c_str(), fault_row);
  }
  {
    const std::string telemetry_path =
        (result_dir / "telemetry_largecross.json").string();
    if (!obs::WriteMetricsJson(obs::MetricsRegistry::Global().Snapshot(),
                               telemetry_path)) {
      std::fprintf(stderr, "perf_smoke: cannot write %s\n",
                   telemetry_path.c_str());
      return 2;
    }
    std::printf("telemetry summary: %s\n", telemetry_path.c_str());
  }

  // Campaign-level scaling: the runner at 1/2/4/8 jobs vs a one-thread
  // RunCampaign on LargeCross, TargetAttack40 over cold target items.
  // Writes campaign_scaling.csv (threads x campaigns/sec sweep, with the
  // machine's hardware thread count so the committed artifact is honest
  // about where it was measured) and gates >= 3x at 8 threads — but only
  // on machines that actually have >= 8 hardware threads.
  double seq_cps = 0.0;
  double cps_at_8 = 0.0;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  {
    util::Rng target_rng(47);
    const std::vector<data::ItemId> targets =
        data::SampleColdTargetItems(world.dataset, 8, 10, target_rng);
    core::CampaignConfig campaign;
    campaign.env.budget = 20;
    campaign.env.num_pretend_users = 30;
    campaign.episodes = 1;
    campaign.eval_users = 60;
    campaign.seed = 91;
    campaign.num_threads = 1;
    const core::ModelFactory model_factory = [&] {
      return std::make_unique<rec::PinSageLite>(model);
    };
    const core::StrategyFactory strategy_factory = [&](std::uint64_t) {
      return std::make_unique<core::TargetAttack>(world.dataset, 0.4);
    };

    auto s = Clock::now();
    const core::CampaignResult sequential = core::RunCampaign(
        world.dataset, split.train, model_factory, strategy_factory,
        targets, campaign);
    auto e = Clock::now();
    (void)sequential;
    seq_cps = static_cast<double>(targets.size()) / Seconds(s, e);

    const std::string scaling_path =
        (result_dir / "campaign_scaling.csv").string();
    std::FILE* sf = std::fopen(scaling_path.c_str(), "w");
    if (sf == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot open %s\n",
                   scaling_path.c_str());
      return 2;
    }
    std::fprintf(sf,
                 "threads,campaigns_per_sec,speedup_vs_sequential,"
                 "hw_threads\n");
    std::printf(
        "threads,campaigns_per_sec,speedup_vs_sequential,hw_threads\n");
    std::fprintf(sf, "seq,%.3f,1.00,%u\n", seq_cps, hw_threads);
    std::printf("seq,%.3f,1.00,%u\n", seq_cps, hw_threads);
    const std::size_t sweep[] = {1, 2, 4, 8};
    for (const std::size_t jobs : sweep) {
      core::ParallelRunnerOptions options;
      options.jobs = jobs;
      const core::ParallelCampaignRunner runner(
          world.dataset, split.train, model_factory, strategy_factory,
          options);
      const core::ParallelCampaignResult sharded =
          runner.Run(targets, campaign);
      if (jobs == 8) cps_at_8 = sharded.campaigns_per_sec;
      std::fprintf(sf, "%zu,%.3f,%.2f,%u\n", jobs,
                   sharded.campaigns_per_sec,
                   seq_cps > 0.0 ? sharded.campaigns_per_sec / seq_cps
                                 : 0.0,
                   hw_threads);
      std::printf("%zu,%.3f,%.2f,%u\n", jobs, sharded.campaigns_per_sec,
                  seq_cps > 0.0 ? sharded.campaigns_per_sec / seq_cps
                                : 0.0,
                  hw_threads);
    }
    std::fclose(sf);
  }

  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "perf_smoke: FAIL reset speedup %.1fx < 5x required\n",
                 speedup);
    return 1;
  }
  if (hw_threads >= 8) {
    const double scaling = seq_cps > 0.0 ? cps_at_8 / seq_cps : 0.0;
    if (scaling < 3.0) {
      std::fprintf(stderr,
                   "perf_smoke: FAIL campaign scaling %.2fx < 3x required "
                   "at 8 threads (%u hardware threads)\n",
                   scaling, hw_threads);
      return 1;
    }
    std::printf("perf_smoke: campaign scaling %.2fx at 8 threads\n",
                scaling);
  } else {
    std::printf(
        "perf_smoke: campaign scaling gate skipped (%u hardware threads "
        "< 8)\n",
        hw_threads);
  }
  std::printf("perf_smoke: OK (reset %.1fx faster than legacy)\n", speedup);
  return 0;
}

#include "core/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "core/target_play.h"
#include "fault/crash_point.h"
#include "obs/obs.h"
#include "obs/time.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace copyattack::core {

ParallelCampaignRunner::ParallelCampaignRunner(
    const data::CrossDomainDataset& dataset,
    const data::Dataset& target_train, ModelFactory model_factory,
    StrategyFactory strategy_factory, const ParallelRunnerOptions& options)
    : dataset_(dataset),
      target_train_(target_train),
      model_factory_(std::move(model_factory)),
      strategy_factory_(std::move(strategy_factory)),
      options_(options) {
  CA_CHECK_GT(options_.jobs, 0U) << "--jobs must be a positive integer";
}

ParallelCampaignResult ParallelCampaignRunner::Run(
    const std::vector<data::ItemId>& targets,
    const CampaignConfig& config) const {
  CA_CHECK_GT(config.episodes, 0U);
  const bool checkpointed = !options_.checkpoint.dir.empty();
  if (checkpointed) {
    CA_CHECK(!config.env.refit_on_query)
        << "checkpointed campaigns require refit_on_query = false: the "
           "refit target model's weights are not captured by the "
           "checkpoint";
    CA_CHECK_GT(options_.checkpoint.every_episodes, 0U);
  }
  OBS_SPAN("campaign.run_sharded");
  OBS_COUNTER_INC("campaign.runs");
  obs::Stopwatch watch;

  const std::size_t total_shards =
      std::max<std::size_t>(1, options_.shards == 0 ? options_.jobs
                                                    : options_.shards);

  // Checkpoint fingerprints need the method name before any shard runs,
  // so a checkpointed run probes a throwaway strategy for it. Otherwise
  // the name comes from the first target played: strategy construction
  // is a sizeable share of a short campaign.
  std::string method;
  std::once_flag method_once;
  if (checkpointed) method = strategy_factory_(config.seed)->name();

  ParallelCampaignResult result;
  result.outcomes.resize(targets.size());
  result.completed.assign(targets.size(), 0);
  result.shards.resize(total_shards);

  std::atomic<std::size_t> episodes_played{0};
  std::atomic<bool> abort_flag{false};
  const std::size_t abort_after = options_.checkpoint.abort_after_episodes;
  // Cooperative cancellation (watchdog deadline, drain): once the hook
  // trips, every shard stops at its next yield point.
  const auto canceled = [this, &abort_flag] {
    if (options_.cancel && options_.cancel()) {
      abort_flag.store(true, std::memory_order_relaxed);
    }
    return abort_flag.load(std::memory_order_relaxed);
  };

  util::ThreadPool::ParallelFor(
      total_shards, options_.jobs, [&](std::size_t shard) {
        OBS_SPAN("campaign.shard");
        CA_CRASH_POINT("runner.shard_begin");
        obs::Stopwatch shard_watch;
        ShardStats& stats = result.shards[shard];
        stats.shard = shard;
        stats.total_shards = total_shards;
        // Mix shard count and index into the stream so shard 0-of-2 and
        // 0-of-4 never share a checkpoint identity.
        stats.stream_seed = util::DeriveStreamSeed(
            config.seed,
            (static_cast<std::uint64_t>(total_shards) << 32) | shard);

        // Round-robin assignment: shard s owns global indices s, s+S, ...
        std::vector<std::size_t> indices;
        for (std::size_t g = shard; g < targets.size();
             g += total_shards) {
          indices.push_back(g);
        }
        stats.num_items = indices.size();

        CampaignCheckpoint state;
        std::string shard_dir;
        std::size_t start = 0;
        InProgressTarget resume_progress;
        if (checkpointed) {
          shard_dir = options_.checkpoint.dir + "/shard_" +
                      std::to_string(shard) + "_of_" +
                      std::to_string(total_shards);
          state.fingerprint.method = method;
          state.fingerprint.seed = stats.stream_seed;
          state.fingerprint.episodes = config.episodes;
          state.fingerprint.num_targets = indices.size();
          state.fingerprint.env_budget = config.env.budget;
          if (options_.checkpoint.resume) {
            CampaignCheckpoint loaded;
            const CheckpointSource source = LoadCampaignCheckpoint(
                shard_dir, state.fingerprint, &loaded);
            if (source != CheckpointSource::kNone) {
              stats.resumed_from = source;
              OBS_COUNTER_INC("campaign.resumes");
              state.completed = std::move(loaded.completed);
              start = std::min(state.completed.size(), indices.size());
              if (loaded.in_progress.active) {
                CA_CHECK_EQ(loaded.in_progress.target_index, start);
                resume_progress = loaded.in_progress;
              }
              // Replay checkpointed outcomes into their global slots.
              for (std::size_t i = 0; i < start; ++i) {
                result.outcomes[indices[i]] = state.completed[i];
                result.completed[indices[i]] = 1;
              }
              CA_LOG(Info)
                  << "shard " << shard << "/" << total_shards
                  << ": resumed (" << start << "/" << indices.size()
                  << " targets done"
                  << (resume_progress.active
                          ? ", mid-target checkpoint present"
                          : "")
                  << ")";
            }
          }
        }

        const auto save = [&] {
          if (SaveCampaignCheckpoint(state, shard_dir)) {
            ++stats.checkpoint_saves;
            OBS_COUNTER_INC("campaign.checkpoint_saves");
          } else {
            // A failed save must not kill the campaign it protects.
            CA_LOG(Warning) << "shard " << shard
                            << ": checkpoint save failed under "
                            << shard_dir;
          }
        };

        for (std::size_t i = start; i < indices.size(); ++i) {
          if (canceled()) break;
          const std::size_t global_index = indices[i];
          TargetPlayHooks hooks;
          if (checkpointed) {
            hooks.every_episodes = options_.checkpoint.every_episodes;
            hooks.progress_target_index = i;
            hooks.on_progress = [&](const InProgressTarget& progress) {
              state.in_progress = progress;
              save();
            };
          }
          if (resume_progress.active && i == start) {
            hooks.resume = &resume_progress;
          }
          hooks.should_abort = [&] {
            ++stats.episodes_played;
            const std::size_t played =
                episodes_played.fetch_add(1, std::memory_order_relaxed) +
                1;
            if (abort_after > 0 && played >= abort_after) {
              abort_flag.store(true, std::memory_order_relaxed);
            }
            return canceled();
          };

          std::string name;
          TargetPlayResult play = PlayTargetItem(
              dataset_, target_train_, model_factory_, strategy_factory_,
              targets[global_index], global_index, config, hooks, &name);
          if (!checkpointed) {
            std::call_once(method_once, [&] { method = std::move(name); });
          }
          if (play.aborted) break;

          result.outcomes[global_index] = std::move(play.outcome);
          result.completed[global_index] = 1;
          if (checkpointed) {
            state.completed.push_back(result.outcomes[global_index]);
            state.in_progress = InProgressTarget{};
            resume_progress = InProgressTarget{};
            save();
          }
          CA_CRASH_POINT("runner.target_committed");
        }
        stats.wall_seconds = shard_watch.ElapsedSeconds();
      });

  result.aggregate.method = method;
  result.aggregate.aborted = abort_flag.load(std::memory_order_relaxed);
  for (const ShardStats& stats : result.shards) {
    result.aggregate.checkpoint_saves += stats.checkpoint_saves;
    if (stats.resumed_from != CheckpointSource::kNone &&
        result.aggregate.resumed_from == CheckpointSource::kNone) {
      result.aggregate.resumed_from = stats.resumed_from;
    }
  }

  // Merge completed outcomes in global target order — the order (and the
  // outcomes themselves) are invariant to shard and thread count.
  std::vector<TargetOutcomeState> done;
  done.reserve(targets.size());
  for (std::size_t g = 0; g < targets.size(); ++g) {
    if (result.completed[g] != 0) done.push_back(result.outcomes[g]);
  }
  MergeOutcomes(done, config.eval_ks, &result.aggregate);
  result.aggregate.wall_seconds = watch.ElapsedSeconds();
  result.campaigns_per_sec =
      result.aggregate.wall_seconds > 0.0
          ? static_cast<double>(done.size()) /
                result.aggregate.wall_seconds
          : 0.0;
  OBS_GAUGE_SET("campaign.campaigns_per_sec", result.campaigns_per_sec);
  CA_LOG(Info) << method << " (sharded x" << total_shards << ", jobs "
               << options_.jobs << "): "
               << util::FormatDouble(result.aggregate.wall_seconds, 1)
               << "s over " << done.size() << "/" << targets.size()
               << " target items ("
               << util::FormatDouble(result.campaigns_per_sec, 2)
               << " campaigns/s)";
  return result;
}

}  // namespace copyattack::core

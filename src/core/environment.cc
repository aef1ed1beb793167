#include "core/environment.h"

#include <algorithm>

#include "core/proxy.h"
#include "obs/obs.h"
#include "util/check.h"

namespace copyattack::core {

AttackEnvironment::AttackEnvironment(const data::CrossDomainDataset& dataset,
                                     const data::Dataset& target_train,
                                     rec::Recommender* model,
                                     const EnvConfig& config)
    CA_COLD_OK("one-time per-target setup: copies the training data")
    : dataset_(dataset),
      target_train_(target_train),
      model_(model),
      config_(config),
      rng_(config.seed),
      refit_rng_(config.seed ^ 0xA5A5A5A5ULL) {
  CA_CHECK(model != nullptr);
  CA_CHECK_GT(config.budget, 0U);
  CA_CHECK_GT(config.query_interval, 0U);
  CA_CHECK_GT(config.num_pretend_users, 0U);
  GeneratePretendProfiles();
  // One copy of the training data for the whole environment lifetime;
  // every episode rolls the polluted state back to this base checkpoint
  // (or to the per-target checkpoint below) instead of re-copying.
  polluted_ = std::make_unique<data::Dataset>(target_train_);
  base_checkpoint_ = polluted_->Checkpoint();
}

void AttackEnvironment::GeneratePretendProfiles() {
  // Pretend users mimic real accounts: each copies a random 50-80%
  // contiguous subsequence of a random real user's profile. They exist
  // solely so the attacker can observe Top-k lists (paper §4.2).
  pretend_profiles_.reserve(config_.num_pretend_users);
  for (std::size_t i = 0; i < config_.num_pretend_users; ++i) {
    const data::UserId donor = static_cast<data::UserId>(
        rng_.UniformUint64(target_train_.num_users()));
    const data::Profile& profile = target_train_.UserProfile(donor);
    if (profile.empty()) {
      pretend_profiles_.push_back({});
      continue;
    }
    const double keep = rng_.UniformDouble(0.5, 0.8);
    const std::size_t length = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(profile.size()) * keep + 0.5));
    const std::size_t begin = static_cast<std::size_t>(
        rng_.UniformUint64(profile.size() - length + 1));
    pretend_profiles_.emplace_back(profile.begin() + begin,
                                   profile.begin() + begin + length);
  }
}

void AttackEnvironment::Reset(data::ItemId target_item) CA_HOT_PATH {
  OBS_SPAN("env.reset");
  OBS_SCOPED_TIMER_US("env.reset_us");
  CA_CHECK_LT(target_item, target_train_.num_items());
  OBS_COUNTER_INC("env.episodes");
  target_item_ = target_item;
  steps_ = 0;
  episode_query_rounds_ = 0;
  done_ = false;

  // Fast path: same target item and the model still holds a valid serving
  // checkpoint — roll the dataset and the model back past last episode's
  // injections in O(injected) instead of rebuilding in O(dataset). The
  // rolled-back state (training data + the deterministically re-added
  // pretend users) is bit-identical to the slow path's, so rewards and
  // promotion metrics are unchanged; see RollbackEquivalence tests.
  if (target_item == checkpointed_target_ && model_->RollbackServing()) {
    polluted_->RollbackTo(episode_checkpoint_);
    ++fast_resets_;
    OBS_COUNTER_INC("env.reset_fast");
  } else {
    OBS_COUNTER_INC("env.reset_full");
    checkpointed_target_ = data::kNoItem;
    polluted_->RollbackTo(base_checkpoint_);
    pretend_user_ids_.clear();
    for (const data::Profile& profile : pretend_profiles_) {
      // A pretend user must not already hold the target item, otherwise it
      // cannot witness the promotion.
      data::Profile cleaned;
      cleaned.reserve(profile.size());
      for (const data::ItemId item : profile) {
        if (item != target_item) cleaned.push_back(item);
      }
      pretend_user_ids_.push_back(polluted_->AddUser(std::move(cleaned)));
    }
    model_->BeginServing(*polluted_);
    episode_checkpoint_ = polluted_->Checkpoint();
    if (model_->CheckpointServing()) checkpointed_target_ = target_item;

    // Fixed query candidates per pretend user for this target item. They
    // depend only on the rolled-back dataset state and the target item, so
    // the fast path reuses the cached lists unchanged.
    query_candidates_.clear();
    util::Rng candidate_rng(config_.seed ^
                            (0x9E3779B97F4A7C15ULL * (target_item + 1)));
    for (const data::UserId user : pretend_user_ids_) {
      const std::vector<data::ItemId> negatives = rec::SampleNegatives(
          *polluted_, user, target_item, config_.query_candidates,
          candidate_rng);
      std::vector<data::ItemId> candidates;
      candidates.reserve(negatives.size() + 1);
      candidates.push_back(target_item);
      candidates.insert(candidates.end(), negatives.begin(),
                        negatives.end());
      query_candidates_.push_back(std::move(candidates));
    }
  }
  RebuildOracleStack(episodes_begun_++);
}

void AttackEnvironment::RebuildOracleStack(std::uint64_t episode_index)
    CA_COLD_OK("O(1) per-episode decorator wiring, off the step loop") {
  // The concrete recommender only holds borrowed pointers and atomic
  // meters, so creating it once and resetting the meters per episode is
  // bit-identical to the old fresh-construction-per-Reset — minus the
  // per-episode allocation on the campaign hot path.
  if (black_box_ == nullptr) {
    black_box_ =
        std::make_unique<rec::BlackBoxRecommender>(model_, polluted_.get());
  }
  black_box_->ResetCounters();
  // Layer the fault stack over the oracle. Each episode gets its own
  // decorators with per-episode-derived seeds: the fault and jitter
  // streams depend only on (configured seed, episode index), never on how
  // many draws last episode consumed — which is what makes checkpointed
  // resume bit-exact (a resumed environment restores `episodes_begun_`).
  oracle_ = black_box_.get();
  fault_injector_.reset();
  resilient_.reset();
  if (config_.fault.enabled) {
    fault::FaultScheduleConfig schedule = config_.fault;
    schedule.seed =
        config_.fault.seed ^ (0x9E3779B97F4A7C15ULL * (episode_index + 1));
    fault_injector_ =
        std::make_unique<fault::FaultInjector>(oracle_, schedule);
    oracle_ = fault_injector_.get();
  }
  if (config_.resilience.enabled) {
    fault::ResilienceConfig resilience = config_.resilience;
    resilience.seed = config_.resilience.seed ^
                      (0xD1B54A32D192ED03ULL * (episode_index + 1));
    resilient_ =
        std::make_unique<fault::ResilientBlackBox>(oracle_, resilience);
    oracle_ = resilient_.get();
  }
}

double AttackEnvironment::QueryReward() {
  const double hit_ratio = RawHitRatio();
  return config_.goal == AttackGoal::kDemote ? 1.0 - hit_ratio : hit_ratio;
}

double AttackEnvironment::RawHitRatio() {
  double measured = 0.0;
  if (TryRawHitRatio(&measured)) return measured;
  // Graceful degradation (ISSUE 5): the resilience client gave up on the
  // oracle — reward the episode from the attacker's proxy view instead of
  // aborting a multi-hour campaign.
  ++proxy_reward_fallbacks_;
  OBS_COUNTER_INC("env.proxy_reward_fallback");
  return EstimateRewardWithoutQueries(*polluted_, target_item_,
                                      config_.reward_k,
                                      config_.query_candidates);
}

bool AttackEnvironment::TryRawHitRatio(double* out) {
  OBS_SPAN("env.query_round");
  OBS_SCOPED_TIMER_US("env.query_round_us");
  CA_CHECK(black_box_ != nullptr) << "Reset must be called first";
  OBS_COUNTER_INC("env.query_rounds");
  if (config_.refit_on_query) {
    model_->TrainEpoch(*polluted_, refit_rng_);
    model_->BeginServing(*polluted_);
  }
  ++lifetime_queries_;  // one query round (attempted rounds count too)
  // Decorators draw per operation, so probe one pretend user at a time in
  // order. The first kUnavailable (retries exhausted or breaker open)
  // loses the whole round without touching the oracle again; any other
  // failed query is a miss.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pretend_user_ids_.size(); ++i) {
    const rec::QueryResult response = oracle_->Query(
        pretend_user_ids_[i], query_candidates_[i], config_.reward_k);
    if (response.status == rec::BlackBoxStatus::kUnavailable) return false;
    if (response.ok() &&
        std::find(response.items.begin(), response.items.end(),
                  target_item_) != response.items.end()) {
      ++hits;
    }
  }
  *out = static_cast<double>(hits) /
         static_cast<double>(pretend_user_ids_.size());
  return true;
}

AttackEnvironment::StepResult AttackEnvironment::Step(
    data::Profile crafted_profile) CA_HOT_PATH {
  OBS_SPAN("env.step");
  CA_CHECK(!done_) << "Step on a finished episode";
  CA_CHECK(black_box_ != nullptr) << "Reset must be called first";
  CA_CHECK(!crafted_profile.empty());
  OBS_COUNTER_INC("env.steps");

  {
    OBS_SPAN("env.inject");
    OBS_SCOPED_TIMER_US("env.inject_us");
    const rec::InjectResult injected =
        oracle_->Inject(std::move(crafted_profile));
    if (!injected.ok()) {
      // The profile never landed (transient fault after retries, breaker
      // open, ...). The action still consumed a step of budget — an
      // attacker cannot un-spend a failed API call.
      OBS_COUNTER_INC("env.inject_failed");
    }
  }
  ++steps_;

  StepResult result;
  const bool budget_exhausted = steps_ >= config_.budget;
  if (steps_ % config_.query_interval == 0 || budget_exhausted) {
    result.queried = true;
    result.reward = QueryReward();
    OBS_UNIT_HIST_OBSERVE("env.step_reward", result.reward);
    ++episode_query_rounds_;
    if (result.reward >= config_.success_reward) {
      done_ = true;
    }
    if (config_.max_query_rounds > 0 &&
        episode_query_rounds_ >= config_.max_query_rounds) {
      done_ = true;  // the attacker's query budget is spent
    }
  }
  if (budget_exhausted) {
    done_ = true;
  }
  result.done = done_;
  return result;
}

rec::BlackBoxInterface& AttackEnvironment::black_box() {
  CA_CHECK(oracle_ != nullptr);
  return *oracle_;
}

const rec::BlackBoxInterface& AttackEnvironment::black_box() const {
  CA_CHECK(oracle_ != nullptr);
  return *oracle_;
}

AttackEnvironment::ResumeState AttackEnvironment::SaveResumeState() const {
  ResumeState state;
  state.lifetime_queries = lifetime_queries_;
  state.episodes_begun = episodes_begun_;
  state.proxy_reward_fallbacks = proxy_reward_fallbacks_;
  state.refit_rng = refit_rng_.SaveState();
  return state;
}

void AttackEnvironment::RestoreResumeState(const ResumeState& state) {
  lifetime_queries_ = state.lifetime_queries;
  episodes_begun_ = state.episodes_begun;
  proxy_reward_fallbacks_ = state.proxy_reward_fallbacks;
  refit_rng_.RestoreState(state.refit_rng);
}

rec::MetricsByK AttackEnvironment::EvaluateRealPromotion(
    const std::vector<std::size_t>& ks, std::size_t num_users,
    std::size_t num_negatives) const {
  CA_CHECK(polluted_ != nullptr);
  // Sample real target-domain users (ids below the training user count, so
  // pretend and injected users are excluded). Deterministic in the target
  // item so every method sees the same evaluation users.
  util::Rng eval_rng(config_.seed ^ (0xD1B54A32D192ED03ULL *
                                     (target_item_ + 1)));
  const std::size_t population = target_train_.num_users();
  std::vector<data::UserId> users;
  if (num_users >= population) {
    for (data::UserId u = 0; u < population; ++u) users.push_back(u);
  } else {
    for (const std::size_t u :
         eval_rng.SampleWithoutReplacement(population, num_users)) {
      users.push_back(static_cast<data::UserId>(u));
    }
  }
  return rec::EvaluatePromotion(*model_, target_train_, target_item_, users,
                                ks, num_negatives, eval_rng);
}

}  // namespace copyattack::core

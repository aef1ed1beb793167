#ifndef COPYATTACK_CORE_ENVIRONMENT_H_
#define COPYATTACK_CORE_ENVIRONMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/cross_domain.h"
#include "data/dataset.h"
#include "fault/fault_injector.h"
#include "fault/resilient_black_box.h"
#include "rec/black_box.h"
#include "rec/evaluator.h"
#include "rec/recommender.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace copyattack::core {

/// Direction of the attack (paper §4.2: "promotion or demotion"; the
/// paper evaluates promotion and leaves demotion as future work — this
/// implementation supports both).
enum class AttackGoal {
  /// Maximize the target item's hit ratio over the pretend users.
  kPromote,
  /// Minimize it: reward = 1 - HR@k, useful against popular items.
  kDemote,
};

/// Parameters of the black-box attacking environment (paper §4.2, §5.1.3).
struct EnvConfig {
  /// Attack direction.
  AttackGoal goal = AttackGoal::kPromote;
  /// Budget Δ: maximum number of profiles to copy per episode.
  std::size_t budget = 30;
  /// Queries are performed after every `query_interval` injections.
  std::size_t query_interval = 3;
  /// Number of pretend users |U_A*| the attacker planted in A.
  std::size_t num_pretend_users = 50;
  /// Cutoff k of the HR@k reward (Eq. 1).
  std::size_t reward_k = 20;
  /// Candidate-list size per pretend-user query (the target item plus this
  /// many sampled unseen items, matching the paper's ranking protocol).
  std::size_t query_candidates = 100;
  /// Episode ends early once the reward reaches this value ("fewer user
  /// profiles are enough to satisfy the promotion task").
  double success_reward = 0.999;
  /// Optional cap on query rounds per episode (0 = unlimited). The paper
  /// motivates the whole design with "limited resources (i.e., number of
  /// queries allowed to the target recommender system)"; with a cap, the
  /// episode ends once the attacker has spent its query budget.
  std::size_t max_query_rounds = 0;
  /// When true the platform additionally fine-tunes the model on the
  /// polluted data for one epoch at each query round (models a
  /// periodically retrained transductive target such as plain MF).
  bool refit_on_query = false;
  /// Seed for pretend-user generation and query candidate sampling.
  std::uint64_t seed = 1234;
  /// Simulated-fault schedule for the black-box oracle (off by default;
  /// when enabled the oracle stack is BlackBoxRecommender ← FaultInjector
  /// [← ResilientBlackBox]).
  fault::FaultScheduleConfig fault;
  /// Client-side retry/backoff/circuit-breaker policy (off by default).
  fault::ResilienceConfig resilience;
};

/// The MDP the attacker interacts with (paper §4.2): states are the
/// injected profiles so far, an action injects one crafted profile, the
/// reward is HR@k of the target item over the attacker's pretend users,
/// and the episode terminates at the budget or on success.
///
/// The environment owns a polluted copy of the target-domain training data
/// plus the attacker's pretend users; `Reset` discards all injected
/// profiles (a fresh episode) while keeping the pretend users and their
/// fixed query candidate lists so rewards are comparable across episodes.
class AttackEnvironment {
 public:
  /// `dataset` is the full cross-domain pair (borrowed; used for sampling
  /// pretend users and final evaluation filtering). `target_train` is the
  /// training split the model was fitted on. `model` must be fitted; the
  /// environment calls `BeginServing` on every reset.
  AttackEnvironment(const data::CrossDomainDataset& dataset,
                    const data::Dataset& target_train,
                    rec::Recommender* model, const EnvConfig& config);

  /// Starts a fresh episode targeting `target_item`.
  void Reset(data::ItemId target_item);

  /// Result of one environment step.
  struct StepResult {
    double reward = 0.0;  ///< HR@k over pretend users; 0 on non-query steps
    bool queried = false; ///< whether this step triggered a query round
    bool done = false;    ///< episode finished (budget or success)
  };

  /// Injects one crafted profile (the action a_t). Must not be called on a
  /// finished episode.
  StepResult Step(data::Profile crafted_profile);

  /// Performs a query round immediately and returns the goal-adjusted
  /// reward: HR@k for promotion, 1 - HR@k for demotion. When the oracle is
  /// unavailable (resilience client gave up / breaker open) the round
  /// degrades to the proxy reward estimate instead of aborting (see
  /// `proxy_reward_fallbacks()`).
  double QueryReward();

  /// Raw HR@k (Eq. 1) of the target item over the pretend users at this
  /// instant (one query round; counts toward the query meter). Degrades
  /// like `QueryReward`.
  double RawHitRatio();

  bool done() const { return done_; }
  data::ItemId target_item() const { return target_item_; }
  const EnvConfig& config() const { return config_; }

  /// The black-box oracle the attacker talks to — the outermost layer of
  /// the fault stack (valid after the first `Reset`). Without faults this
  /// is the plain `BlackBoxRecommender`.
  rec::BlackBoxInterface& black_box();
  const rec::BlackBoxInterface& black_box() const;

  /// The fault decorator, or nullptr when no schedule is enabled.
  const fault::FaultInjector* fault_injector() const {
    return fault_injector_.get();
  }
  /// The resilience client, or nullptr when disabled.
  const fault::ResilientBlackBox* resilient() const {
    return resilient_.get();
  }

  /// Total Top-k queries issued across all episodes since construction.
  std::size_t lifetime_queries() const { return lifetime_queries_; }

  /// Query rounds that degraded to the proxy reward estimate because the
  /// oracle was unavailable.
  std::size_t proxy_reward_fallbacks() const {
    return proxy_reward_fallbacks_;
  }

  /// Episodes started (Reset calls) since construction; also the index
  /// that derives each episode's fault/resilience seeds.
  std::size_t episodes_begun() const { return episodes_begun_; }

  /// Cross-episode mutable state a campaign checkpoint must capture so a
  /// resumed environment continues bit-exactly (core/checkpoint.h).
  struct ResumeState CA_CHECKPOINTED(AttackEnvironment::SaveResumeState,
                                     AttackEnvironment::RestoreResumeState) {
    std::size_t lifetime_queries = 0;
    std::size_t episodes_begun = 0;
    std::size_t proxy_reward_fallbacks = 0;
    util::RngState refit_rng;
  };
  ResumeState SaveResumeState() const;
  void RestoreResumeState(const ResumeState& state);

  /// Number of Resets served by the snapshot/rollback fast path (as
  /// opposed to a full rebuild). Exposed for tests and perf tooling to
  /// verify the optimization engages.
  std::size_t fast_resets() const { return fast_resets_; }

  /// Final-state promotion metrics over a sample of *real* target-domain
  /// users (the quantity Table 2 reports; pretend users are excluded).
  rec::MetricsByK EvaluateRealPromotion(const std::vector<std::size_t>& ks,
                                        std::size_t num_users,
                                        std::size_t num_negatives) const;

  /// Ids of the pretend users within the polluted dataset.
  const std::vector<data::UserId>& pretend_users() const {
    return pretend_user_ids_;
  }

 private:
  /// Attempts one real query round: one `Query` on the outermost oracle
  /// per pretend user, in order. Returns false — leaving `*out` untouched
  /// — once the oracle reports kUnavailable (the rest of the round is
  /// skipped); any other failed query merely counts as a miss.
  bool TryRawHitRatio(double* out);

  /// Builds the pretend users' profiles (subsequences of random real
  /// profiles — plausible accounts the attacker registered beforehand).
  void GeneratePretendProfiles();

  /// (Re)points `oracle_` at the outermost layer of the decorator stack
  /// for the episode with the given index. The concrete recommender is
  /// created once and its meters reset per episode; fault/resilience
  /// decorators are rebuilt each episode because their streams derive
  /// from (configured seed, episode index).
  void RebuildOracleStack(std::uint64_t episode_index);

  const data::CrossDomainDataset& dataset_;
  const data::Dataset& target_train_;
  rec::Recommender* model_;
  EnvConfig config_;
  util::Rng rng_;

  std::vector<data::Profile> pretend_profiles_;
  std::vector<data::UserId> pretend_user_ids_;
  /// Fixed per-pretend-user query candidates for the current target item:
  /// the target first, then the sampled negatives.
  std::vector<std::vector<data::ItemId>> query_candidates_;

  /// One long-lived polluted copy of the training data. Episodes are
  /// separated by checkpoint/rollback (O(injected) per reset), not by
  /// re-copying the dataset (O(dataset) per reset).
  std::unique_ptr<data::Dataset> polluted_;
  /// Training data only (taken at construction).
  data::DatasetCheckpoint base_checkpoint_;
  /// Training data + pretend users for `checkpointed_target_` (retaken
  /// whenever the target item changes or the model checkpoint lapses).
  data::DatasetCheckpoint episode_checkpoint_;
  /// Target item the episode checkpoint and the model's serving checkpoint
  /// were taken for; kNoItem when the slow reset path must run.
  data::ItemId checkpointed_target_ = data::kNoItem;
  std::unique_ptr<rec::BlackBoxRecommender> black_box_;
  /// Fault stack layered over `black_box_` when configured; `oracle_`
  /// always points at the outermost layer the attacker should use.
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<fault::ResilientBlackBox> resilient_;
  rec::BlackBoxInterface* oracle_ = nullptr;

  data::ItemId target_item_ = data::kNoItem;
  std::size_t steps_ = 0;
  std::size_t episode_query_rounds_ = 0;
  bool done_ = true;
  std::size_t lifetime_queries_ = 0;
  std::size_t fast_resets_ = 0;
  std::size_t episodes_begun_ = 0;
  std::size_t proxy_reward_fallbacks_ = 0;
  util::Rng refit_rng_;
};

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_ENVIRONMENT_H_

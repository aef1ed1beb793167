#ifndef COPYATTACK_SERVE_ATTACK_SERVER_H_
#define COPYATTACK_SERVE_ATTACK_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_runner.h"
#include "core/runner.h"
#include "data/cross_domain.h"
#include "data/dataset.h"
#include "serve/job_queue.h"

namespace copyattack::attack {
class TargetSurrogate;
}  // namespace copyattack::attack

namespace copyattack::serve {

/// Holds the attacker's local model (attack/surrogate.h) for the
/// surrogate-based methods. `MakeStrategyFactory` trains into an empty
/// slot and reuses a filled one; every copy is trained from
/// `dataset.target` with the surrogate's fixed epochs and seed, so reuse
/// changes no outcome. Reuse a slot only with the dataset that filled it.
using SurrogateSlot = std::shared_ptr<const attack::TargetSurrogate>;

/// A named attack method resolved to its strategy factory.
struct StrategySpec {
  /// Null when the method name is unknown.
  core::StrategyFactory factory;
  /// False for the non-learning baselines (RandomAttack, TargetAttack*):
  /// they play exactly one episode per target.
  bool learns = true;
  /// Set when the method name is unknown: names the offender and lists
  /// every registered method so the caller's error is actionable.
  std::string error;
};

/// The method names `MakeStrategyFactory` resolves, in registry order.
/// Snake-case aliases ("surrogate_transfer", "influence") are accepted by
/// the factory but not listed twice.
const std::vector<std::string>& RegisteredMethods();

/// Empty when `MakeStrategyFactory` resolves `method` (aliases included);
/// otherwise the error it would report, naming the offender and listing
/// every registered method. Needs no dataset, so a caller can reject a
/// misspelt method before the set-up trains anything.
std::string UnknownMethodError(const std::string& method);

/// Resolves an attack-method name ("CopyAttack", "CopyAttack-Masking",
/// "CopyAttack-Length", "PolicyNetwork", "RandomAttack",
/// "TargetAttack40/70/100", "SurrogateTransfer"/"surrogate_transfer",
/// "Influence"/"influence") to its strategy factory over the shared
/// per-dataset artifacts — the single dispatch table behind both the
/// `attack` CLI command and the attack server. `dataset` and `artifacts`
/// are captured by reference and must outlive the returned factory. The
/// surrogate-based methods take the attacker's local model from
/// `*surrogate`, training it there first when the slot is empty; every
/// per-target strategy shares it read-only, and the factory holds its own
/// reference, so the slot may be reset or destroyed afterwards.
/// "PolicyNetwork" builds its one-level tree here, once; the factory and
/// each of its strategies share it, so a strategy may outlive the factory.
/// On an unknown name the returned spec has a null factory and `error`
/// lists the registered methods.
StrategySpec MakeStrategyFactory(const data::CrossDomainDataset& dataset,
                                 const core::SourceArtifacts& artifacts,
                                 const std::string& method,
                                 SurrogateSlot* surrogate);

/// As above with a slot of its own: each call that resolves a
/// surrogate-based method trains a fresh surrogate.
StrategySpec MakeStrategyFactory(const data::CrossDomainDataset& dataset,
                                 const core::SourceArtifacts& artifacts,
                                 const std::string& method);

/// Attack-server configuration (one per process lifetime).
struct ServerConfig {
  /// Worker threads and sharding of each job's campaign. Per-job crash
  /// safety is derived from the fields below: of `runner.checkpoint`
  /// only the `abort_after_episodes` crash hook passes through.
  core::ParallelRunnerOptions runner;
  /// Root of the per-job checkpoint tree: job `id` persists under
  /// `<checkpoint_root>/job_<id>`. Empty disables crash safety.
  std::string checkpoint_root;
  /// Resume each job from its checkpoint directory when present.
  bool resume = false;
  /// Episodes between mid-target checkpoints.
  std::size_t checkpoint_every = 1;
  /// Items with at most this many interactions count as cold targets.
  std::size_t cold_max_interactions = 10;

  // --- Supervision (ISSUE 10): watchdog, retries, quarantine. ---

  /// Per-job wall-clock deadline in seconds; 0 disables the watchdog.
  /// Enforced cooperatively through the runner's `cancel` hook at
  /// episode boundaries — the last checkpoint is already flushed there,
  /// so a deadline kill IS the rollback: the retry resumes from it.
  double job_deadline_seconds = 0.0;
  /// Total attempts (first run + retries) a job gets before it is parked
  /// in `<checkpoint_root>/quarantine.csv`. Counts BOTH in-process
  /// watchdog kills and process crashes (the per-job attempt counter is
  /// persisted next to the job's checkpoints). 0 = unlimited — what the
  /// chaos soak uses, so scheduled crashes never quarantine a job.
  std::size_t max_attempts = 3;
  /// Exponential retry backoff: attempt k (k >= 2) sleeps
  /// `retry_backoff_seconds * 2^(k-2)` first. 0 disables sleeping.
  double retry_backoff_seconds = 0.0;
  /// Clock behind the deadline watchdog; tests install a fake to wedge a
  /// job deterministically. Null = `obs::MonotonicNanos`.
  std::function<std::int64_t()> now_ns;
  /// Sleeper behind the retry backoff; tests install a no-op recorder.
  /// Null = real `std::this_thread::sleep_for`.
  std::function<void(double)> sleep_seconds;
};

/// Process-wide graceful-drain flag (SIGTERM/SIGINT). Once requested,
/// `AttackServer::Drain` stops popping jobs, the running job aborts at
/// its next episode boundary (checkpoint already flushed), and the
/// un-run remainder of the queue is persisted to
/// `<checkpoint_root>/remaining_jobs.csv`. Async-signal-safe: the flag
/// is a lock-free atomic store.
void RequestDrain();
bool DrainRequested();
/// Clears the flag — tests only (the flag is process-global).
void ResetDrainForTest();
/// Installs `RequestDrain` as the SIGTERM and SIGINT handler.
void InstallDrainSignalHandlers();

/// Sidecar files under the checkpoint root / the per-job directory.
std::string QuarantinePath(const std::string& checkpoint_root);
std::string RemainingJobsPath(const std::string& checkpoint_root);
std::string AttemptsPath(const std::string& job_dir);

/// Outcome of one served job.
struct JobReport {
  PromotionJob job;
  bool ok = false;
  std::string error;  ///< set when !ok (e.g. unknown method)
  core::ParallelCampaignResult result;  ///< valid when ok
  /// Attempts this job has consumed, including crashed prior processes.
  std::size_t attempts = 0;
  /// The watchdog deadline-killed at least one attempt.
  bool timed_out = false;
  /// Attempts exhausted `max_attempts`; the job was parked in
  /// `quarantine.csv` with `error` as its last error.
  bool quarantined = false;
  /// The run was cut short by a drain request (not a failure: completed
  /// work is checkpointed and the job can resume).
  bool drained = false;
};

/// The long-running promotion service (ISSUE 6 tentpole): consumes
/// `PromotionJob`s from a queue and runs each as one sharded campaign on
/// the shared thread pool via `core::ParallelCampaignRunner`, with
/// per-job checkpoint/resume. Jobs execute one at a time in arrival
/// order — each job already owns the configured `--jobs` worth of
/// parallelism, so running jobs concurrently would only oversubscribe
/// the pool — while producers keep feeding the queue concurrently. The
/// server trains the attacker's surrogate at most once: the first
/// surrogate-based job fills the server's slot and every later job on
/// the server reuses it.
class AttackServer {
 public:
  /// `dataset`, `target_train` and `artifacts` are borrowed and must
  /// outlive the server; the factories are copied.
  AttackServer(const data::CrossDomainDataset& dataset,
               const data::Dataset& target_train,
               core::ModelFactory model_factory,
               const core::SourceArtifacts& artifacts,
               const ServerConfig& config);

  /// Runs one job to completion (synchronously), under supervision:
  /// deadline watchdog, bounded retries with backoff, quarantine after
  /// `max_attempts` failures (see ServerConfig). Call it from one thread
  /// at a time (`Drain` does): it trains the server's surrogate into its
  /// slot on the calling thread, and pool workers see the model only
  /// through the `shared_ptr` copies the job's factory captured.
  JobReport RunJob(const PromotionJob& job);

  /// Serves `queue` until it is closed and drained, or until a graceful
  /// drain (`RequestDrain`) interrupts it — then the remaining queue is
  /// persisted to `RemainingJobsPath(checkpoint_root)`. Returns the
  /// reports in completion order.
  std::vector<JobReport> Drain(JobQueue* queue);

  std::size_t jobs_run() const { return jobs_run_; }
  std::size_t jobs_failed() const { return jobs_failed_; }
  const ServerConfig& config() const { return config_; }

 private:
  const data::CrossDomainDataset& dataset_;
  const data::Dataset& target_train_;
  core::ModelFactory model_factory_;
  const core::SourceArtifacts& artifacts_;
  ServerConfig config_;
  /// Filled by the first surrogate-based job; see `RunJob`.
  SurrogateSlot surrogate_;
  std::size_t jobs_run_ = 0;
  std::size_t jobs_failed_ = 0;
};

}  // namespace copyattack::serve

#endif  // COPYATTACK_SERVE_ATTACK_SERVER_H_

#ifndef COPYATTACK_REC_BLACK_BOX_H_
#define COPYATTACK_REC_BLACK_BOX_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "rec/recommender.h"
#include "util/annotations.h"

namespace copyattack::rec {

/// Outcome classification of one black-box operation. In the paper's
/// in-process setting every operation succeeds (`kOk`); the remaining
/// codes model the failure surface of a *remote* target oracle and are
/// produced by the `fault::FaultInjector` decorator (simulated faults)
/// and the `fault::ResilientBlackBox` client (`kUnavailable` after retry
/// exhaustion or while its circuit breaker is open).
enum class BlackBoxStatus {
  kOk,              ///< operation landed; payload is valid
  kTransientError,  ///< spurious failure; retry may succeed
  kTimeout,         ///< the oracle took longer than the client deadline
  kRateLimited,     ///< the platform rejected the call (throttling)
  kUnavailable,     ///< client gave up: retries exhausted or breaker open
};

/// Human-readable status name ("ok", "transient_error", ...).
const char* ToString(BlackBoxStatus status);

/// Result of an injection attempt. `user` is only meaningful on `kOk`.
struct InjectResult {
  BlackBoxStatus status = BlackBoxStatus::kOk;
  data::UserId user = data::kNoUser;
  bool ok() const { return status == BlackBoxStatus::kOk; }
};

/// Result of a Top-k query. `items` is only meaningful on `kOk` (and may
/// legitimately be shorter than k under simulated truncation faults).
struct QueryResult {
  BlackBoxStatus status = BlackBoxStatus::kOk;
  std::vector<data::ItemId> items;
  bool ok() const { return status == BlackBoxStatus::kOk; }
};

/// The attacker's view of the target recommender system (paper §4.5):
/// only two operations exist — inject a user profile, and query the Top-k
/// recommendation list of a user. Everything else about the model (its
/// architecture, parameters, training data) is hidden.
///
/// This interface is the seam the fault-tolerance subsystem decorates:
/// `BlackBoxRecommender` is the in-process ground truth,
/// `fault::FaultInjector` wraps it with a deterministic fault schedule,
/// and `fault::ResilientBlackBox` wraps either with retries and a
/// circuit breaker. Decorators forward the attack meters to the
/// innermost oracle, so the meters always count operations that actually
/// landed on the target.
class BlackBoxInterface {
 public:
  virtual ~BlackBoxInterface() = default;

  /// Injection attack: appends a (copied) user profile to the target
  /// domain. On success the result carries the new user id.
  virtual InjectResult Inject(data::Profile profile) = 0;

  /// Query access: Top-k item ids among `candidates` for `user`, best
  /// first, on success.
  virtual QueryResult Query(data::UserId user,
                            const std::vector<data::ItemId>& candidates,
                            std::size_t k) = 0;

  /// Number of Top-k queries answered by the target so far.
  virtual std::size_t query_count() const = 0;

  /// Number of profiles that actually landed on the target so far.
  virtual std::size_t injected_profiles() const = 0;

  /// Total number of interactions injected (the "item budget").
  virtual std::size_t injected_interactions() const = 0;

  /// Resets the attack meters (not the injected data).
  virtual void ResetCounters() = 0;

  /// The polluted target-domain dataset behind the oracle.
  virtual const data::Dataset& polluted() const = 0;
};

/// The in-process implementation of the black-box oracle, wrapping a
/// fitted recommender serving over the polluted dataset.
///
/// The wrapper also meters the attack: number of injected profiles,
/// number of injected interactions (the item budget of Table 2), and
/// number of Top-k queries issued. The meters are relaxed atomics so
/// threaded campaigns may share one oracle for concurrent *queries*
/// (reads of the serving state) without torn counters; injections mutate
/// the dataset and stay single-writer (enforced by the dataset's
/// MutationSentinel).
class BlackBoxRecommender final : public BlackBoxInterface {
 public:
  /// `model` must already be serving over `*polluted`. Both are borrowed
  /// and must outlive this wrapper.
  BlackBoxRecommender(Recommender* model, data::Dataset* polluted);

  /// Injection attack: appends a (copied) user profile to the target
  /// domain and folds it into the model's serving state. Returns the new
  /// user id. (Infallible concrete form of `Inject`.)
  data::UserId InjectUser(data::Profile profile);

  /// Query access: Top-k item ids among `candidates` for `user`, best
  /// first. Increments the query counter. (Infallible concrete form of
  /// `Query`.) Scores the candidates with the model's row scorer
  /// (`Recommender::ScoreCandidatesInto`) and selects with the exact
  /// `math::TopKPerRow`, both into reused per-thread scratch: the only
  /// allocation is the returned list.
  std::vector<data::ItemId> QueryTopK(
      data::UserId user, const std::vector<data::ItemId>& candidates,
      std::size_t k);

  InjectResult Inject(data::Profile profile) override;
  QueryResult Query(data::UserId user,
                    const std::vector<data::ItemId>& candidates,
                    std::size_t k) override;

  std::size_t query_count() const override {
    return query_count_.load(std::memory_order_relaxed);
  }

  std::size_t injected_profiles() const override {
    return injected_profiles_.load(std::memory_order_relaxed);
  }

  std::size_t injected_interactions() const override {
    return injected_interactions_.load(std::memory_order_relaxed);
  }

  void ResetCounters() override;

  const data::Dataset& polluted() const override { return *polluted_; }
  const Recommender& model() const { return *model_; }

 private:
  Recommender* model_;
  data::Dataset* polluted_;
  std::atomic<std::size_t> query_count_ CA_ATOMIC_ONLY{0};
  std::atomic<std::size_t> injected_profiles_ CA_ATOMIC_ONLY{0};
  std::atomic<std::size_t> injected_interactions_ CA_ATOMIC_ONLY{0};
};

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_BLACK_BOX_H_

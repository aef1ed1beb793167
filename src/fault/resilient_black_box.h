#ifndef COPYATTACK_FAULT_RESILIENT_BLACK_BOX_H_
#define COPYATTACK_FAULT_RESILIENT_BLACK_BOX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "obs/obs.h"
#include "rec/black_box.h"
#include "util/rng.h"

namespace copyattack::fault {

/// Bounded-retry policy with exponential backoff and multiplicative
/// jitter. `max_attempts` counts the first try: 4 means 1 try + up to 3
/// retries.
struct RetryPolicy {
  std::size_t max_attempts = 4;
  std::uint64_t initial_backoff_us = 1000;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_us = 100000;
  /// Backoff is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.2;
};

/// Circuit-breaker policy (closed → open → half-open; DESIGN.md §11).
struct BreakerPolicy {
  /// Consecutive failed *operations* (not attempts) that trip the breaker.
  std::size_t failure_threshold = 5;
  /// Cool-down before an open breaker lets a probe through.
  std::uint64_t open_duration_us = 250000;
  /// Successful half-open probes required to close the breaker again.
  std::size_t half_open_successes = 2;
};

struct ResilienceConfig {
  bool enabled = false;
  /// Seed of the jitter stream.
  std::uint64_t seed = 0x5EEDULL;
  RetryPolicy retry;
  BreakerPolicy breaker;
  /// Logical cost charged to the client's virtual clock per black-box
  /// operation; this is what eventually moves an open breaker past its
  /// cool-down.
  std::uint64_t virtual_op_cost_us = 10000;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Human-readable breaker state name ("closed", "open", "half_open").
const char* ToString(BreakerState state);

/// Client-side fault tolerance for a black-box oracle: bounded retries
/// with exponential backoff + jitter around retryable statuses
/// (transient / timeout / rate-limited), and a circuit breaker that stops
/// hammering a failing oracle, letting the attack environment degrade to
/// proxy-model reward estimates until the oracle recovers.
///
/// Single-threaded like the rest of the per-episode attack stack; the
/// meters it exposes forward to the innermost oracle.
class ResilientBlackBox final : public rec::BlackBoxInterface {
 public:
  struct Stats {
    std::size_t retries = 0;          ///< backoff waits taken
    std::size_t retry_exhausted = 0;  ///< operations that gave up
    std::size_t short_circuited = 0;  ///< rejected while breaker open
    std::size_t breaker_trips = 0;    ///< closed → open
    std::size_t breaker_reopens = 0;  ///< half-open probe failed → open
    std::size_t breaker_closes = 0;   ///< half-open → closed
    std::uint64_t total_backoff_us = 0;
  };

  /// `inner` is borrowed and must outlive the client.
  ResilientBlackBox(rec::BlackBoxInterface* inner,
                    const ResilienceConfig& config);

  rec::InjectResult Inject(data::Profile profile) override {
    // Copied per attempt: a retry must resend the same payload, so the
    // lambda cannot move `profile` into the first (possibly failing) try.
    return Execute<rec::InjectResult>(
        [&] { return inner_->Inject(profile); });
  }

  rec::QueryResult Query(data::UserId user,
                         const std::vector<data::ItemId>& candidates,
                         std::size_t k) override {
    return Execute<rec::QueryResult>(
        [&] { return inner_->Query(user, candidates, k); });
  }

  std::size_t query_count() const override { return inner_->query_count(); }
  std::size_t injected_profiles() const override {
    return inner_->injected_profiles();
  }
  std::size_t injected_interactions() const override {
    return inner_->injected_interactions();
  }
  void ResetCounters() override { inner_->ResetCounters(); }
  const data::Dataset& polluted() const override {
    return inner_->polluted();
  }

  BreakerState breaker_state() const { return state_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t virtual_now_us() const { return virtual_now_us_; }

 private:
  static bool Retryable(rec::BlackBoxStatus status) {
    return status == rec::BlackBoxStatus::kTransientError ||
           status == rec::BlackBoxStatus::kTimeout ||
           status == rec::BlackBoxStatus::kRateLimited;
  }

  /// Accounts one backoff wait on the virtual clock; nothing really
  /// sleeps, because the in-process oracle has no reason to.
  void Wait(std::uint64_t micros) {
    stats_.total_backoff_us += micros;
    OBS_HIST_OBSERVE("fault.backoff_us", micros);
    virtual_now_us_ += micros;
  }

  /// True if the breaker admits a call right now (possibly transitioning
  /// open → half-open when the cool-down has elapsed).
  bool BreakerAdmits();
  void OnOperationSuccess();
  void OnOperationFailure();
  void SetState(BreakerState state);

  template <typename ResultT, typename OpFn>
  ResultT Execute(OpFn&& op) {
    if (!config_.enabled) return op();
    // The logical clock ticks on every call — including short-circuited
    // ones — so an open breaker always ages toward half-open even when
    // nothing reaches the oracle.
    virtual_now_us_ += config_.virtual_op_cost_us;
    if (!BreakerAdmits()) {
      ++stats_.short_circuited;
      OBS_COUNTER_INC("fault.short_circuited");
      ResultT rejected;
      rejected.status = rec::BlackBoxStatus::kUnavailable;
      return rejected;
    }
    std::uint64_t backoff_us = config_.retry.initial_backoff_us;
    for (std::size_t attempt = 1;; ++attempt) {
      ResultT result = op();
      if (result.ok()) {
        OnOperationSuccess();
        return result;
      }
      if (!Retryable(result.status) || state_ == BreakerState::kHalfOpen ||
          attempt >= config_.retry.max_attempts) {
        // Non-retryable, a failed half-open probe (reopen immediately,
        // no point burning retries on a recovering oracle), or exhausted.
        if (attempt >= config_.retry.max_attempts &&
            Retryable(result.status)) {
          ++stats_.retry_exhausted;
          OBS_COUNTER_INC("fault.retry_exhausted");
          result.status = rec::BlackBoxStatus::kUnavailable;
        }
        OnOperationFailure();
        return result;
      }
      ++stats_.retries;
      OBS_COUNTER_INC("fault.retries");
      const double scale =
          rng_.UniformDouble(1.0 - config_.retry.jitter,
                             1.0 + config_.retry.jitter);
      Wait(static_cast<std::uint64_t>(
          static_cast<double>(backoff_us) * std::max(0.0, scale)));
      backoff_us = std::min<std::uint64_t>(
          config_.retry.max_backoff_us,
          static_cast<std::uint64_t>(static_cast<double>(backoff_us) *
                                     config_.retry.backoff_multiplier));
    }
  }

  rec::BlackBoxInterface* inner_;
  ResilienceConfig config_;
  util::Rng rng_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t failure_streak_ = 0;
  std::size_t half_open_successes_ = 0;
  std::uint64_t opened_at_us_ = 0;
  /// The client's logical clock, advanced by `virtual_op_cost_us` per
  /// operation and by each backoff wait. It drives backoff accounting and
  /// the breaker cool-down, so the same seed and fault schedule give the
  /// same breaker transitions and the same campaign outcome.
  std::uint64_t virtual_now_us_ = 0;
  Stats stats_;
};

}  // namespace copyattack::fault

#endif  // COPYATTACK_FAULT_RESILIENT_BLACK_BOX_H_

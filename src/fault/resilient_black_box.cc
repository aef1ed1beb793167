#include "fault/resilient_black_box.h"

#include "util/check.h"

namespace copyattack::fault {

const char* ToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

ResilientBlackBox::ResilientBlackBox(rec::BlackBoxInterface* inner,
                                     const ResilienceConfig& config)
    : inner_(inner), config_(config), rng_(config.seed) {
  CA_CHECK(inner != nullptr);
  CA_CHECK_GT(config.retry.max_attempts, 0U);
  CA_CHECK_GT(config.breaker.failure_threshold, 0U);
  CA_CHECK_GT(config.breaker.half_open_successes, 0U);
}

void ResilientBlackBox::SetState(BreakerState state) {
  state_ = state;
  OBS_GAUGE_SET("fault.breaker_state", static_cast<int>(state));
}

bool ResilientBlackBox::BreakerAdmits() {
  if (state_ == BreakerState::kClosed) return true;
  if (state_ == BreakerState::kOpen) {
    if (virtual_now_us_ - opened_at_us_ < config_.breaker.open_duration_us) {
      return false;
    }
    // Cool-down elapsed: admit probes.
    SetState(BreakerState::kHalfOpen);
    half_open_successes_ = 0;
  }
  return true;  // half-open admits probes
}

void ResilientBlackBox::OnOperationSuccess() {
  failure_streak_ = 0;
  if (state_ != BreakerState::kHalfOpen) return;
  if (++half_open_successes_ >= config_.breaker.half_open_successes) {
    SetState(BreakerState::kClosed);
    ++stats_.breaker_closes;
    OBS_COUNTER_INC("fault.breaker_closes");
  }
}

void ResilientBlackBox::OnOperationFailure() {
  if (state_ == BreakerState::kHalfOpen) {
    // A failed probe means the oracle has not recovered: reopen and
    // restart the cool-down.
    SetState(BreakerState::kOpen);
    opened_at_us_ = virtual_now_us_;
    ++stats_.breaker_reopens;
    OBS_COUNTER_INC("fault.breaker_reopens");
    return;
  }
  ++failure_streak_;
  if (state_ == BreakerState::kClosed &&
      failure_streak_ >= config_.breaker.failure_threshold) {
    SetState(BreakerState::kOpen);
    opened_at_us_ = virtual_now_us_;
    failure_streak_ = 0;
    ++stats_.breaker_trips;
    OBS_COUNTER_INC("fault.breaker_trips");
  }
}

}  // namespace copyattack::fault

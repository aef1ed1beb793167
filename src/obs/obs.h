#ifndef COPYATTACK_OBS_OBS_H_
#define COPYATTACK_OBS_OBS_H_

/// Umbrella header of the observability subsystem: include this (only
/// this) from instrumented code and use the OBS_* macros below.
///
/// Layering: src/obs depends on nothing but the standard library, so even
/// the lowest layers (util/thread_pool) can be instrumented without a
/// dependency cycle.
///
/// Cost model:
///  * runtime off (the default; see obs::SetEnabled): one relaxed atomic
///    load and a predictable branch per site — measured at well under 1%
///    of the per-injection episode cost (ROADMAP.md's Perf log);
///  * runtime on: counters are one relaxed fetch-add on a per-thread
///    shard; spans add two clock reads and a push into a per-thread ring.
///
/// Naming convention (DESIGN.md §9): `<layer>.<noun>[_<unit>]`, e.g.
/// `env.inject_us`, `blackbox.queries`, `pool.tasks_executed`. Latency
/// histograms are microseconds and end in `_us`; unit-interval histograms
/// (rewards, ratios) carry no suffix.

#include "obs/metrics.h"
#include "obs/trace.h"

#define OBS_INTERNAL_CONCAT2(a, b) a##b
#define OBS_INTERNAL_CONCAT(a, b) OBS_INTERNAL_CONCAT2(a, b)

/// Scoped tracing span; `name` must be a string literal (or otherwise have
/// static storage duration). Use at block scope.
#define OBS_SPAN(name)                                      \
  ::copyattack::obs::ScopedSpan OBS_INTERNAL_CONCAT(        \
      ca_obs_span_, __LINE__)(name)

/// The counter/gauge/histogram macros resolve the named metric once per
/// call site (function-local static reference; the registry mutex is only
/// ever taken on the first execution) and guard the actual mutation on the
/// runtime flag.
#define OBS_COUNTER_ADD(name, amount)                                     \
  do {                                                                    \
    static ::copyattack::obs::Counter& ca_obs_counter =                   \
        ::copyattack::obs::MetricsRegistry::Global().GetCounter(name);    \
    if (::copyattack::obs::Enabled()) ca_obs_counter.Add(amount);         \
  } while (0)

#define OBS_COUNTER_INC(name) OBS_COUNTER_ADD(name, 1)

#define OBS_GAUGE_SET(name, value)                                        \
  do {                                                                    \
    static ::copyattack::obs::Gauge& ca_obs_gauge =                       \
        ::copyattack::obs::MetricsRegistry::Global().GetGauge(name);      \
    if (::copyattack::obs::Enabled())                                     \
      ca_obs_gauge.Set(static_cast<std::int64_t>(value));                 \
  } while (0)

/// Observation into a latency histogram (microsecond buckets).
#define OBS_HIST_OBSERVE(name, value)                                     \
  do {                                                                    \
    static ::copyattack::obs::Histogram& ca_obs_hist =                    \
        ::copyattack::obs::MetricsRegistry::Global().GetLatencyHistogram( \
            name);                                                        \
    if (::copyattack::obs::Enabled())                                     \
      ca_obs_hist.Observe(static_cast<double>(value));                    \
  } while (0)

/// Observation into a unit-interval histogram (rewards, clip ratios).
#define OBS_UNIT_HIST_OBSERVE(name, value)                                \
  do {                                                                    \
    static ::copyattack::obs::Histogram& ca_obs_hist =                    \
        ::copyattack::obs::MetricsRegistry::Global().GetUnitHistogram(    \
            name);                                                        \
    if (::copyattack::obs::Enabled())                                     \
      ca_obs_hist.Observe(static_cast<double>(value));                    \
  } while (0)

/// Scoped latency timer: observes the enclosing scope's duration (µs) into
/// the latency histogram `name`. Expands to two declarations — use at
/// block scope, never as the body of an unbraced `if`.
#define OBS_SCOPED_TIMER_US(name)                                          \
  static ::copyattack::obs::Histogram& OBS_INTERNAL_CONCAT(                \
      ca_obs_timer_hist_, __LINE__) =                                      \
      ::copyattack::obs::MetricsRegistry::Global().GetLatencyHistogram(    \
          name);                                                           \
  ::copyattack::obs::ScopedHistogramTimer OBS_INTERNAL_CONCAT(             \
      ca_obs_timer_, __LINE__)(                                            \
      ::copyattack::obs::Enabled()                                         \
          ? &OBS_INTERNAL_CONCAT(ca_obs_timer_hist_, __LINE__)             \
          : nullptr)

#endif  // COPYATTACK_OBS_OBS_H_

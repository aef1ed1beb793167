#ifndef COPYATTACK_OBS_EXPORT_H_
#define COPYATTACK_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace copyattack::obs {

/// CSV snapshot. One row per scalar fact, schema `name,kind,key,value`:
///   counter      key empty, value = count
///   gauge        key empty, value = gauge
///   hist_bucket  key = bucket upper bound ("inf" for overflow),
///                value = bucket count
///   hist_sum     key empty, value = sum of observations
///   hist_count   key empty, value = observation count
/// Metric names never contain commas/quotes, so the format needs no
/// escaping and `ReadMetricsCsv` round-trips bit-exactly (doubles are
/// written with 17 significant digits).
std::string MetricsToCsv(const MetricsSnapshot& snapshot);
bool WriteMetricsCsv(const MetricsSnapshot& snapshot,
                     const std::string& path);
bool ReadMetricsCsv(const std::string& path, MetricsSnapshot* snapshot);

/// JSON summary — the machine-readable campaign telemetry that
/// `--telemetry_out` writes as summary.json:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {"name": {"bounds": [...], "counts": [...],
///                            "sum": s, "count": n,
///                            "mean": m, "p50": ..., "p95": ..., "p99": ...}}}
/// The percentile fields are derived (recomputed on parse, not read back).
std::string MetricsToJson(const MetricsSnapshot& snapshot);
bool WriteMetricsJson(const MetricsSnapshot& snapshot,
                      const std::string& path);
bool ParseMetricsJson(const std::string& json, MetricsSnapshot* snapshot);

/// Chrome-trace (chrome://tracing / Perfetto "Trace Event Format") dump:
/// one complete ("ph":"X") event per span, timestamps in microseconds
/// rebased to the earliest span, thread index as tid, span depth in args.
std::string EventsToChromeTrace(const std::vector<TraceEvent>& events);
bool WriteChromeTrace(const std::vector<TraceEvent>& events,
                      const std::string& path);

/// Writes the three standard exports of the *global* registry/recorder
/// into `dir` (created if missing): metrics.csv, summary.json, trace.json.
/// Returns false if the directory or any file cannot be written.
bool ExportAll(const std::string& dir);

}  // namespace copyattack::obs

#endif  // COPYATTACK_OBS_EXPORT_H_

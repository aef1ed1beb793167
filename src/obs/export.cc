#include "obs/export.h"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace copyattack::obs {

namespace {

/// Shortest-exact double formatting: 17 significant digits round-trip any
/// IEEE double, which is what makes the CSV/JSON exporters loss-free.
std::string FormatDouble(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::string EscapeJsonString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "name,kind,key,value\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << name << ",counter,," << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << name << ",gauge,," << value << '\n';
  }
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      out << hist.name << ",hist_bucket,"
          << (i < hist.bounds.size() ? FormatDouble(hist.bounds[i])
                                     : std::string("inf"))
          << ',' << hist.counts[i] << '\n';
    }
    out << hist.name << ",hist_sum,," << FormatDouble(hist.sum) << '\n';
    out << hist.name << ",hist_count,," << hist.count << '\n';
  }
  return out.str();
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << EscapeJsonString(snapshot.counters[i].first)
        << "\": " << snapshot.counters[i].second;
  }
  out << (snapshot.counters.empty() ? "}" : "\n  }");
  out << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << EscapeJsonString(snapshot.gauges[i].first)
        << "\": " << snapshot.gauges[i].second;
  }
  out << (snapshot.gauges.empty() ? "}" : "\n  }");
  out << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& hist = snapshot.histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << EscapeJsonString(hist.name) << "\": {\n      \"bounds\": [";
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      out << (b == 0 ? "" : ", ") << FormatDouble(hist.bounds[b]);
    }
    out << "],\n      \"counts\": [";
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
      out << (b == 0 ? "" : ", ") << hist.counts[b];
    }
    out << "],\n      \"sum\": " << FormatDouble(hist.sum)
        << ",\n      \"count\": " << hist.count
        << ",\n      \"mean\": " << FormatDouble(hist.Mean())
        << ",\n      \"p50\": " << FormatDouble(hist.Percentile(0.50))
        << ",\n      \"p95\": " << FormatDouble(hist.Percentile(0.95))
        << ",\n      \"p99\": " << FormatDouble(hist.Percentile(0.99))
        << "\n    }";
  }
  out << (snapshot.histograms.empty() ? "}" : "\n  }");
  out << "\n}\n";
  return out.str();
}

std::string EventsToChromeTrace(const std::vector<TraceEvent>& events) {
  std::int64_t base_ns = 0;
  for (const TraceEvent& event : events) {
    if (base_ns == 0 || event.start_ns < base_ns) base_ns = event.start_ns;
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \""
        << EscapeJsonString(event.name != nullptr ? event.name : "?")
        << "\", \"cat\": \"obs\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << event.thread_index << ", \"ts\": "
        << FormatDouble(static_cast<double>(event.start_ns - base_ns) *
                        1e-3)
        << ", \"dur\": "
        << FormatDouble(static_cast<double>(event.duration_ns) * 1e-3)
        << ", \"args\": {\"depth\": " << event.depth << "}}";
  }
  out << (events.empty() ? "]" : "\n]") << "}\n";
  return out.str();
}

bool ExportAll(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::vector<TraceEvent> events = TraceRecorder::Global().Collect();
  const std::filesystem::path base(dir);
  return WriteFile((base / "metrics.csv").string(), MetricsToCsv(snapshot)) &&
         WriteFile((base / "summary.json").string(), MetricsToJson(snapshot)) &&
         WriteFile((base / "trace.json").string(), EventsToChromeTrace(events));
}

}  // namespace copyattack::obs

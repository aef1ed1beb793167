// csv_compare: the regeneration gate for the committed bench CSVs. A CSV
// rewritten by `copyattack recipe <name>` is compared against its
// committed baseline under bench_results/ (exactly, with --tol=0, for the
// deterministic recipes).
//
// usage: csv_compare <baseline.csv> <candidate.csv> [--tol=0.15]
//                    [--rtol=R]
//
// Rules:
//   * headers must match exactly (same columns, same order);
//   * rows are keyed by their non-numeric and integer-spelled fields (in
//     column order) — labels and sweep coordinates like a budget or a
//     depth — so row order may differ but every baseline key must exist
//     in the candidate and vice versa;
//   * decimal fields must agree within the absolute tolerance OR, when
//     --rtol is supplied, within the relative one: a pair passes if
//     |e - a| <= tol or |e - a| <= rtol * max(|e|, |a|). The relative
//     mode is for large-magnitude perf columns (latencies, throughputs)
//     where a one-size absolute bound is either too loose near zero or
//     too tight at scale;
//   * key fields of matching rows must be identical (integer metrics,
//     such as a count, are therefore exact).
//
// Exit status: 0 on match, 1 on any divergence (each printed to stderr),
// 2 on usage/IO errors. The absolute tolerance is sized for the metric
// columns of the bench CSVs (AUCs, hit ratios — all in [0, 1]).

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "util/csv.h"

namespace {

bool ParseNumber(const std::string& field, double* value) {
  if (field.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(field.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// True for fields that identify a row rather than measure it: anything
/// non-numeric, and integers spelled as an optional sign plus digits.
bool IsKeyField(const std::string& field) {
  const std::size_t digits =
      !field.empty() && (field[0] == '+' || field[0] == '-') ? 1 : 0;
  if (digits < field.size() &&
      field.find_first_not_of("0123456789", digits) == std::string::npos) {
    return true;
  }
  double ignored;
  return !ParseNumber(field, &ignored);
}

/// Concatenation of the row's key fields — the stable identity of a bench
/// CSV row (e.g. "copied-raw|" or "SmallCross|RandomAttack|5|").
std::string RowKey(const std::vector<std::string>& row) {
  std::string key;
  for (const std::string& field : row) {
    if (!IsKeyField(field)) continue;
    key += field;
    key += '|';
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path;
  double tolerance = 0.15;
  double rtolerance = 0.0;  // 0 = relative mode off
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tol=", 0) == 0) {
      if (!ParseNumber(arg.substr(6), &tolerance) || tolerance < 0.0) {
        std::fprintf(stderr, "csv_compare: bad --tol value '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--rtol=", 0) == 0) {
      if (!ParseNumber(arg.substr(7), &rtolerance) || rtolerance < 0.0) {
        std::fprintf(stderr, "csv_compare: bad --rtol value '%s'\n",
                     arg.c_str());
        return 2;
      }
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: csv_compare <baseline.csv> <candidate.csv> "
                   "[--tol=T] [--rtol=R]\n");
      return 2;
    }
  }
  if (candidate_path.empty()) {
    std::fprintf(stderr,
                 "usage: csv_compare <baseline.csv> <candidate.csv> "
                 "[--tol=T] [--rtol=R]\n");
    return 2;
  }

  using copyattack::util::ReadCsv;
  std::vector<std::string> baseline_header, candidate_header;
  std::vector<std::vector<std::string>> baseline_rows, candidate_rows;
  if (!ReadCsv(baseline_path, &baseline_header, &baseline_rows)) {
    std::fprintf(stderr, "csv_compare: cannot read %s\n",
                 baseline_path.c_str());
    return 2;
  }
  if (!ReadCsv(candidate_path, &candidate_header, &candidate_rows)) {
    std::fprintf(stderr, "csv_compare: cannot read %s\n",
                 candidate_path.c_str());
    return 2;
  }

  int divergences = 0;
  if (baseline_header != candidate_header) {
    // Name the first offending column, not just the fact of a mismatch.
    const std::size_t columns =
        std::max(baseline_header.size(), candidate_header.size());
    for (std::size_t c = 0; c < columns; ++c) {
      const std::string& expected =
          c < baseline_header.size() ? baseline_header[c] : "<absent>";
      const std::string& actual =
          c < candidate_header.size() ? candidate_header[c] : "<absent>";
      if (expected != actual) {
        std::fprintf(stderr,
                     "csv_compare: header mismatch at column %zu: "
                     "'%s' vs '%s'\n",
                     c, expected.c_str(), actual.c_str());
        break;
      }
    }
    ++divergences;
  }

  // Keys must be unique on both sides: a duplicate would silently shadow
  // the row it collides with, so every comparison after it would lie.
  std::map<std::string, std::vector<std::string>> candidates;
  for (const auto& row : candidate_rows) {
    const std::string key = RowKey(row);
    if (!candidates.emplace(key, row).second) {
      std::fprintf(stderr, "csv_compare: duplicate key '%s' in %s\n",
                   key.c_str(), candidate_path.c_str());
      ++divergences;
    }
  }
  {
    std::map<std::string, int> baseline_keys;
    for (const auto& row : baseline_rows) {
      if (++baseline_keys[RowKey(row)] == 2) {
        std::fprintf(stderr, "csv_compare: duplicate key '%s' in %s\n",
                     RowKey(row).c_str(), baseline_path.c_str());
        ++divergences;
      }
    }
  }
  std::map<std::string, bool> seen;
  for (const auto& [key, row] : candidates) seen[key] = false;

  for (const auto& row : baseline_rows) {
    const std::string key = RowKey(row);
    const auto it = candidates.find(key);
    if (it == candidates.end()) {
      std::fprintf(stderr, "csv_compare: row '%s' missing from %s\n",
                   key.c_str(), candidate_path.c_str());
      ++divergences;
      continue;
    }
    seen[key] = true;
    const std::vector<std::string>& other = it->second;
    if (other.size() != row.size()) {
      std::fprintf(stderr, "csv_compare: row '%s' arity differs\n",
                   key.c_str());
      ++divergences;
      continue;
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      const bool keyed = IsKeyField(row[c]);
      double expected, actual;
      if (keyed != IsKeyField(other[c])) {
        std::fprintf(stderr,
                     "csv_compare: row '%s' col %zu type differs "
                     "('%s' vs '%s')\n",
                     key.c_str(), c, row[c].c_str(), other[c].c_str());
        ++divergences;
      } else if (!keyed && ParseNumber(row[c], &expected) &&
                 ParseNumber(other[c], &actual)) {
        const double diff = std::fabs(expected - actual);
        const double scale = std::max(std::fabs(expected),
                                      std::fabs(actual));
        const bool within_abs = diff <= tolerance;
        const bool within_rel =
            rtolerance > 0.0 && diff <= rtolerance * scale;
        if (!within_abs && !within_rel) {
          std::fprintf(stderr,
                       "csv_compare: row '%s' col %zu: |%s - %s| > %g"
                       "%s\n",
                       key.c_str(), c, row[c].c_str(), other[c].c_str(),
                       tolerance,
                       rtolerance > 0.0 ? " (and beyond --rtol)" : "");
          ++divergences;
        }
      } else if (row[c] != other[c]) {
        std::fprintf(stderr,
                     "csv_compare: row '%s' col %zu: '%s' != '%s'\n",
                     key.c_str(), c, row[c].c_str(), other[c].c_str());
        ++divergences;
      }
    }
  }
  for (const auto& [key, was_seen] : seen) {
    if (!was_seen) {
      std::fprintf(stderr, "csv_compare: unexpected extra row '%s' in %s\n",
                   key.c_str(), candidate_path.c_str());
      ++divergences;
    }
  }

  if (divergences > 0) {
    std::fprintf(stderr, "csv_compare: %d divergence(s) beyond tol=%g\n",
                 divergences, tolerance);
    return 1;
  }
  std::printf("csv_compare: %s matches %s within tol=%g\n",
              candidate_path.c_str(), baseline_path.c_str(), tolerance);
  return 0;
}

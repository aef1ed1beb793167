#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyze/passes.h"

/// Line rules over the blanked per-line view (`LexedFile::code_lines`):
/// comments and string/char-literal interiors are spaces there, so a
/// banned word inside either never fires. src/ only — tests, tools and
/// benches may print, allocate and compare floats as they please.

namespace copyattack::analyze {

namespace {

/// Per-rule src/-relative files where the pattern is the implementation
/// of the invariant itself (the logger may call fprintf) rather than a
/// violation of it.
struct ApprovedFiles {
  std::string_view rule;
  std::vector<std::string_view> files;
};

const std::vector<ApprovedFiles>& ApprovedFileTable() {
  static const std::vector<ApprovedFiles> table = {
      {"printf-family",
       {"util/logging.cc", "util/logging.h", "util/check.h",
        "util/string_utils.cc"}},
  };
  return table;
}

bool IsApproved(std::string_view rule, const std::string& src_relative) {
  for (const ApprovedFiles& entry : ApprovedFileTable()) {
    if (entry.rule != rule) continue;
    for (const std::string_view file : entry.files) {
      if (src_relative == file) return true;
    }
  }
  return false;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// True if `code[pos]` starts `word` as a whole identifier: not a substring
/// of a longer identifier and not a member access like `foo.word`.
/// Namespace qualification (`std::word`) still matches — `std::rand` is
/// exactly what the std-rand rule exists to catch.
bool MatchesWordAt(std::string_view code, std::size_t pos,
                   std::string_view word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && (IsIdentChar(code[pos - 1]) || code[pos - 1] == '.'))
    return false;
  const std::size_t end = pos + word.size();
  return end >= code.size() || !IsIdentChar(code[end]);
}

bool ContainsWord(std::string_view code, std::string_view word) {
  for (std::size_t pos = code.find(word); pos != std::string_view::npos;
       pos = code.find(word, pos + 1)) {
    if (MatchesWordAt(code, pos, word)) return true;
  }
  return false;
}

/// Detects `== <float-literal>` / `!= <float-literal>` (either order).
bool HasFloatLiteralCompare(std::string_view code) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if ((code[i] != '=' && code[i] != '!') || code[i + 1] != '=') continue;
    if (i > 0 && (code[i - 1] == '=' || code[i - 1] == '!' ||
                  code[i - 1] == '<' || code[i - 1] == '>'))
      continue;
    if (i + 2 < code.size() && code[i + 2] == '=') continue;
    // Right operand: skip spaces and an optional sign, then look for
    // `digits '.'`.
    std::size_t r = i + 2;
    while (r < code.size() && code[r] == ' ') ++r;
    if (r < code.size() && (code[r] == '-' || code[r] == '+')) ++r;
    std::size_t digits = r;
    while (digits < code.size() && IsDigit(code[digits])) ++digits;
    if (digits > r && digits < code.size() && code[digits] == '.')
      return true;
    // Left operand: scan back over spaces, then over `f`/digits/'.' — a
    // float literal directly before the operator.
    std::size_t l = i;
    while (l > 0 && code[l - 1] == ' ') --l;
    if (l > 0 && (code[l - 1] == 'f' || code[l - 1] == 'F')) --l;
    bool saw_dot = false;
    bool saw_digit = false;
    while (l > 0 && (IsDigit(code[l - 1]) || code[l - 1] == '.')) {
      if (code[l - 1] == '.') saw_dot = true;
      if (IsDigit(code[l - 1])) saw_digit = true;
      --l;
    }
    if (saw_dot && saw_digit) return true;
  }
  return false;
}

bool IsHeader(const std::string& rel_path) {
  const std::size_t dot = rel_path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = rel_path.substr(dot);
  return ext == ".h" || ext == ".hpp";
}

/// Line of the first non-blank code line when it is neither `#pragma once`
/// nor a COPYATTACK_ include guard; 0 when the header opens correctly.
std::size_t MissingHeaderGuardLine(const std::vector<std::string>& lines) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view trimmed(lines[i]);
    while (!trimmed.empty() &&
           (trimmed.front() == ' ' || trimmed.front() == '\t')) {
      trimmed.remove_prefix(1);
    }
    if (trimmed.empty()) continue;
    if (trimmed.rfind("#pragma once", 0) == 0) return 0;
    if (trimmed.rfind("#ifndef COPYATTACK_", 0) == 0) return 0;
    return i + 1;
  }
  return 0;
}

}  // namespace

void RunLintPass(const SourceTree& tree, std::vector<Violation>* violations) {
  for (const ScannedFile& file : tree.files) {
    if (file.rel_path.rfind("src/", 0) != 0) continue;
    const std::string src_relative = SrcRelative(file.rel_path);
    const std::string module = ModuleOf(file.rel_path);
    const bool timed_layer = module == "core" || module == "rec";
    const auto report = [&](std::size_t line, std::string_view rule,
                            std::string message) {
      if (IsApproved(rule, src_relative)) return;
      AddViolation(file, line, rule, std::move(message), violations);
    };

    if (IsHeader(file.rel_path)) {
      if (const std::size_t line =
              MissingHeaderGuardLine(file.lexed.code_lines)) {
        report(line, "header-guard",
               "header must open with `#pragma once` or a COPYATTACK_*_H_ "
               "include guard");
      }
    }

    const std::vector<std::string>& lines = file.lexed.code_lines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i];
      const std::size_t line = i + 1;
      if (ContainsWord(code, "rand") || ContainsWord(code, "srand") ||
          ContainsWord(code, "rand_r")) {
        report(line, "std-rand",
               "use util::Rng instead of the C rand family");
      }
      if (ContainsWord(code, "new")) {
        report(line, "raw-new",
               "raw `new` — use std::make_unique / containers (annotate "
               "intentional process-lifetime singletons)");
      }
      if (ContainsWord(code, "delete") &&
          code.find("= delete") == std::string::npos) {
        report(line, "raw-new", "raw `delete` — use owning types instead");
      }
      for (const std::string_view fn :
           {"printf", "fprintf", "sprintf", "snprintf", "vprintf",
            "vfprintf", "vsnprintf", "puts", "fputs", "putchar"}) {
        if (ContainsWord(code, fn)) {
          report(line, "printf-family",
                 "direct stdio output — route through CA_LOG / util::check");
          break;
        }
      }
      if (HasFloatLiteralCompare(code)) {
        report(line, "float-eq",
               "exact floating-point compare — use a tolerance, or annotate "
               "a deliberate sparsity/sentinel guard");
      }
      if (!timed_layer) continue;
      for (const std::string_view clock :
           {"steady_clock", "system_clock", "high_resolution_clock"}) {
        if (ContainsWord(code, clock)) {
          report(line, "raw-clock",
                 "raw std::chrono clock read in core/rec — time through "
                 "obs::MonotonicNanos / OBS_SPAN / OBS_SCOPED_TIMER_US so "
                 "the telemetry exporters see it");
          break;
        }
      }
    }
  }
}

}  // namespace copyattack::analyze

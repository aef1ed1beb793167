#include "analyze/analysis.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace copyattack::analyze {

namespace fs = std::filesystem;

namespace {

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool IsExcluded(const std::string& rel_path,
                const std::vector<std::string>& excludes) {
  for (const std::string& pattern : excludes) {
    if (rel_path.find(pattern) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const ScannedFile* SourceTree::FindByRelPath(std::string_view rel_path) const {
  for (const ScannedFile& file : files) {
    if (file.rel_path == rel_path) return &file;
  }
  return nullptr;
}

bool ScanTree(const ScanOptions& options, SourceTree* tree,
              std::vector<Violation>* violations, std::string* error) {
  tree->root = options.root;
  tree->files.clear();

  const fs::path root(options.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    *error = "analysis root is not a directory: " + options.root;
    return false;
  }

  std::vector<fs::path> sources;
  for (const std::string& target : options.targets) {
    const fs::path base = root / target;
    if (fs::is_regular_file(base, ec)) {
      if (IsSourceFile(base)) sources.push_back(base);
      continue;
    }
    if (!fs::is_directory(base, ec)) continue;  // optional target dirs
    for (fs::recursive_directory_iterator it(base, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec) && IsSourceFile(it->path())) {
        sources.push_back(it->path());
      }
    }
    if (ec) {
      *error = "error walking " + base.string() + ": " + ec.message();
      return false;
    }
  }

  for (const fs::path& path : sources) {
    std::string rel = fs::relative(path, root, ec).generic_string();
    if (ec || rel.empty()) rel = path.generic_string();
    if (IsExcluded(rel, options.excludes)) continue;

    ScannedFile file;
    file.rel_path = std::move(rel);
    std::string io_error;
    if (!LexFileFromDisk(path.string(), &file.lexed, &io_error)) {
      violations->push_back(
          {file.rel_path, 0, "io", "cannot read file: " + io_error});
      continue;
    }
    tree->files.push_back(std::move(file));
  }

  std::sort(tree->files.begin(), tree->files.end(),
            [](const ScannedFile& a, const ScannedFile& b) {
              return a.rel_path < b.rel_path;
            });

  // Lexer complaints become violations: a mislexed file must not be able to
  // pass the tree check silently.
  for (const ScannedFile& file : tree->files) {
    for (const std::string& message : file.lexed.errors) {
      violations->push_back({file.rel_path, 0, "io", message});
    }
  }
  return true;
}

std::string ModuleOf(std::string_view rel_path) {
  std::string_view rest = rel_path;
  if (rest.rfind("src/", 0) == 0) rest.remove_prefix(4);
  const std::size_t slash = rest.find('/');
  // A file directly under src/ or the root has no module directory.
  if (slash == std::string_view::npos) return std::string();
  return std::string(rest.substr(0, slash));
}

std::string SrcRelative(std::string_view rel_path) {
  if (rel_path.rfind("src/", 0) == 0) rel_path.remove_prefix(4);
  return std::string(rel_path);
}

void AddViolation(const ScannedFile& file, std::size_t line,
                  std::string_view rule, std::string message,
                  std::vector<Violation>* violations) {
  if (file.lexed.Allows(line, "analyze:allow", rule)) return;
  violations->push_back(
      {file.rel_path, line, std::string(rule), std::move(message)});
}

const std::vector<RuleInfo>& RuleCatalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"io", "all", "file unreadable or not lexable as C++"},
      {"layer-undeclared-edge", "include",
       "include crosses modules without a layers.toml declaration"},
      {"layer-unknown-module", "include",
       "module directory missing from layers.toml"},
      {"layer-cycle", "include", "project include graph contains a cycle"},
      {"layer-impure-header", "include",
       "pure_headers entry includes another file"},
      {"iwyu-unused-include", "include",
       "header included but no name it provides is referenced"},
      {"ts-unlocked-field", "thread",
       "CA_GUARDED_BY field accessed without locking its mutex (receivers "
       "freshly make_unique'd in the same body are exempt)"},
      {"ts-atomic-type", "thread",
       "CA_ATOMIC_ONLY field whose declared type is not std::atomic"},
      {"det-raw-entropy", "determinism",
       "std::random_device / wall-clock seeding outside util/rng"},
      {"det-std-engine", "determinism",
       "std <random> engine or distribution outside util/rng (results vary "
       "across standard libraries)"},
      {"det-unseeded-rng", "determinism",
       "util::Rng constructed without an explicit seed"},
      {"det-rng-by-value", "determinism",
       "util::Rng taken by value (copies the stream; pass Rng&)"},
      {"layer-stale-pure-entry", "include",
       "pure_headers entry names a file that no longer exists in the tree"},
      {"ckpt-missing-member", "checkpoint",
       "CA_CHECKPOINTED member absent from the save or load serializer "
       "body and not waived with CA_NOT_CHECKPOINTED(reason)"},
      {"ckpt-order-mismatch", "checkpoint",
       "save and load serializers reference a CA_CHECKPOINTED type's "
       "members in different orders"},
      {"ckpt-no-serializer", "checkpoint",
       "CA_CHECKPOINTED names a save/load function with no definition in "
       "the tree"},
      {"ckpt-crash-phase", "checkpoint",
       "function marks checkpoint.* CA_CRASH_POINT sites but does not "
       "enumerate all three rotation phases (pre_temp_write, pre_rotate, "
       "pre_rename)"},
      {"lock-order-cycle", "lockorder",
       "declared + observed mutex acquisition graph contains a cycle"},
      {"lock-order-contradiction", "lockorder",
       "observed RAII nesting contradicts a declared CA_ACQUIRED_BEFORE "
       "edge"},
      {"lock-in-parallel-for", "lockorder",
       "blocking acquisition of a CA_ACQUIRED_BEFORE mutex inside a "
       "ParallelFor body"},
      {"oracle-direct-call", "oracle",
       "src/ code outside the allowlisted modules calls a metered oracle "
       "entry point or seam method directly, bypassing the "
       "FaultInjector/ResilientBlackBox decorator stack"},
      {"oracle-unmetered-path", "oracle",
       "src/ function reaches a direct oracle call transitively without "
       "passing through an allowlisted gateway"},
      {"hot-path-alloc", "hotpath",
       "explicit allocation (new / make_unique / make_shared / malloc) in "
       "a function reachable from a CA_HOT_PATH root"},
      {"hot-path-lock", "hotpath",
       "blocking lock acquisition in a function reachable from a "
       "CA_HOT_PATH root"},
      {"hot-path-throw", "hotpath",
       "throw expression in a function reachable from a CA_HOT_PATH root"},
      {"hot-path-io", "hotpath",
       "stream or file IO in a function reachable from a CA_HOT_PATH root"},
      {"rng-adhoc-seed", "rng",
       "util::Rng in stream-scoped campaign code constructed from an "
       "arithmetically mixed seed instead of util::DeriveStreamSeed or "
       "restored state"},
      {"rng-fork-in-stream", "rng",
       "Rng::Fork in stream-scoped campaign code (draw-order dependent; "
       "breaks shard/resume invariance — derive a stream seed instead)"},
      {"std-rand", "lint",
       "std::rand / srand / rand_r (all randomness flows through "
       "util::Rng)"},
      {"raw-new", "lint",
       "raw new / delete outside an annotated process-lifetime singleton"},
      {"printf-family", "lint",
       "direct stdio output outside util/logging, util/check and "
       "util/string_utils (route through CA_LOG)"},
      {"header-guard", "lint",
       "header opens without `#pragma once` or a COPYATTACK_*_H_ include "
       "guard"},
      {"float-eq", "lint",
       "== / != against a floating-point literal outside an annotated "
       "sparsity/sentinel guard"},
      {"raw-clock", "lint",
       "std::chrono clock read in core/ or rec/ (time through src/obs)"},
  };
  return kRules;
}

std::size_t ReportText(const std::vector<Violation>& violations,
                       std::size_t files_scanned, std::ostream& out) {
  for (const Violation& v : violations) {
    out << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message
        << "\n";
  }
  if (violations.empty()) {
    out << "copyattack-analyze: " << files_scanned << " files clean\n";
  } else {
    out << "copyattack-analyze: " << violations.size() << " violation(s) in "
        << files_scanned << " files\n";
  }
  return violations.size();
}

std::size_t ReportJson(const std::vector<Violation>& violations,
                       const std::vector<PassTiming>& timings,
                       std::size_t files_scanned,
                       const CallGraphStats* callgraph, std::ostream& out) {
  out << "{\n  \"tool\": \"copyattack-analyze\",\n  \"passes\": [";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(timings[i].pass) << "\"";
  }
  out << "],\n  \"timings_ms\": {";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(timings[i].pass)
        << "\": " << timings[i].millis;
  }
  out << "},\n  \"files_scanned\": " << files_scanned;
  if (callgraph != nullptr) {
    out << ",\n  \"callgraph\": {\"functions\": " << callgraph->functions
        << ", \"call_sites\": " << callgraph->call_sites
        << ", \"resolved_edges\": " << callgraph->resolved_edges
        << ", \"external_calls\": " << callgraph->external_calls
        << ", \"unresolved_calls\": " << callgraph->unresolved_calls
        << ", \"unresolved_rate\": " << callgraph->unresolved_rate << "}";
  }
  out << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    out << (i ? "," : "") << "\n    {\"file\": \"" << JsonEscape(v.file)
        << "\", \"line\": " << v.line << ", \"rule\": \""
        << JsonEscape(v.rule) << "\", \"message\": \""
        << JsonEscape(v.message) << "\"}";
  }
  if (!violations.empty()) out << "\n  ";
  out << "]\n}\n";
  return violations.size();
}

}  // namespace copyattack::analyze

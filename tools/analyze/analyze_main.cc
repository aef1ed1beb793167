// copyattack-analyze: semantic static analysis for the copyattack tree.
//
//   copyattack-analyze --root=<repo> [--layers=<toml>] [--pass=a,b,...]
//                      [--format=text|json|sarif] [--baseline=<json>]
//                      [--exclude=<substr>]... [--list-rules]
//                      [target dirs...]
//
// Passes: include (module layering + cycles + IWYU-lite), thread
// (CA_GUARDED_BY / CA_REQUIRES / CA_ATOMIC_ONLY discipline), determinism
// (seed and RNG discipline), checkpoint (CA_CHECKPOINTED save/load
// coverage), lockorder (CA_ACQUIRED_BEFORE acquisition graph), oracle
// (metered-oracle access via the call graph), hotpath (CA_HOT_PATH purity),
// rng (DeriveStreamSeed provenance in stream-scoped campaign code), lint
// (line rules over src/: rand, raw new, stdio, header guards, float
// compares, raw clocks in core/rec). The call graph is built once, on
// demand, when any graph-based pass runs; its resolution stats land in the
// JSON report. Default targets: src tools bench tests examples (whichever
// exist under the root). With --baseline, grandfathered findings do not
// fail the run but stale baseline entries do. Exit codes: 0 clean,
// 1 violations, 2 usage/configuration error.

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/callgraph.h"
#include "analyze/layers.h"
#include "analyze/passes.h"
#include "analyze/report.h"
#include "analyze/structure.h"

namespace {

using namespace copyattack::analyze;  // tool entry point, not library code

/// The one registry of valid pass names: drives --pass validation (and its
/// error message) and PassEnabled, so the two can never drift apart.
constexpr const char* kPassNames[] = {
    "include", "thread", "determinism", "checkpoint",
    "lockorder", "oracle", "hotpath", "rng", "lint",
};

bool IsKnownPass(const std::string& pass) {
  for (const char* name : kPassNames) {
    if (pass == name) return true;
  }
  return false;
}

std::string KnownPassList() {
  std::string out;
  for (const char* name : kPassNames) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

struct Options {
  std::string root = ".";
  std::string layers_path;  // default: <root>/tools/analyze/layers.toml
  std::string format = "text";
  std::string baseline_path;  // empty = no baseline gating
  std::vector<std::string> passes;  // empty = all
  std::vector<std::string> excludes = {"tools/analyze/fixtures/"};
  std::vector<std::string> targets;
  bool list_rules = false;
};

bool TakeFlag(const std::string& arg, const std::string& name,
              std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

bool ParseArgs(int argc, char** argv, Options* options, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (TakeFlag(arg, "root", &options->root)) continue;
    if (TakeFlag(arg, "layers", &options->layers_path)) continue;
    if (TakeFlag(arg, "format", &options->format)) continue;
    if (TakeFlag(arg, "baseline", &options->baseline_path)) continue;
    if (TakeFlag(arg, "pass", &value)) {
      options->passes = SplitCsv(value);
      continue;
    }
    if (TakeFlag(arg, "exclude", &value)) {
      options->excludes.push_back(value);
      continue;
    }
    if (arg == "--list-rules") {
      options->list_rules = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      *error = "unknown flag: " + arg;
      return false;
    }
    options->targets.push_back(arg);
  }
  if (options->format != "text" && options->format != "json" &&
      options->format != "sarif") {
    *error = "--format must be text, json, or sarif";
    return false;
  }
  for (const std::string& pass : options->passes) {
    if (!IsKnownPass(pass)) {
      *error = "unknown pass: " + pass + " (expected " + KnownPassList() +
               ")";
      return false;
    }
  }
  return true;
}

bool PassEnabled(const Options& options, const std::string& pass) {
  if (options.passes.empty()) return true;
  for (const std::string& enabled : options.passes) {
    if (enabled == pass) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::cerr << "copyattack-analyze: " << error << "\n";
    return 2;
  }

  if (options.list_rules) {
    for (const RuleInfo& rule : RuleCatalogue()) {
      std::cout << rule.id << " (" << rule.pass << "): " << rule.summary
                << "\n";
    }
    return 0;
  }

  if (options.targets.empty()) {
    for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
      std::error_code ec;
      if (std::filesystem::is_directory(
              std::filesystem::path(options.root) / dir, ec)) {
        options.targets.push_back(dir);
      }
    }
  }
  if (options.layers_path.empty()) {
    options.layers_path = options.root + "/tools/analyze/layers.toml";
    std::error_code ec;
    if (!std::filesystem::is_regular_file(options.layers_path, ec)) {
      // Fixture trees keep their manifest at the root.
      const std::string at_root = options.root + "/layers.toml";
      if (std::filesystem::is_regular_file(at_root, ec)) {
        options.layers_path = at_root;
      }
    }
  }

  LayerContract contract;
  if (!LoadLayerContract(options.layers_path, &contract, &error)) {
    std::cerr << "copyattack-analyze: " << error << "\n";
    return 2;
  }

  ScanOptions scan;
  scan.root = options.root;
  scan.targets = options.targets;
  scan.excludes = options.excludes;
  SourceTree tree;
  std::vector<Violation> violations;
  if (!ScanTree(scan, &tree, &violations, &error)) {
    std::cerr << "copyattack-analyze: " << error << "\n";
    return 2;
  }

  std::vector<FileStructure> structures;
  structures.reserve(tree.files.size());
  for (const ScannedFile& file : tree.files) {
    structures.push_back(ScanStructure(file.lexed));
  }

  std::vector<PassTiming> timings;
  const auto timed = [&](const char* pass, auto&& run) {
    if (!PassEnabled(options, pass)) return;
    const auto start = std::chrono::steady_clock::now();
    run();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    timings.push_back({pass, elapsed.count()});
  };
  timed("include", [&] {
    RunIncludeGraphPass(tree, contract, structures, &violations);
  });
  timed("thread",
        [&] { RunThreadSafetyPass(tree, structures, &violations); });
  timed("determinism",
        [&] { RunDeterminismPass(tree, structures, &violations); });
  timed("checkpoint",
        [&] { RunCheckpointPass(tree, structures, &violations); });
  timed("lockorder",
        [&] { RunLockOrderPass(tree, structures, &violations); });
  timed("lint", [&] { RunLintPass(tree, &violations); });

  // Graph-based passes (ISSUE 9). The call graph is built once, timed as
  // its own entry, and only when at least one of them is enabled.
  CallGraph graph;
  bool graph_built = false;
  const bool graph_wanted = PassEnabled(options, "oracle") ||
                            PassEnabled(options, "hotpath") ||
                            PassEnabled(options, "rng");
  if (graph_wanted) {
    const auto start = std::chrono::steady_clock::now();
    graph = BuildCallGraph(tree, structures);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    timings.push_back({"callgraph", elapsed.count()});
    graph_built = true;
  }
  timed("oracle",
        [&] { RunOracleAccessPass(tree, contract, graph, &violations); });
  timed("hotpath",
        [&] { RunHotPathPass(tree, graph, structures, &violations); });
  timed("rng", [&] {
    RunRngProvenancePass(tree, contract, graph, structures, &violations);
  });

  // With a baseline, grandfathered findings still appear in the report but
  // only fresh findings (and stale entries) decide the exit code.
  bool baseline_failed = false;
  std::size_t grandfathered = 0;
  if (!options.baseline_path.empty()) {
    Baseline baseline;
    if (!LoadBaseline(options.baseline_path, &baseline, &error)) {
      std::cerr << "copyattack-analyze: " << error << "\n";
      return 2;
    }
    BaselineDiff diff = DiffBaseline(violations, std::move(baseline));
    grandfathered = diff.grandfathered;
    baseline_failed = !diff.fresh.empty() || !diff.stale.empty();
    for (const std::string& key : diff.stale) {
      std::cerr << "copyattack-analyze: stale baseline entry (fixed? delete "
                   "it): "
                << key << "\n";
    }
  }

  std::size_t count = 0;
  if (options.format == "json") {
    count = ReportJson(violations, timings, tree.files.size(),
                       graph_built ? &graph.stats : nullptr, std::cout);
  } else if (options.format == "sarif") {
    count = ReportSarif(violations, std::cout);
  } else {
    count = ReportText(violations, tree.files.size(), std::cout);
  }
  if (!options.baseline_path.empty()) {
    std::cerr << "copyattack-analyze: baseline "
              << (baseline_failed ? "FAIL" : "ok") << " (" << grandfathered
              << " grandfathered)\n";
    return baseline_failed ? 1 : 0;
  }
  return count == 0 ? 0 : 1;
}

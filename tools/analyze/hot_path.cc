#include <set>
#include <string>
#include <vector>

#include "analyze/passes.h"

/// Hot-path purity (ISSUE 9): the machine-checked form of the PR-1
/// performance contract. `CA_HOT_PATH` definitions are roots; every src/
/// function the call graph reaches from a root must stay free of explicit
/// allocation, blocking lock acquisition, `throw`, and stream/file IO.
/// `CA_COLD_OK(reason)` functions are reached but neither scanned nor
/// expanded — the annotated escape hatch for config-gated slow paths.
///
/// Deliberate scope limits (documented in DESIGN.md §15): amortized
/// container growth (push_back/reserve — the PR-1 AppendRow design) is
/// allowed; only explicit `new`/make_unique/make_shared/malloc tokens are
/// flagged. String-stream formatting is allowed (checkpoint blobs);
/// file/console streams are not. ALL_CAPS macro interiors (CA_CHECK,
/// OBS_SPAN) are invisible to the token-level graph by design — the obs
/// macros' cost is measured end to end by perfbench's
/// obs.trace_overhead_share.

namespace copyattack::analyze {

namespace {

bool InSrc(const std::string& rel_path) {
  return rel_path.rfind("src/", 0) == 0;
}

bool IsAllocToken(const std::string& text) {
  return text == "new" || text == "make_unique" || text == "make_shared" ||
         text == "malloc" || text == "calloc" || text == "realloc";
}

bool IsLockTypeToken(const std::string& text) {
  return text == "lock_guard" || text == "unique_lock" ||
         text == "scoped_lock" || text == "shared_lock";
}

bool IsIoToken(const std::string& text) {
  static const std::set<std::string> kIo = {
      "fopen",  "fclose",   "fprintf",  "printf",  "fputs",   "fwrite",
      "fread",  "ofstream", "ifstream", "fstream", "cout",    "cerr",
      "clog",   "getline",  "system",   "fflush",  "puts",    "fgets",
  };
  return kIo.count(text) != 0;
}

}  // namespace

void RunHotPathPass(const SourceTree& tree, const CallGraph& graph,
                    const std::vector<FileStructure>& structures,
                    std::vector<Violation>* violations) {
  std::vector<std::size_t> roots;
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    if (graph.nodes[n].hot_path) roots.push_back(n);
  }
  if (roots.empty()) return;

  // Reach everything from the roots; CA_COLD_OK and non-src definitions
  // form the frontier (reached, not expanded, not scanned).
  const auto barrier = [&](std::size_t n) {
    return graph.nodes[n].cold_ok || !InSrc(graph.FileOf(tree, n));
  };
  std::vector<std::size_t> parent;
  graph.Reach(roots, /*use_reverse=*/false, barrier, &parent);

  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    if (parent[n] == CallGraph::kNoNode) continue;  // unreached
    if (barrier(n) && parent[n] != n) continue;     // frontier
    const CallGraphNode& node = graph.nodes[n];
    const ScannedFile& file = tree.files[node.file_index];
    const FunctionDef& def =
        structures[node.file_index].functions[node.function_index];
    const std::vector<Token>& tokens = file.lexed.tokens;
    const std::string provenance =
        parent[n] == n ? " (a CA_HOT_PATH root)"
                       : " (reachable from hot path: " +
                             graph.PathFrom(parent, n) + ")";

    const std::size_t end =
        def.body_end < tokens.size() ? def.body_end : tokens.size();
    for (std::size_t i = def.body_begin + 1; i < end; ++i) {
      const Token& t = tokens[i];
      if (t.in_directive || t.kind != TokenKind::kIdentifier) continue;
      const std::string& prev = i > 0 ? tokens[i - 1].text : "";

      if (IsAllocToken(t.text)) {
        if (t.text == "new" && prev == "operator") continue;  // a name,
        // not an allocation (operator-new declarations inside classes).
        AddViolation(file, t.line, "hot-path-alloc",
                     "`" + t.text + "` in " + graph.Display(n) + provenance +
                         "; hot-path code must not allocate — hoist the "
                         "allocation, reuse a member, or mark the function "
                         "CA_COLD_OK(reason)",
                     violations);
        continue;
      }
      if (IsLockTypeToken(t.text) ||
          (t.text == "lock" && (prev == "." || prev == "->") &&
           i + 1 < end && tokens[i + 1].text == "(")) {
        AddViolation(file, t.line, "hot-path-lock",
                     "blocking lock (`" + t.text + "`) in " +
                         graph.Display(n) + provenance +
                         "; hot-path code must stay lock-free",
                     violations);
        continue;
      }
      if (t.text == "throw") {
        AddViolation(file, t.line, "hot-path-throw",
                     "`throw` in " + graph.Display(n) + provenance +
                         "; hot-path code must not unwind — return a "
                         "status or CA_CHECK",
                     violations);
        continue;
      }
      if (IsIoToken(t.text)) {
        AddViolation(file, t.line, "hot-path-io",
                     "IO (`" + t.text + "`) in " + graph.Display(n) +
                         provenance +
                         "; hot-path code must not touch streams or files",
                     violations);
        continue;
      }
    }
  }
}

}  // namespace copyattack::analyze

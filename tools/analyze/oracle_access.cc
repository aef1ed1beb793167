#include <set>
#include <string>
#include <vector>

#include "analyze/passes.h"

/// Metered-oracle enforcement (ISSUE 9): the paper's premise is a
/// black-box attacker under a query budget, which only holds if every
/// oracle operation flows through the metered decorator stack
/// (BlackBoxRecommender <- FaultInjector <- ResilientBlackBox). A
/// strategy that calls QueryTopK on the concrete recommender directly
/// would read the target without spending budget — its campaign numbers
/// would be fiction. The [oracle] section of
/// layers.toml names the stack's classes, its metered entry points, the
/// interface seam methods, and the sanctioned callers; everything else in
/// src/ that reaches the oracle is a finding.

namespace copyattack::analyze {

namespace {

bool InSrc(const std::string& rel_path) {
  return rel_path.rfind("src/", 0) == 0;
}

bool Allowlisted(const OracleContract& oracle, const std::string& rel_path) {
  const std::string module = ModuleOf(rel_path);
  for (const std::string& allowed : oracle.allow_modules) {
    if (module == allowed) return true;
  }
  for (const std::string& allowed : oracle.allow_files) {
    if (rel_path == allowed) return true;
  }
  return false;
}

/// True when the call site plausibly targets the oracle stack: an entry
/// point by name, or a seam method whose receiver/qualifier/resolved
/// targets land on an [oracle] class.
bool TargetsOracle(const OracleContract& oracle, const CallGraph& graph,
                   const CallSite& site) {
  if (oracle.IsEntryPoint(site.name)) return true;
  if (!oracle.IsSeamMethod(site.name)) return false;
  if (!site.qualifier.empty() && oracle.IsOracleClass(site.qualifier)) {
    return true;
  }
  for (const std::size_t target : site.targets) {
    if (oracle.IsOracleClass(graph.nodes[target].class_name)) return true;
  }
  return false;
}

}  // namespace

void RunOracleAccessPass(const SourceTree& tree,
                         const LayerContract& contract,
                         const CallGraph& graph,
                         std::vector<Violation>* violations) {
  const OracleContract& oracle = contract.oracle;
  if (!oracle.configured) return;

  // 1. Direct offenders: non-allowlisted src/ functions (outside the stack
  // itself) with a call site that lands on the oracle.
  std::vector<std::size_t> offenders;
  std::set<std::size_t> offender_set;
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    const CallGraphNode& node = graph.nodes[n];
    const std::string& rel_path = graph.FileOf(tree, n);
    if (!InSrc(rel_path)) continue;  // tools/tests/bench probe at will
    if (oracle.IsOracleClass(node.class_name)) continue;  // the stack
    if (Allowlisted(oracle, rel_path)) continue;
    for (const CallSite& site : node.calls) {
      if (!TargetsOracle(oracle, graph, site)) continue;
      AddViolation(tree.files[node.file_index], site.line,
                   "oracle-direct-call",
                   graph.Display(n) + " calls oracle operation `" +
                       site.name +
                       "` directly, bypassing the metered decorator stack; "
                       "route it through the sanctioned gateway (see "
                       "[oracle] in " +
                       contract.source_path + ")",
                   violations);
      if (offender_set.insert(n).second) offenders.push_back(n);
    }
  }
  if (offenders.empty()) return;

  // 2. Transitive callers: walk the reverse graph from the offenders. The
  // walk does not pass through allowlisted/oracle-stack functions (calling
  // a sanctioned gateway is the *correct* shape, and must not taint the
  // gateway's own callers).
  const auto barrier = [&](std::size_t n) {
    const std::string& rel_path = graph.FileOf(tree, n);
    return !InSrc(rel_path) ||
           oracle.IsOracleClass(graph.nodes[n].class_name) ||
           Allowlisted(oracle, rel_path);
  };
  std::vector<std::size_t> parent;
  graph.Reach(offenders, /*use_reverse=*/true, barrier, &parent);
  for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
    if (parent[n] == CallGraph::kNoNode || parent[n] == n) continue;
    if (offender_set.count(n) != 0) continue;  // already reported directly
    if (barrier(n)) continue;
    AddViolation(tree.files[graph.nodes[n].file_index], graph.nodes[n].line,
                 "oracle-unmetered-path",
                 graph.Display(n) +
                     " reaches an unmetered oracle call (call chain: " +
                     graph.PathFrom(parent, n) + ")",
                 violations);
  }
}

}  // namespace copyattack::analyze

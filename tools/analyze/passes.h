#ifndef COPYATTACK_TOOLS_ANALYZE_PASSES_H_
#define COPYATTACK_TOOLS_ANALYZE_PASSES_H_

#include <vector>

#include "analyze/analysis.h"
#include "analyze/callgraph.h"
#include "analyze/layers.h"
#include "analyze/structure.h"

/// The copyattack-analyze passes. Each receives the whole scanned tree
/// plus the per-file structures (computed once, index-aligned with
/// `tree.files`) and appends suppression-filtered violations. The three
/// graph-based passes additionally take the CallGraph built once over the
/// same structures.

namespace copyattack::analyze {

/// Include-graph pass: resolves project includes, enforces the layers.toml
/// module contract (undeclared edges, unknown modules, impure pure-headers),
/// rejects include cycles, and runs the IWYU-lite unused-include check over
/// files under src/.
/// Rules: layer-undeclared-edge, layer-unknown-module, layer-cycle,
/// layer-impure-header, iwyu-unused-include.
void RunIncludeGraphPass(const SourceTree& tree,
                         const LayerContract& contract,
                         const std::vector<FileStructure>& structures,
                         std::vector<Violation>* violations);

/// Thread-safety pass: checks CA_GUARDED_BY fields are only touched by
/// functions that lock (or CA_REQUIRES) the named mutex, and that
/// CA_ATOMIC_ONLY fields are declared std::atomic. Constructors are exempt
/// (no concurrent access before the object is published).
/// Rules: ts-unlocked-field, ts-atomic-type.
void RunThreadSafetyPass(const SourceTree& tree,
                         const std::vector<FileStructure>& structures,
                         std::vector<Violation>* violations);

/// Determinism pass: flags raw entropy (std::random_device, wall-clock
/// seeding), direct std <random> engines/distributions outside util/rng
/// (their outputs differ across standard libraries), util::Rng constructed
/// without an explicit seed, and Rng parameters taken by value.
/// Rules: det-raw-entropy, det-std-engine, det-unseeded-rng,
/// det-rng-by-value.
void RunDeterminismPass(const SourceTree& tree,
                        const std::vector<FileStructure>& structures,
                        std::vector<Violation>* violations);

/// Checkpoint-coverage pass: every non-static data member of a
/// CA_CHECKPOINTED type must be referenced by both its save and load
/// serializer bodies, in the same order, unless waived with
/// CA_NOT_CHECKPOINTED(reason). Protects the bit-identical kill-and-resume
/// guarantee from silently unserialized new fields.
/// Rules: ckpt-missing-member, ckpt-order-mismatch, ckpt-no-serializer.
void RunCheckpointPass(const SourceTree& tree,
                       const std::vector<FileStructure>& structures,
                       std::vector<Violation>* violations);

/// Lock-order pass: builds a repo-wide mutex acquisition graph from
/// CA_ACQUIRED_BEFORE annotations plus RAII-holder nesting observed inside
/// function bodies, then rejects cycles, observed nestings that contradict
/// a declared edge, and blocking acquisitions of annotated mutexes inside
/// ParallelFor bodies.
/// Rules: lock-order-cycle, lock-order-contradiction, lock-in-parallel-for.
void RunLockOrderPass(const SourceTree& tree,
                      const std::vector<FileStructure>& structures,
                      std::vector<Violation>* violations);

/// Oracle-access pass: every path from src/ code to the metered black-box
/// oracle must traverse the decorator stack declared in layers.toml's
/// [oracle] section. Direct calls to an entry point (QueryTopK, InjectUser)
/// or to a seam method (Query/Inject) on an oracle-typed receiver, from
/// outside the allowlisted modules/files, are findings — as are their
/// transitive src/ callers. Inert when [oracle] is absent.
/// Rules: oracle-direct-call, oracle-unmetered-path.
void RunOracleAccessPass(const SourceTree& tree,
                         const LayerContract& contract,
                         const CallGraph& graph,
                         std::vector<Violation>* violations);

/// Hot-path purity pass: walks the call graph from every CA_HOT_PATH
/// definition; each src/ function reached (CA_COLD_OK ones excepted) may
/// not allocate explicitly, acquire a blocking lock, throw, or perform
/// stream/file IO. Machine-checks the PR-1 episode-loop latency contract.
/// Rules: hot-path-alloc, hot-path-lock, hot-path-throw, hot-path-io.
void RunHotPathPass(const SourceTree& tree, const CallGraph& graph,
                    const std::vector<FileStructure>& structures,
                    std::vector<Violation>* violations);

/// RNG-provenance pass: inside the [rng] stream_scoped path prefixes
/// (sharded/checkpointed campaign code), every util::Rng construction must
/// derive its seed via util::DeriveStreamSeed (directly, or through a
/// function whose body calls it) or take a plain base seed unchanged;
/// arithmetic seed mixing and Rng::Fork are findings because they break
/// the bit-identical shard/resume guarantees. Inert when stream_scoped is
/// empty.
/// Rules: rng-adhoc-seed, rng-fork-in-stream.
void RunRngProvenancePass(const SourceTree& tree,
                          const LayerContract& contract,
                          const CallGraph& graph,
                          const std::vector<FileStructure>& structures,
                          std::vector<Violation>* violations);

/// Lint pass: line rules over each src/ file's blanked code lines — the C
/// rand family, raw new/delete, stdio output outside util/logging,
/// util/check and util/string_utils, headers without `#pragma once` or a
/// COPYATTACK_*_H_ guard, exact compares against float literals, and
/// std::chrono clock reads in core/ or rec/ (timing goes through src/obs).
/// Rules: std-rand, raw-new, printf-family, header-guard, float-eq,
/// raw-clock.
void RunLintPass(const SourceTree& tree, std::vector<Violation>* violations);

}  // namespace copyattack::analyze

#endif  // COPYATTACK_TOOLS_ANALYZE_PASSES_H_

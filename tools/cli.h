#ifndef COPYATTACK_TOOLS_CLI_H_
#define COPYATTACK_TOOLS_CLI_H_

#include <ostream>

namespace copyattack::tools {

/// Entry point of the `copyattack` command-line tool, separated from
/// main() so the commands are unit-testable. Commands:
///
///   copyattack generate --config small|large|tiny --out PREFIX [--seed N]
///       Generates a synthetic cross-domain world and writes it to
///       PREFIX.{meta,target,source}.csv.
///
///   copyattack stats --data PREFIX
///       Prints Table-1 statistics of a saved dataset pair.
///
///   copyattack train --data PREFIX [--max-epochs N] [--patience N]
///       Trains the PinSage-style target model with early stopping and
///       prints validation/test quality.
///
///   copyattack attack --data PREFIX --method NAME [--targets N]
///       [--budget N] [--episodes N] [--depth N] [--seed N] [--jobs N]
///       [--faults off|light|aggressive] [--fault_seed N]
///       [--checkpoint_dir DIR] [--checkpoint_every N] [--resume 1]
///       Runs one attacking method over sampled cold target items and
///       prints the WithoutAttack reference row plus the method's row.
///       Methods: RandomAttack, TargetAttack40/70/100, PolicyNetwork
///       (CopyAttack over a one-level tree; ignores --depth), CopyAttack,
///       CopyAttack-Masking, CopyAttack-Length, SurrogateTransfer (alias
///       surrogate_transfer), Influence (alias influence).
///       --faults injects deterministic oracle faults (and enables the
///       retry/circuit-breaker client); --checkpoint_dir turns on
///       crash-safe checkpointing (one directory per runner shard,
///       `DIR/shard_<s>_of_<jobs>`), --resume continues from it. --jobs
///       sets the worker threads; the rows do not depend on it.
///
///   copyattack attack-server --data PREFIX [--queue FILE|-] [--jobs N]
///       [--depth N] [--checkpoint_root DIR] [--resume 1]
///       [--checkpoint_every N]
///       Long-running promotion service: reads `id,method,targets,
///       budget,episodes,seed` job rows from the queue CSV (stdin with
///       `--queue -`), runs each as a sharded campaign over the shared
///       thread pool, and prints one Table-2 row per job. With
///       --checkpoint_root each job persists crash-safe checkpoints
///       under `<root>/job_<id>`; --resume continues interrupted jobs.
///
///   copyattack recipe NAME [--config tiny|small]
///       Regenerates one paper table/figure or ablation into
///       ./bench_results/NAME.csv (bench/recipes.cc holds the table),
///       echoing its rows. Without a known NAME, lists every recipe and
///       exits 2. Only arms_race_frontier reads --config.
///
///   copyattack help
///       Prints usage.
///
/// Returns a process exit code (0 on success).
int RunCli(int argc, const char* const* argv, std::ostream& out);

}  // namespace copyattack::tools

#endif  // COPYATTACK_TOOLS_CLI_H_

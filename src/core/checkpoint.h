#ifndef COPYATTACK_CORE_CHECKPOINT_H_
#define COPYATTACK_CORE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/environment.h"
#include "data/io.h"
#include "rec/evaluator.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace copyattack::core {

/// Per-target-item outcome of a campaign, exactly what `RunCampaign`
/// aggregates into a Table-2 row. Serializable so completed targets
/// survive a crash.
struct TargetOutcomeState CA_CHECKPOINTED(WriteOutcome, ReadOutcome) {
  rec::MetricsByK metrics;
  double items_per_profile = 0.0;
  double profiles_injected = 0.0;
  double query_rounds = 0.0;
  double final_reward = 0.0;
};

/// Identity of a campaign. A checkpoint written by one campaign must
/// never be resumed into a differently configured one — the mismatch
/// would silently produce garbage, so the loader rejects it.
struct CampaignFingerprint CA_CHECKPOINTED(SerializePayload,
                                           DeserializePayload) {
  std::string method;
  std::uint64_t seed = 0;
  std::size_t episodes = 0;
  std::size_t num_targets = 0;
  std::size_t env_budget = 0;

  bool Matches(const CampaignFingerprint& other) const {
    return method == other.method && seed == other.seed &&
           episodes == other.episodes && num_targets == other.num_targets &&
           env_budget == other.env_budget;
  }
};

/// Mid-target progress: which target, how many episodes are done, and the
/// exact RL state needed to play episode `episodes_done` next — the
/// episode RNG stream, the environment's cross-episode counters/streams,
/// and the strategy's opaque state blob (policy parameters + baseline,
/// see AttackStrategy::SaveState).
struct InProgressTarget CA_CHECKPOINTED(SerializePayload,
                                        DeserializePayload) {
  bool active = false;
  std::size_t target_index = 0;
  std::size_t episodes_done = 0;
  util::RngState episode_rng;
  AttackEnvironment::ResumeState env;
  std::string strategy_blob;
};

/// Everything `RunCampaign` needs to continue after a crash.
struct CampaignCheckpoint CA_CHECKPOINTED(SerializePayload,
                                          DeserializePayload) {
  CampaignFingerprint fingerprint;
  /// Outcomes of targets `[0, completed.size())`, in target order.
  std::vector<TargetOutcomeState> completed;
  InProgressTarget in_progress;
};

/// Checkpoint file layout (DESIGN.md §11): little-endian
///   magic u32 | version u32 | payload_size u64 | crc32(payload) u32 |
///   payload bytes
/// The trailer-less fixed header lets the loader detect truncation before
/// reading the payload; the CRC detects torn or bit-rotten payloads.
/// Version 2 made CopyAttack's strategy blob sparse (only the tree nodes
/// built so far); version 3 gave PolicyNetwork that same blob, as
/// CopyAttack over a one-level tree. Older files are rejected as
/// unsupported.
inline constexpr std::uint32_t kCheckpointMagic = 0xCA9C4A17U;
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Paths inside a checkpoint directory: the current checkpoint, the
/// previous good one (rotation happens on every successful save), and
/// the in-flight temp file a crash mid-save can orphan.
std::string CheckpointPath(const std::string& dir);
std::string CheckpointFallbackPath(const std::string& dir);
std::string CheckpointTempPath(const std::string& dir);

/// Atomically persists `checkpoint` into `dir` (created if needed):
/// serialize to `campaign.ckpt.tmp`, rotate the existing
/// `campaign.ckpt` to `campaign.ckpt.prev`, then rename the temp file
/// into place — a crash at any point (including between the two
/// renames; every phase carries a `CA_CRASH_POINT`, see DESIGN.md §16)
/// leaves a loadable file behind. Returns false on I/O failure.
bool SaveCampaignCheckpoint(const CampaignCheckpoint& checkpoint,
                            const std::string& dir);

/// Where a loaded checkpoint came from.
enum class CheckpointSource {
  kNone,        ///< nothing loadable (or fingerprint mismatch everywhere)
  kPrimary,     ///< campaign.ckpt
  kFallback,    ///< campaign.ckpt was corrupt; campaign.ckpt.prev loaded
  /// campaign.ckpt was missing/corrupt but a fully-written, CRC-valid
  /// `campaign.ckpt.tmp` survived — the crash happened after the temp
  /// write but before the rename landed, so the orphan is the NEWEST
  /// state on disk and is preferred over `.prev`.
  kTempOrphan,
};

/// Human-readable source name ("none", "primary", "fallback",
/// "temp_orphan").
const char* ToString(CheckpointSource source);

/// Loads the freshest valid checkpoint from `dir`: tries the primary
/// file, then a complete `.tmp` orphan, then the previous good file —
/// strictly newest-first, so double faults (e.g. a torn primary AND a
/// torn temp) still recover the best surviving state. Recovery is
/// read-only: the next successful save rewrites and rotates as usual.
/// `expected` guards against resuming a different campaign. On kNone
/// with `error` non-null, `error->message` explains why every candidate
/// was rejected (distinguishing "nothing there yet" from corruption).
CheckpointSource LoadCampaignCheckpoint(const std::string& dir,
                                        const CampaignFingerprint& expected,
                                        CampaignCheckpoint* out,
                                        data::IoError* error = nullptr);

}  // namespace copyattack::core

#endif  // COPYATTACK_CORE_CHECKPOINT_H_

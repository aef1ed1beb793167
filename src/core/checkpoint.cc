#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/crash_point.h"
#include "util/binary_io.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace copyattack::core {
namespace {

using util::ReadPod;
using util::ReadString;
using util::WritePod;
using util::WriteString;

void WriteMetrics(std::ostream& out, const rec::MetricsByK& metrics) {
  WritePod<std::uint64_t>(out, metrics.size());
  for (const auto& [k, m] : metrics) {
    WritePod<std::uint64_t>(out, k);
    WritePod(out, m.hr);
    WritePod(out, m.ndcg);
    WritePod<std::uint64_t>(out, m.count);
  }
}

bool ReadMetrics(std::istream& in, rec::MetricsByK* metrics) {
  std::uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  metrics->clear();
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t k = 0, pairs = 0;
    rec::TopKMetrics m;
    if (!ReadPod(in, &k) || !ReadPod(in, &m.hr) || !ReadPod(in, &m.ndcg) ||
        !ReadPod(in, &pairs)) {
      return false;
    }
    m.count = static_cast<std::size_t>(pairs);
    (*metrics)[static_cast<std::size_t>(k)] = m;
  }
  return true;
}

void WriteOutcome(std::ostream& out, const TargetOutcomeState& outcome) {
  WriteMetrics(out, outcome.metrics);
  WritePod(out, outcome.items_per_profile);
  WritePod(out, outcome.profiles_injected);
  WritePod(out, outcome.query_rounds);
  WritePod(out, outcome.final_reward);
}

bool ReadOutcome(std::istream& in, TargetOutcomeState* outcome) {
  return ReadMetrics(in, &outcome->metrics) &&
         ReadPod(in, &outcome->items_per_profile) &&
         ReadPod(in, &outcome->profiles_injected) &&
         ReadPod(in, &outcome->query_rounds) &&
         ReadPod(in, &outcome->final_reward);
}

std::string SerializePayload(const CampaignCheckpoint& checkpoint) {
  std::ostringstream out(std::ios::binary);
  WriteString(out, checkpoint.fingerprint.method);
  WritePod(out, checkpoint.fingerprint.seed);
  WritePod<std::uint64_t>(out, checkpoint.fingerprint.episodes);
  WritePod<std::uint64_t>(out, checkpoint.fingerprint.num_targets);
  WritePod<std::uint64_t>(out, checkpoint.fingerprint.env_budget);

  WritePod<std::uint64_t>(out, checkpoint.completed.size());
  for (const TargetOutcomeState& outcome : checkpoint.completed) {
    WriteOutcome(out, outcome);
  }

  const InProgressTarget& progress = checkpoint.in_progress;
  WritePod<std::uint8_t>(out, progress.active ? 1 : 0);
  if (progress.active) {
    WritePod<std::uint64_t>(out, progress.target_index);
    WritePod<std::uint64_t>(out, progress.episodes_done);
    util::WriteRngState(out, progress.episode_rng);
    WritePod<std::uint64_t>(out, progress.env.lifetime_queries);
    WritePod<std::uint64_t>(out, progress.env.episodes_begun);
    WritePod<std::uint64_t>(out, progress.env.proxy_reward_fallbacks);
    util::WriteRngState(out, progress.env.refit_rng);
    WriteString(out, progress.strategy_blob);
  }
  return out.str();
}

bool DeserializePayload(const std::string& payload,
                        CampaignCheckpoint* checkpoint) {
  std::istringstream in(payload, std::ios::binary);
  if (!ReadString(in, &checkpoint->fingerprint.method)) return false;
  std::uint64_t seed = 0, episodes = 0, num_targets = 0, env_budget = 0;
  if (!ReadPod(in, &seed) || !ReadPod(in, &episodes) ||
      !ReadPod(in, &num_targets) || !ReadPod(in, &env_budget)) {
    return false;
  }
  checkpoint->fingerprint.seed = seed;
  checkpoint->fingerprint.episodes = static_cast<std::size_t>(episodes);
  checkpoint->fingerprint.num_targets =
      static_cast<std::size_t>(num_targets);
  checkpoint->fingerprint.env_budget = static_cast<std::size_t>(env_budget);

  std::uint64_t completed = 0;
  if (!ReadPod(in, &completed)) return false;
  if (completed > checkpoint->fingerprint.num_targets) return false;
  checkpoint->completed.assign(static_cast<std::size_t>(completed),
                               TargetOutcomeState{});
  for (TargetOutcomeState& outcome : checkpoint->completed) {
    if (!ReadOutcome(in, &outcome)) return false;
  }

  std::uint8_t active = 0;
  if (!ReadPod(in, &active)) return false;
  InProgressTarget& progress = checkpoint->in_progress;
  progress = InProgressTarget{};
  progress.active = active != 0;
  if (progress.active) {
    std::uint64_t target_index = 0, episodes_done = 0;
    std::uint64_t lifetime_queries = 0, episodes_begun = 0;
    std::uint64_t proxy_reward_fallbacks = 0;
    if (!ReadPod(in, &target_index) || !ReadPod(in, &episodes_done) ||
        !util::ReadRngState(in, &progress.episode_rng) ||
        !ReadPod(in, &lifetime_queries) || !ReadPod(in, &episodes_begun) ||
        !ReadPod(in, &proxy_reward_fallbacks) ||
        !util::ReadRngState(in, &progress.env.refit_rng) ||
        !ReadString(in, &progress.strategy_blob)) {
      return false;
    }
    progress.target_index = static_cast<std::size_t>(target_index);
    progress.episodes_done = static_cast<std::size_t>(episodes_done);
    progress.env.lifetime_queries =
        static_cast<std::size_t>(lifetime_queries);
    progress.env.episodes_begun = static_cast<std::size_t>(episodes_begun);
    progress.env.proxy_reward_fallbacks =
        static_cast<std::size_t>(proxy_reward_fallbacks);
  }
  return true;
}

/// Appends one candidate's rejection reason to the load diagnostic.
void NoteReject(std::string* why, const std::string& path,
                const char* reason) {
  if (why == nullptr) return;
  if (!why->empty()) *why += "; ";
  *why += path + ": " + reason;
}

/// Reads and fully validates one checkpoint file. Returns false on any
/// defect: unreadable, truncated header, wrong magic/version, payload
/// shorter than declared, CRC mismatch, undecodable payload, or a
/// fingerprint that does not match `expected`. On rejection, appends the
/// reason to `why` (when non-null) so a total load failure can say what
/// was wrong with every candidate.
bool LoadOneFile(const std::string& path,
                 const CampaignFingerprint& expected,
                 CampaignCheckpoint* out, std::string* why) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    NoteReject(why, path, "unreadable or missing");
    return false;
  }
  std::uint32_t magic = 0, version = 0, crc = 0;
  std::uint64_t payload_size = 0;
  if (!ReadPod(in, &magic) || magic != kCheckpointMagic) {
    NoteReject(why, path, "bad magic (truncated or not a checkpoint)");
    return false;
  }
  if (!ReadPod(in, &version) || version != kCheckpointVersion) {
    NoteReject(why, path, "unsupported version");
    return false;
  }
  if (!ReadPod(in, &payload_size) || !ReadPod(in, &crc)) {
    NoteReject(why, path, "truncated header");
    return false;
  }
  if (payload_size > (1ULL << 36)) {
    NoteReject(why, path, "implausible payload size");
    return false;
  }
  // Bound the allocation by what the file actually holds: a bit-flipped
  // size field must be rejected as a truncation, not turned into a
  // multi-gigabyte allocation before the read even starts.
  const std::streampos data_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t available =
      static_cast<std::uint64_t>(in.tellg() - data_begin);
  in.seekg(data_begin);
  if (!in || payload_size > available) {
    NoteReject(why, path, "truncated payload");
    return false;
  }
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  if (!util::ReadBytes(in, payload.data(), payload.size())) {
    // Torn write: payload shorter than declared.
    NoteReject(why, path, "truncated payload");
    return false;
  }
  if (util::Crc32(payload) != crc) {
    NoteReject(why, path, "CRC mismatch");
    return false;
  }
  CampaignCheckpoint decoded;
  if (!DeserializePayload(payload, &decoded)) {
    NoteReject(why, path, "undecodable payload");
    return false;
  }
  if (!decoded.fingerprint.Matches(expected)) {
    NoteReject(why, path, "fingerprint mismatch");
    return false;
  }
  *out = std::move(decoded);
  return true;
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "campaign.ckpt").string();
}

std::string CheckpointFallbackPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "campaign.ckpt.prev").string();
}

std::string CheckpointTempPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "campaign.ckpt.tmp").string();
}

bool SaveCampaignCheckpoint(const CampaignCheckpoint& checkpoint,
                            const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort

  const std::string payload = SerializePayload(checkpoint);
  const std::string path = CheckpointPath(dir);
  const std::string tmp_path = CheckpointTempPath(dir);
  // Crash phase 1: nothing written yet — both on-disk files are intact.
  CA_CRASH_POINT("checkpoint.pre_temp_write");
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    WritePod(out, kCheckpointMagic);
    WritePod(out, kCheckpointVersion);
    WritePod<std::uint64_t>(out, payload.size());
    WritePod(out, util::Crc32(payload));
    util::WriteBytes(out, payload.data(), payload.size());
    out.flush();
    if (!out) return false;
  }
  // Crash phase 2: the temp file is complete but the rotation has not
  // begun — the loader's `.tmp`-orphan ladder makes the new state
  // reachable even though the rename never happened.
  CA_CRASH_POINT("checkpoint.pre_rotate");
  // Rotate: the current checkpoint becomes the fallback, then the temp
  // file lands as the new current. Both renames are atomic within a
  // filesystem, so a crash leaves either (old, old-prev) or (new, old) —
  // never a half-written primary.
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, CheckpointFallbackPath(dir), ec);
    if (ec) return false;
  }
  // Crash phase 3: between the two renames the primary is missing; the
  // complete temp orphan (newest) and the rotated `.prev` both survive.
  CA_CRASH_POINT("checkpoint.pre_rename");
  std::filesystem::rename(tmp_path, path, ec);
  return !ec;
}

const char* ToString(CheckpointSource source) {
  switch (source) {
    case CheckpointSource::kNone:
      return "none";
    case CheckpointSource::kPrimary:
      return "primary";
    case CheckpointSource::kFallback:
      return "fallback";
    case CheckpointSource::kTempOrphan:
      return "temp_orphan";
  }
  return "unknown";
}

CheckpointSource LoadCampaignCheckpoint(const std::string& dir,
                                        const CampaignFingerprint& expected,
                                        CampaignCheckpoint* out,
                                        data::IoError* error) {
  std::string why;
  std::string* why_out = error != nullptr ? &why : nullptr;
  if (LoadOneFile(CheckpointPath(dir), expected, out, why_out)) {
    return CheckpointSource::kPrimary;
  }
  // A complete, CRC-valid temp file is NEWER than `.prev`: it only
  // exists when the crash hit after the payload was fully flushed but
  // before the rename landed, so prefer it over the previous rotation.
  if (LoadOneFile(CheckpointTempPath(dir), expected, out, why_out)) {
    CA_LOG(Warning) << "checkpoint: primary " << CheckpointPath(dir)
                    << " invalid or missing; recovered the complete "
                       "temp-file orphan";
    return CheckpointSource::kTempOrphan;
  }
  if (LoadOneFile(CheckpointFallbackPath(dir), expected, out, why_out)) {
    CA_LOG(Warning) << "checkpoint: primary " << CheckpointPath(dir)
                    << " invalid or missing; resumed from fallback";
    return CheckpointSource::kFallback;
  }
  if (error != nullptr) {
    error->file = CheckpointPath(dir);
    error->line = 0;
    error->message = "no loadable checkpoint: " + why;
  }
  return CheckpointSource::kNone;
}

}  // namespace copyattack::core

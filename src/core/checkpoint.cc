#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/crash_point.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace copyattack::core {
namespace {

// Primitive payload codec. Everything is explicit-width little-endian on
// the platforms this repo targets; floats/doubles are raw IEEE-754 bytes
// (bit-exact round trips are the whole point of the checkpoint).

void WriteU8(std::ostream& out, std::uint8_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteU32(std::ostream& out, std::uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteU64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteDouble(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteString(std::ostream& out, const std::string& value) {
  WriteU64(out, value.size());
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
}

bool ReadU8(std::istream& in, std::uint8_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

bool ReadU32(std::istream& in, std::uint32_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

bool ReadU64(std::istream& in, std::uint64_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

bool ReadDouble(std::istream& in, double* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

bool ReadString(std::istream& in, std::string* value) {
  std::uint64_t size = 0;
  if (!ReadU64(in, &size)) return false;
  // Bound string sizes: a corrupted length must not drive a giant
  // allocation before the CRC would have caught it (the CRC runs first,
  // but keep the decoder independently robust).
  if (size > (1ULL << 32)) return false;
  value->assign(static_cast<std::size_t>(size), '\0');
  in.read(value->data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

void WriteMetrics(std::ostream& out, const rec::MetricsByK& metrics) {
  WriteU64(out, metrics.size());
  for (const auto& [k, m] : metrics) {
    WriteU64(out, k);
    WriteDouble(out, m.hr);
    WriteDouble(out, m.ndcg);
    WriteU64(out, m.count);
  }
}

bool ReadMetrics(std::istream& in, rec::MetricsByK* metrics) {
  std::uint64_t size = 0;
  if (!ReadU64(in, &size)) return false;
  metrics->clear();
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t k = 0;
    rec::TopKMetrics m;
    if (!ReadU64(in, &k) || !ReadDouble(in, &m.hr) ||
        !ReadDouble(in, &m.ndcg)) {
      return false;
    }
    std::uint64_t count = 0;
    if (!ReadU64(in, &count)) return false;
    m.count = static_cast<std::size_t>(count);
    (*metrics)[static_cast<std::size_t>(k)] = m;
  }
  return true;
}

void WriteOutcome(std::ostream& out, const TargetOutcomeState& outcome) {
  WriteMetrics(out, outcome.metrics);
  WriteDouble(out, outcome.items_per_profile);
  WriteDouble(out, outcome.profiles_injected);
  WriteDouble(out, outcome.query_rounds);
  WriteDouble(out, outcome.final_reward);
}

bool ReadOutcome(std::istream& in, TargetOutcomeState* outcome) {
  return ReadMetrics(in, &outcome->metrics) &&
         ReadDouble(in, &outcome->items_per_profile) &&
         ReadDouble(in, &outcome->profiles_injected) &&
         ReadDouble(in, &outcome->query_rounds) &&
         ReadDouble(in, &outcome->final_reward);
}

std::string SerializePayload(const CampaignCheckpoint& checkpoint) {
  std::ostringstream out(std::ios::binary);
  WriteString(out, checkpoint.fingerprint.method);
  WriteU64(out, checkpoint.fingerprint.seed);
  WriteU64(out, checkpoint.fingerprint.episodes);
  WriteU64(out, checkpoint.fingerprint.num_targets);
  WriteU64(out, checkpoint.fingerprint.env_budget);

  WriteU64(out, checkpoint.completed.size());
  for (const TargetOutcomeState& outcome : checkpoint.completed) {
    WriteOutcome(out, outcome);
  }

  const InProgressTarget& progress = checkpoint.in_progress;
  WriteU8(out, progress.active ? 1 : 0);
  if (progress.active) {
    WriteU64(out, progress.target_index);
    WriteU64(out, progress.episodes_done);
    util::WriteRngState(out, progress.episode_rng);
    WriteU64(out, progress.env.lifetime_queries);
    WriteU64(out, progress.env.episodes_begun);
    WriteU64(out, progress.env.proxy_reward_fallbacks);
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
  if (!ReadU64(in, &seed) || !ReadU64(in, &episodes) ||
      !ReadU64(in, &num_targets) || !ReadU64(in, &env_budget)) {
    return false;
  }
  checkpoint->fingerprint.seed = seed;
  checkpoint->fingerprint.episodes = static_cast<std::size_t>(episodes);
  checkpoint->fingerprint.num_targets =
      static_cast<std::size_t>(num_targets);
  checkpoint->fingerprint.env_budget = static_cast<std::size_t>(env_budget);

  std::uint64_t completed = 0;
  if (!ReadU64(in, &completed)) return false;
  if (completed > checkpoint->fingerprint.num_targets) return false;
  checkpoint->completed.assign(static_cast<std::size_t>(completed),
                               TargetOutcomeState{});
  for (TargetOutcomeState& outcome : checkpoint->completed) {
    if (!ReadOutcome(in, &outcome)) return false;
  }

  std::uint8_t active = 0;
  if (!ReadU8(in, &active)) return false;
  InProgressTarget& progress = checkpoint->in_progress;
  progress = InProgressTarget{};
  progress.active = active != 0;
  if (progress.active) {
    std::uint64_t target_index = 0, episodes_done = 0;
    std::uint64_t lifetime_queries = 0, episodes_begun = 0;
    std::uint64_t proxy_reward_fallbacks = 0;
    if (!ReadU64(in, &target_index) || !ReadU64(in, &episodes_done) ||
        !util::ReadRngState(in, &progress.episode_rng) ||
        !ReadU64(in, &lifetime_queries) || !ReadU64(in, &episodes_begun) ||
        !ReadU64(in, &proxy_reward_fallbacks) ||
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
  if (!ReadU32(in, &magic) || magic != kCheckpointMagic) {
    NoteReject(why, path, "bad magic (truncated or not a checkpoint)");
    return false;
  }
  if (!ReadU32(in, &version) || version != kCheckpointVersion) {
    NoteReject(why, path, "unsupported version");
    return false;
  }
  if (!ReadU64(in, &payload_size) || !ReadU32(in, &crc)) {
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
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (!in) {
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
    WriteU32(out, kCheckpointMagic);
    WriteU32(out, kCheckpointVersion);
    WriteU64(out, payload.size());
    WriteU32(out, util::Crc32(payload));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    if (!out) return false;
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

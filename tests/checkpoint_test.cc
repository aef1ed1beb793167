// Tests of the crash-safe campaign checkpoint subsystem (ISSUE 5):
// serialization round trips, corruption detection + fallback rotation,
// fingerprint guarding, and the kill-and-resume equivalence criterion —
// a resumed campaign must reproduce the uninterrupted campaign's final
// metrics bit-exactly.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/copy_attack.h"
#include "core/runner.h"
#include "data/io.h"
#include "fault/crash_point.h"
#include "test_helpers.h"
#include "test_seed.h"
#include "util/rng.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

CampaignFingerprint TestFingerprint() {
  CampaignFingerprint fp;
  fp.method = "CopyAttack";
  fp.seed = 42;
  fp.episodes = 5;
  fp.num_targets = 3;
  fp.env_budget = 9;
  return fp;
}

CampaignCheckpoint TestCheckpoint() {
  CampaignCheckpoint state;
  state.fingerprint = TestFingerprint();
  TargetOutcomeState outcome;
  outcome.metrics[20] = {0.5, 0.25, 10};
  outcome.metrics[5] = {0.125, 0.0625, 10};
  outcome.items_per_profile = 6.5;
  outcome.profiles_injected = 9.0;
  outcome.query_rounds = 3.0;
  outcome.final_reward = 0.75;
  state.completed.push_back(outcome);
  state.in_progress.active = true;
  state.in_progress.target_index = 1;
  state.in_progress.episodes_done = 2;
  util::Rng rng(7);
  rng.UniformDouble();
  state.in_progress.episode_rng = rng.SaveState();
  state.in_progress.env.lifetime_queries = 17;
  state.in_progress.env.episodes_begun = 7;
  state.in_progress.env.proxy_reward_fallbacks = 1;
  state.in_progress.env.refit_rng = util::Rng(9).SaveState();
  state.in_progress.strategy_blob = std::string("\x01\x02\x00\x03", 4);
  return state;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  const CampaignCheckpoint saved = TestCheckpoint();
  ASSERT_TRUE(SaveCampaignCheckpoint(saved, dir));

  CampaignCheckpoint loaded;
  const CheckpointSource source =
      LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded);
  ASSERT_EQ(source, CheckpointSource::kPrimary);
  ASSERT_EQ(loaded.completed.size(), 1U);
  EXPECT_DOUBLE_EQ(loaded.completed[0].metrics.at(20).hr, 0.5);
  EXPECT_EQ(loaded.completed[0].metrics.at(5).count, 10U);
  EXPECT_DOUBLE_EQ(loaded.completed[0].final_reward, 0.75);
  EXPECT_TRUE(loaded.in_progress.active);
  EXPECT_EQ(loaded.in_progress.target_index, 1U);
  EXPECT_EQ(loaded.in_progress.episodes_done, 2U);
  EXPECT_EQ(loaded.in_progress.env.lifetime_queries, 17U);
  EXPECT_EQ(loaded.in_progress.strategy_blob,
            saved.in_progress.strategy_blob);
  // The RNG stream must continue from exactly where it stopped.
  util::Rng expected(7);
  expected.UniformDouble();
  util::Rng restored(1);
  restored.RestoreState(loaded.in_progress.episode_rng);
  EXPECT_EQ(restored.NextUint64(), expected.NextUint64());
}

TEST(CheckpointTest, FingerprintMismatchRejectsBothFiles) {
  const std::string dir = FreshDir("ckpt_fingerprint");
  ASSERT_TRUE(SaveCampaignCheckpoint(TestCheckpoint(), dir));
  CampaignFingerprint other = TestFingerprint();
  other.seed = 43;
  CampaignCheckpoint loaded;
  EXPECT_EQ(LoadCampaignCheckpoint(dir, other, &loaded),
            CheckpointSource::kNone);
}

TEST(CheckpointTest, MissingDirectoryLoadsNothing) {
  CampaignCheckpoint loaded;
  EXPECT_EQ(LoadCampaignCheckpoint(FreshDir("ckpt_missing"),
                                   TestFingerprint(), &loaded),
            CheckpointSource::kNone);
}

TEST(CheckpointTest, SavesRotatePrimaryToFallback) {
  const std::string dir = FreshDir("ckpt_rotate");
  CampaignCheckpoint first = TestCheckpoint();
  first.in_progress.episodes_done = 1;
  ASSERT_TRUE(SaveCampaignCheckpoint(first, dir));
  EXPECT_FALSE(std::filesystem::exists(CheckpointFallbackPath(dir)));
  CampaignCheckpoint second = TestCheckpoint();
  second.in_progress.episodes_done = 2;
  ASSERT_TRUE(SaveCampaignCheckpoint(second, dir));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFallbackPath(dir)));

  CampaignCheckpoint loaded;
  ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
            CheckpointSource::kPrimary);
  EXPECT_EQ(loaded.in_progress.episodes_done, 2U);
}

void CorruptFile(const std::string& path) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file) << path;
  file.seekp(24);  // inside the payload, past the header
  file.put('\x7f');
}

TEST(CheckpointTest, CorruptedPrimaryFallsBackToPreviousGood) {
  const std::string dir = FreshDir("ckpt_corrupt");
  CampaignCheckpoint first = TestCheckpoint();
  first.in_progress.episodes_done = 1;
  ASSERT_TRUE(SaveCampaignCheckpoint(first, dir));
  CampaignCheckpoint second = TestCheckpoint();
  second.in_progress.episodes_done = 2;
  ASSERT_TRUE(SaveCampaignCheckpoint(second, dir));
  CorruptFile(CheckpointPath(dir));

  CampaignCheckpoint loaded;
  ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
            CheckpointSource::kFallback);
  EXPECT_EQ(loaded.in_progress.episodes_done, 1U);
}

TEST(CheckpointTest, TruncatedPrimaryIsDetected) {
  const std::string dir = FreshDir("ckpt_torn");
  ASSERT_TRUE(SaveCampaignCheckpoint(TestCheckpoint(), dir));
  // Simulate a torn write: chop the file mid-payload. The declared
  // payload_size no longer fits, which the loader treats as corruption.
  const std::string path = CheckpointPath(dir);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  CampaignCheckpoint loaded;
  EXPECT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
            CheckpointSource::kNone);
}

TEST(CheckpointTest, VersionOneFileIsRejectedAsUnsupported) {
  // Version 1 strategy blobs held every tree node's MLP; version 2
  // PolicyNetwork blobs held a flat MLP in a layout of its own. Rewrite the
  // header's version field (offset 4) to each. The CRC covers only the
  // payload, so the version check alone must reject the file.
  for (const std::uint32_t version : {1U, 2U}) {
    SCOPED_TRACE(version);
    const std::string dir = FreshDir("ckpt_old_version");
    ASSERT_TRUE(SaveCampaignCheckpoint(TestCheckpoint(), dir));
    {
      std::fstream file(CheckpointPath(dir),
                        std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(file);
      file.seekp(4);
      file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    CampaignCheckpoint loaded;
    data::IoError error;
    EXPECT_EQ(
        LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded, &error),
        CheckpointSource::kNone);
    EXPECT_NE(error.message.find("unsupported version"), std::string::npos)
        << error.message;
  }
}

// ---------------------------------------------------------------------------
// Crash-point injection through the save path (ISSUE 10): a crash inside
// ANY rotation phase must leave loadable state, and the loadable state
// must be one of the two checkpoints involved — never a third thing.

CampaignCheckpoint CheckpointAtEpisode(std::size_t episodes_done) {
  CampaignCheckpoint state = TestCheckpoint();
  state.in_progress.episodes_done = episodes_done;
  return state;
}

fault::CrashScheduleConfig ThrowAt(const std::string& site) {
  fault::CrashScheduleConfig schedule;
  schedule.enabled = true;
  schedule.mode = fault::CrashMode::kThrow;
  schedule.site = site;
  schedule.at_hit = 1;
  return schedule;
}

TEST(CheckpointCrashTest, EveryRotationPhaseCrashLeavesLoadableState) {
  const struct {
    const char* site;
    CheckpointSource expect_source;
    std::size_t expect_episode;  // 1 = old state A, 2 = new state B
  } phases[] = {
      // Nothing written yet: primary A untouched.
      {"checkpoint.pre_temp_write", CheckpointSource::kPrimary, 1},
      // Temp B complete, rotation not begun: primary A still loads first.
      {"checkpoint.pre_rotate", CheckpointSource::kPrimary, 1},
      // cur rotated to .prev, rename pending: the complete temp orphan B
      // is the newest state and must win over .prev's A.
      {"checkpoint.pre_rename", CheckpointSource::kTempOrphan, 2},
  };
  for (const auto& phase : phases) {
    SCOPED_TRACE(phase.site);
    const std::string dir = FreshDir(std::string("ckpt_crash_") +
                                     phase.site);
    ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(1), dir));
    fault::ArmCrashSchedule(ThrowAt(phase.site));
    EXPECT_THROW(SaveCampaignCheckpoint(CheckpointAtEpisode(2), dir),
                 fault::CrashForTest);
    fault::DisarmCrashSchedule();

    CampaignCheckpoint loaded;
    ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
              phase.expect_source);
    EXPECT_EQ(loaded.in_progress.episodes_done, phase.expect_episode);

    // Recovery is read-only; the next clean save must restore the normal
    // primary/fallback shape and load the new state from the primary.
    ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(3), dir));
    ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
              CheckpointSource::kPrimary);
    EXPECT_EQ(loaded.in_progress.episodes_done, 3U);
  }
}

TEST(CheckpointCrashTest, DoubleFaultStillRecoversLoadableState) {
  // First crash: between the renames (worst window — primary missing).
  const std::string dir = FreshDir("ckpt_double_fault");
  ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(1), dir));
  fault::ArmCrashSchedule(ThrowAt("checkpoint.pre_rename"));
  EXPECT_THROW(SaveCampaignCheckpoint(CheckpointAtEpisode(2), dir),
               fault::CrashForTest);
  fault::DisarmCrashSchedule();

  // Second crash, during the post-recovery save: before the temp write,
  // so the on-disk shape is unchanged (tmp=B orphan, prev=A, no cur).
  fault::ArmCrashSchedule(ThrowAt("checkpoint.pre_temp_write"));
  EXPECT_THROW(SaveCampaignCheckpoint(CheckpointAtEpisode(3), dir),
               fault::CrashForTest);
  fault::DisarmCrashSchedule();

  CampaignCheckpoint loaded;
  ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
            CheckpointSource::kTempOrphan);
  EXPECT_EQ(loaded.in_progress.episodes_done, 2U);

  // Double fault with the orphan ALSO torn: only `.prev` survives.
  std::filesystem::resize_file(
      CheckpointTempPath(dir),
      std::filesystem::file_size(CheckpointTempPath(dir)) / 2);
  ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
            CheckpointSource::kFallback);
  EXPECT_EQ(loaded.in_progress.episodes_done, 1U);
}

TEST(CheckpointCrashTest, UnfilteredScheduleIteratesEverySite) {
  // A site-less schedule at_hit=k must hit each of the three phases as k
  // walks 1..3 — the exhaustive sweep the soak driver relies on.
  const char* expected_sites[] = {"checkpoint.pre_temp_write",
                                  "checkpoint.pre_rotate",
                                  "checkpoint.pre_rename"};
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const std::string dir =
        FreshDir("ckpt_sweep_" + std::to_string(k));
    fault::CrashScheduleConfig schedule;
    schedule.enabled = true;
    schedule.mode = fault::CrashMode::kThrow;
    schedule.at_hit = k;
    fault::ArmCrashSchedule(schedule);
    try {
      SaveCampaignCheckpoint(CheckpointAtEpisode(1), dir);
      FAIL() << "crash point " << k << " never fired";
    } catch (const fault::CrashForTest& crash) {
      EXPECT_EQ(crash.site, expected_sites[k - 1]);
      EXPECT_EQ(crash.hit, k);
    }
    fault::DisarmCrashSchedule();
    CampaignCheckpoint loaded;
    data::IoError error;
    const CheckpointSource source =
        LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded, &error);
    if (source == CheckpointSource::kNone) {
      // Legal only for the pre-temp-write crash of the very first save —
      // there was no earlier state to preserve.
      EXPECT_EQ(k, 1U);
      EXPECT_NE(error.message.find("no loadable checkpoint"),
                std::string::npos);
    } else {
      EXPECT_EQ(loaded.in_progress.episodes_done, 1U);
    }
  }
}

TEST(CheckpointCrashTest, SeededScheduleIsDeterministicAndInRange) {
  const std::uint64_t universe = 17;
  for (std::uint64_t cycle = 0; cycle < 32; ++cycle) {
    const auto a = fault::CrashScheduleConfig::Seeded(7, cycle, universe);
    const auto b = fault::CrashScheduleConfig::Seeded(7, cycle, universe);
    EXPECT_EQ(a.at_hit, b.at_hit);
    EXPECT_GE(a.at_hit, 1U);
    EXPECT_LE(a.at_hit, universe);
  }
  // Different cycles must not all collapse onto one hit index.
  std::set<std::uint64_t> distinct;
  for (std::uint64_t cycle = 0; cycle < 32; ++cycle) {
    distinct.insert(
        fault::CrashScheduleConfig::Seeded(7, cycle, universe).at_hit);
  }
  EXPECT_GT(distinct.size(), 4U);
}

// ---------------------------------------------------------------------------
// Corruption corpus: every truncation and single-byte bit flip of the
// primary must either fall back to `.prev` or fail typed — never crash,
// never load garbage.

TEST(CheckpointCorruptionCorpusTest, TruncationAndBitFlipsNeverLoadGarbage) {
  // Shape the corpus once: prev = episode 1, cur = episode 2.
  const std::string dir = FreshDir("ckpt_corpus_master");
  ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(1), dir));
  ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(2), dir));
  std::string master;
  {
    std::ifstream in(CheckpointPath(dir), std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    master = buffer.str();
  }
  ASSERT_GT(master.size(), 20U);  // fixed header + some payload

  const std::string work = FreshDir("ckpt_corpus_work");
  std::filesystem::create_directories(work);
  std::filesystem::copy_file(
      CheckpointFallbackPath(dir), CheckpointFallbackPath(work),
      std::filesystem::copy_options::overwrite_existing);

  const auto check_variant = [&](const std::string& bytes,
                                 const std::string& what) {
    {
      std::ofstream out(CheckpointPath(work),
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    CampaignCheckpoint loaded;
    data::IoError error;
    const CheckpointSource source =
        LoadCampaignCheckpoint(work, TestFingerprint(), &loaded, &error);
    if (source == CheckpointSource::kPrimary) {
      // A flip the CRC did not catch would be silent garbage: the only
      // way a corrupted primary may load as primary is not at all.
      ADD_FAILURE() << what << ": corrupted primary loaded as primary";
    } else if (source == CheckpointSource::kFallback) {
      EXPECT_EQ(loaded.in_progress.episodes_done, 1U) << what;
    } else {
      ASSERT_EQ(source, CheckpointSource::kNone) << what;
      EXPECT_FALSE(error.message.empty()) << what;
    }
  };

  // Truncate at every 64-byte boundary (and the empty file).
  for (std::size_t cut = 0; cut < master.size(); cut += 64) {
    check_variant(master.substr(0, cut),
                  "truncate@" + std::to_string(cut));
  }

  // One random single-bit flip per region, over many fixed-seed draws:
  // header [0,16), CRC [16,20), payload [20,end).
  util::Rng rng(testhelpers::TestSeed(97));
  const struct {
    const char* name;
    std::size_t begin;
    std::size_t end;
  } regions[] = {{"header", 0, 16},
                 {"crc", 16, 20},
                 {"payload", 20, master.size()}};
  for (const auto& region : regions) {
    for (int trial = 0; trial < 16; ++trial) {
      const std::size_t offset =
          region.begin +
          rng.NextUint64() % (region.end - region.begin);
      const int bit = static_cast<int>(rng.NextUint64() % 8);
      std::string flipped = master;
      flipped[offset] = static_cast<char>(
          static_cast<unsigned char>(flipped[offset]) ^ (1U << bit));
      check_variant(flipped, std::string(region.name) + " flip@" +
                                 std::to_string(offset) + " bit " +
                                 std::to_string(bit));
    }
  }

  // With no fallback either, every defect must surface a typed IoError.
  std::filesystem::remove(CheckpointFallbackPath(work));
  {
    std::string flipped = master;
    flipped[18] = static_cast<char>(
        static_cast<unsigned char>(flipped[18]) ^ 0x10);
    std::ofstream out(CheckpointPath(work),
                      std::ios::binary | std::ios::trunc);
    out.write(flipped.data(),
              static_cast<std::streamsize>(flipped.size()));
  }
  CampaignCheckpoint loaded;
  data::IoError error;
  ASSERT_EQ(LoadCampaignCheckpoint(work, TestFingerprint(), &loaded, &error),
            CheckpointSource::kNone);
  EXPECT_NE(error.message.find("CRC mismatch"), std::string::npos)
      << error.message;
  EXPECT_EQ(error.file, CheckpointPath(work));
}

TEST(CheckpointCrashTest, TempOrphanPreferredOverFallback) {
  // Hand-built double-fault shape: cur missing, complete tmp (newest),
  // valid prev (older) — the ladder must pick the orphan.
  const std::string dir = FreshDir("ckpt_orphan_pref");
  ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(1), dir));
  ASSERT_TRUE(SaveCampaignCheckpoint(CheckpointAtEpisode(2), dir));
  std::filesystem::rename(CheckpointPath(dir), CheckpointTempPath(dir));
  CampaignCheckpoint loaded;
  ASSERT_EQ(LoadCampaignCheckpoint(dir, TestFingerprint(), &loaded),
            CheckpointSource::kTempOrphan);
  EXPECT_EQ(loaded.in_progress.episodes_done, 2U);
}

TEST(CheckpointTest, EverySourceHasADistinctName) {
  const CheckpointSource sources[] = {
      CheckpointSource::kNone, CheckpointSource::kPrimary,
      CheckpointSource::kFallback, CheckpointSource::kTempOrphan};
  std::set<std::string> names;
  for (const CheckpointSource source : sources) {
    const std::string name = ToString(source);
    EXPECT_NE(name, "unknown");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(sources));
}

// ---------------------------------------------------------------------------
// Kill-and-resume equivalence

CampaignConfig ResumableCampaign() {
  CampaignConfig config;
  config.env.budget = 9;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 10;
  config.env.query_candidates = 50;
  config.episodes = 3;
  config.eval_users = 60;
  config.eval_negatives = 50;
  config.num_threads = 1;
  return config;
}

StrategyFactory LearningFactory() {
  const auto& tw = SharedTinyWorld();
  CopyAttackConfig agent_config;
  agent_config.learning_rate = 0.1f;
  return [&tw, agent_config](std::uint64_t seed) {
    return std::make_unique<CopyAttack>(
        &tw.world.dataset, &tw.artifacts.tree,
        &tw.artifacts.mf.user_embeddings(),
        &tw.artifacts.mf.item_embeddings(), agent_config, seed);
  };
}

void ExpectSameResult(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [k, m] : a.metrics) {
    EXPECT_DOUBLE_EQ(m.hr, b.metrics.at(k).hr) << "k=" << k;
    EXPECT_DOUBLE_EQ(m.ndcg, b.metrics.at(k).ndcg) << "k=" << k;
  }
  EXPECT_DOUBLE_EQ(a.avg_items_per_profile, b.avg_items_per_profile);
  EXPECT_DOUBLE_EQ(a.avg_profiles_injected, b.avg_profiles_injected);
  EXPECT_DOUBLE_EQ(a.avg_query_rounds, b.avg_query_rounds);
  EXPECT_DOUBLE_EQ(a.avg_final_reward, b.avg_final_reward);
  EXPECT_EQ(a.num_target_items, b.num_target_items);
}

std::vector<data::ItemId> ResumableTargets() {
  const auto& tw = SharedTinyWorld();
  util::Rng rng(testhelpers::TestSeed(71));
  return data::SampleColdTargetItems(tw.world.dataset, 2, 10, rng);
}

TEST(CheckpointResumeTest, CheckpointedPathMatchesPlainSequentialRun) {
  const auto& tw = SharedTinyWorld();
  const auto targets = ResumableTargets();
  const auto factory = LearningFactory();
  const auto plain =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, ResumableCampaign());
  CampaignConfig checkpointed = ResumableCampaign();
  checkpointed.checkpoint.dir = FreshDir("ckpt_equiv");
  const auto with_ckpt =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, checkpointed);
  ExpectSameResult(plain, with_ckpt);
  EXPECT_GT(with_ckpt.checkpoint_saves, 0U);
  EXPECT_FALSE(with_ckpt.aborted);
}

TEST(CheckpointResumeTest, KillAndResumeReproducesUninterruptedRun) {
  const auto& tw = SharedTinyWorld();
  const auto targets = ResumableTargets();
  const auto factory = LearningFactory();
  const auto uninterrupted =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, ResumableCampaign());

  // "Crash" mid-way through the second target (4 of 6 total episodes).
  CampaignConfig crashing = ResumableCampaign();
  crashing.checkpoint.dir = FreshDir("ckpt_kill");
  crashing.checkpoint.abort_after_episodes = 4;
  const auto aborted =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, crashing);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_LT(aborted.num_target_items, targets.size());

  // Resume: must land on exactly the uninterrupted outcome.
  CampaignConfig resuming = ResumableCampaign();
  resuming.checkpoint.dir = crashing.checkpoint.dir;
  resuming.checkpoint.resume = true;
  const auto resumed =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, resuming);
  EXPECT_EQ(resumed.resumed_from, CheckpointSource::kPrimary);
  EXPECT_FALSE(resumed.aborted);
  ExpectSameResult(uninterrupted, resumed);
}

TEST(CheckpointResumeTest, ResumeAfterCorruptionUsesFallbackCheckpoint) {
  const auto& tw = SharedTinyWorld();
  const auto targets = ResumableTargets();
  const auto factory = LearningFactory();
  const auto uninterrupted =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, ResumableCampaign());

  CampaignConfig crashing = ResumableCampaign();
  crashing.checkpoint.dir = FreshDir("ckpt_kill_corrupt");
  crashing.checkpoint.abort_after_episodes = 4;
  RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(), factory,
              targets, crashing);
  // The crash also mangled the freshest checkpoint; recovery must fall
  // back to the previous good one and still converge to the same result
  // (it just replays one more episode). A one-thread campaign is one
  // shard.
  CorruptFile(CheckpointPath(crashing.checkpoint.dir + "/shard_0_of_1"));

  CampaignConfig resuming = ResumableCampaign();
  resuming.checkpoint.dir = crashing.checkpoint.dir;
  resuming.checkpoint.resume = true;
  const auto resumed =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, resuming);
  EXPECT_EQ(resumed.resumed_from, CheckpointSource::kFallback);
  ExpectSameResult(uninterrupted, resumed);
}

TEST(CheckpointResumeTest, ResumeWithFaultsEnabledIsStillExact) {
  // Faults, resilience, and checkpointing composed: the per-episode fault
  // and jitter streams are derived from episodes_begun, which the resume
  // state restores, so the interrupted run replays identically.
  const auto& tw = SharedTinyWorld();
  const auto targets = ResumableTargets();
  const auto factory = LearningFactory();
  CampaignConfig config = ResumableCampaign();
  config.env.fault = fault::FaultScheduleConfig::Light(27);
  config.env.resilience.enabled = true;
  const auto uninterrupted =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, config);

  CampaignConfig crashing = config;
  crashing.checkpoint.dir = FreshDir("ckpt_kill_faulty");
  crashing.checkpoint.abort_after_episodes = 2;
  RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(), factory,
              targets, crashing);

  CampaignConfig resuming = config;
  resuming.checkpoint.dir = crashing.checkpoint.dir;
  resuming.checkpoint.resume = true;
  const auto resumed =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  factory, targets, resuming);
  ExpectSameResult(uninterrupted, resumed);
}

}  // namespace
}  // namespace copyattack::core

// Golden campaign outcomes on the Tiny world. Every other campaign test
// compares one execution path against another; these pin the absolute
// numbers (as hexfloats, bit-exact), so a refactor that changes what a
// campaign computes fails here even when all paths drift together.
//
// The values are a property of the default seeds: under a
// COPYATTACK_TEST_SEED override the world itself changes, so the tests
// skip.

#include <cstdint>
#include <filesystem>
#include <ios>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/copy_attack.h"
#include "core/runner.h"
#include "fault/fault_injector.h"
#include "serve/attack_server.h"
#include "test_helpers.h"
#include "test_seed.h"
#include "util/rng.h"

namespace copyattack::core {
namespace {

using testhelpers::SharedTinyWorld;

/// HR/NDCG@{20,10,5}, avg_final_reward, avg_query_rounds,
/// avg_profiles_injected — in that order.
using Golden = std::vector<double>;

const char* const kFieldNames[] = {
    "hr@20",        "hr@10",        "hr@5",
    "ndcg@20",      "ndcg@10",      "ndcg@5",
    "final_reward", "query_rounds", "profiles_injected"};

std::string Hex(double value) {
  std::ostringstream out;
  out << std::hexfloat << value;
  return out.str();
}

void ExpectGolden(const CampaignResult& result, const Golden& golden) {
  const Golden actual = {
      result.metrics.at(20).hr,   result.metrics.at(10).hr,
      result.metrics.at(5).hr,    result.metrics.at(20).ndcg,
      result.metrics.at(10).ndcg, result.metrics.at(5).ndcg,
      result.avg_final_reward,    result.avg_query_rounds,
      result.avg_profiles_injected};
  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], golden[i])
        << kFieldNames[i] << ": actual " << Hex(actual[i]) << ", golden "
        << Hex(golden[i]);
  }
}

CampaignConfig GoldenCampaign() {
  CampaignConfig config;
  config.env.budget = 9;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 10;
  config.env.query_candidates = 50;
  config.episodes = 3;
  config.eval_users = 60;
  config.eval_negatives = 50;
  config.num_threads = 2;
  return config;
}

std::vector<data::ItemId> GoldenTargets() {
  util::Rng rng(71);
  return data::SampleColdTargetItems(SharedTinyWorld().world.dataset, 3, 10,
                                     rng);
}

CopyAttackConfig GoldenAgentConfig() {
  CopyAttackConfig agent_config;
  agent_config.learning_rate = 0.1f;
  return agent_config;
}

StrategyFactory CopyAttackFactory(
    const CopyAttackConfig& agent_config = GoldenAgentConfig()) {
  const auto& tw = SharedTinyWorld();
  return [&tw, agent_config](std::uint64_t seed) {
    return std::make_unique<CopyAttack>(
        &tw.world.dataset, &tw.artifacts.tree,
        &tw.artifacts.mf.user_embeddings(),
        &tw.artifacts.mf.item_embeddings(), agent_config, seed);
  };
}

const Golden kCopyAttackGolden = {
    0x1.99e8e4b6403d7p-2, 0x1.82f29be1ba643p-3, 0x1.17d6f2fb08a99p-4,
    0x1.ee33538bc2125p-4, 0x1.140cf2e0bb59ep-4, 0x1.dcda3bf21ec0fp-6,
    0x1.dddddddddddddp-2, 0x1.2p+3,             0x1.2p+3};

class GoldenOutcomeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (testhelpers::SeedOverrideActive()) {
      GTEST_SKIP() << "golden values hold only for the default seeds";
    }
  }
};

TEST_F(GoldenOutcomeTest, CopyAttack) {
  const auto& tw = SharedTinyWorld();
  const CampaignResult result =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  CopyAttackFactory(), GoldenTargets(), GoldenCampaign());
  EXPECT_EQ(result.method, "CopyAttack");
  ExpectGolden(result, kCopyAttackGolden);
}

// Unmasked walks: the policy may descend into any subtree, so the walk
// visits tree nodes a masked campaign never reaches.
TEST_F(GoldenOutcomeTest, CopyAttackWithoutMasking) {
  const auto& tw = SharedTinyWorld();
  CopyAttackConfig agent_config = GoldenAgentConfig();
  agent_config.use_masking = false;
  const CampaignResult result =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  CopyAttackFactory(agent_config), GoldenTargets(),
                  GoldenCampaign());
  EXPECT_EQ(result.method, "CopyAttack-Masking");
  ExpectGolden(result, {0x1.52cb209d987c3p-3, 0x1.1a7b9611a7b96p-5,
                        0x1.78a4c8178a4c8p-8, 0x1.699670eca14bcp-5,
                        0x1.76da0a9bb2eb9p-7, 0x1.23694cd235744p-9,
                        0x1.1111111111111p-2, 0x1.2p+3, 0x1.2p+3});
}

// The gated encoder draws its initial weights from the same init stream
// as the node MLPs, ahead of them.
TEST_F(GoldenOutcomeTest, CopyAttackWithGruEncoder) {
  const auto& tw = SharedTinyWorld();
  CopyAttackConfig agent_config = GoldenAgentConfig();
  agent_config.selection.encoder = SequenceEncoderType::kGru;
  const CampaignResult result =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  CopyAttackFactory(agent_config), GoldenTargets(),
                  GoldenCampaign());
  EXPECT_EQ(result.method, "CopyAttack");
  ExpectGolden(result, {0x1.3b980d220a587p-2, 0x1.a55ebfda55ecp-4,
                        0x1.17581466cad69p-6, 0x1.69706eab415dcp-4,
                        0x1.2abed61dea094p-5, 0x1.0cd0de2b978d5p-7,
                        0x1.7777777777778p-2, 0x1.2p+3, 0x1.2p+3});
}

// The flat baseline of paper §5.1.4, built the way every campaign path
// builds it: one policy over all source users, with CopyAttack's default
// hyper-parameters, masking and crafting.
TEST_F(GoldenOutcomeTest, PolicyNetwork) {
  const auto& tw = SharedTinyWorld();
  const serve::StrategySpec spec = serve::MakeStrategyFactory(
      tw.world.dataset, tw.artifacts, "PolicyNetwork");
  ASSERT_TRUE(spec.factory) << spec.error;
  const CampaignResult result =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  spec.factory, GoldenTargets(), GoldenCampaign());
  EXPECT_EQ(result.method, "PolicyNetwork");
  ExpectGolden(result, {0x1.48f6e22178f95p-2, 0x1.02f149902f149p-3,
                        0x1.3205e293205e3p-4, 0x1.9e8fc1ccc6afdp-4,
                        0x1.b1fdb7c48ec4bp-5, 0x1.2c29e8d044579p-5,
                        0x1.9999999999999p-2, 0x1.2p+3, 0x1.2p+3});
}

// The attack zoo, built the way every campaign path builds it: one
// surrogate trained on the observable target domain from its fixed seed,
// with the zoo's default hyper-parameters.
CampaignResult RunZooMethod(const std::string& method) {
  const auto& tw = SharedTinyWorld();
  const serve::StrategySpec spec =
      serve::MakeStrategyFactory(tw.world.dataset, tw.artifacts, method);
  EXPECT_TRUE(spec.factory) << spec.error;
  return RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                     spec.factory, GoldenTargets(), GoldenCampaign());
}

TEST_F(GoldenOutcomeTest, SurrogateTransfer) {
  const CampaignResult result = RunZooMethod("SurrogateTransfer");
  EXPECT_EQ(result.method, "SurrogateTransfer");
  ExpectGolden(result, {0x1.9a67c34a7e107p-2, 0x1.5eff49a00ae71p-3,
                        0x1.d3aa78728ffcdp-6, 0x1.d2e1bef580804p-4,
                        0x1.cb317e3753afbp-5, 0x1.7a5777c90ab8fp-7,
                        0x1.dddddddddddddp-2, 0x1.2p+3, 0x1.2p+3});
}

TEST_F(GoldenOutcomeTest, Influence) {
  const CampaignResult result = RunZooMethod("Influence");
  EXPECT_EQ(result.method, "Influence");
  ExpectGolden(result, {0x1.8ee20c53e0a78p-3, 0x1.78a4c8178a4c8p-5, 0x0p+0,
                        0x1.aa4012a17b3c9p-5, 0x1.e4af59e50d204p-7, 0x0p+0,
                        0x1.1111111111111p-2, 0x1.2p+3, 0x1.2p+3});
}

TEST_F(GoldenOutcomeTest, TargetAttackUnderAggressiveFaults) {
  const auto& tw = SharedTinyWorld();
  CampaignConfig config = GoldenCampaign();
  config.env.fault = fault::FaultScheduleConfig::Aggressive(27);
  config.env.resilience.enabled = true;
  const CampaignResult result = RunCampaign(
      tw.world.dataset, tw.split.train, tw.ModelFactory(),
      [&tw](std::uint64_t) {
        return std::make_unique<TargetAttack>(tw.world.dataset, 0.7);
      },
      GoldenTargets(), config);
  EXPECT_EQ(result.method, "TargetAttack70");
  ExpectGolden(result, {0x1.bc8f2eb2cd70bp-3, 0x1.77dbe7acd313dp-4,
                        0x1.78a4c8178a4c8p-6, 0x1.031037946b6bbp-4,
                        0x1.04d2be3adc7f8p-5, 0x1.40f8ee3d064e9p-7,
                        0x1.1111111111111p-2, 0x1.2p+3, 0x1p+3});
}

TEST_F(GoldenOutcomeTest, WithoutAttack) {
  const auto& tw = SharedTinyWorld();
  const CampaignResult result = EvaluateWithoutAttack(
      tw.world.dataset, tw.split.train, tw.ModelFactory(), GoldenTargets(),
      GoldenCampaign());
  EXPECT_EQ(result.method, "WithoutAttack");
  ExpectGolden(result, {0x1.3bda210f3fe0fp-3, 0x1.78a4c8178a4c8p-6, 0x0p+0,
                        0x1.491f881958abap-5, 0x1.f9f64a6ffe7bp-8, 0x0p+0,
                        0x0p+0, 0x0p+0, 0x0p+0});
}

TEST_F(GoldenOutcomeTest, KilledAndResumedCopyAttack) {
  const auto& tw = SharedTinyWorld();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "golden_resume")
          .string();
  std::filesystem::remove_all(dir);

  // Killed mid-way through the second of three targets.
  CampaignConfig crashing = GoldenCampaign();
  crashing.checkpoint.dir = dir;
  crashing.checkpoint.abort_after_episodes = 4;
  const CampaignResult aborted =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  CopyAttackFactory(), GoldenTargets(), crashing);
  ASSERT_TRUE(aborted.aborted);

  CampaignConfig resuming = GoldenCampaign();
  resuming.checkpoint.dir = dir;
  resuming.checkpoint.resume = true;
  const CampaignResult resumed =
      RunCampaign(tw.world.dataset, tw.split.train, tw.ModelFactory(),
                  CopyAttackFactory(), GoldenTargets(), resuming);
  EXPECT_NE(resumed.resumed_from, CheckpointSource::kNone);
  EXPECT_FALSE(resumed.aborted);
  ExpectGolden(resumed, kCopyAttackGolden);
}

}  // namespace
}  // namespace copyattack::core

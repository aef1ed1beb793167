#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.h"

namespace copyattack::tools {
namespace {

/// Runs the CLI with the given arguments and captures stdout text.
int RunTool(const std::vector<std::string>& args, std::string* output) {
  std::vector<const char*> argv = {"copyattack"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  const int code = RunCli(static_cast<int>(argv.size()), argv.data(), out);
  *output = out.str();
  return code;
}

std::string TempPrefix(const char* name) {
  return testing::TempDir() + "/" + name;
}

void RemoveWorld(const std::string& prefix) {
  for (const char* suffix : {".meta.csv", ".target.csv", ".source.csv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(CliTest, HelpListsCommandsAndFlags) {
  std::string output;
  EXPECT_EQ(RunTool({"help"}, &output), 0);
  EXPECT_NE(output.find("generate"), std::string::npos);
  EXPECT_NE(output.find("--budget"), std::string::npos);
  EXPECT_NE(output.find("|recipe|"), std::string::npos);
}

TEST(CliTest, RecipeWithoutAKnownNameListsEveryRecipe) {
  const char* const kRecipes[] = {
      "table1_datasets",   "target_quality",       "table2_comparison",
      "fig3_tree_depth",   "fig4_popularity",      "fig5_budget_small",
      "fig6_budget_large", "policy_scaling",       "reward_shaping",
      "target_models",     "defense_detectability", "arms_race_frontier",
      "extensions",        "query_budget"};
  const std::vector<std::vector<std::string>> invocations = {
      {"recipe"}, {"recipe", "table3_missing"}};
  for (const std::vector<std::string>& args : invocations) {
    std::string output;
    EXPECT_EQ(RunTool(args, &output), 2) << args.size();
    for (const char* name : kRecipes) {
      EXPECT_NE(output.find(std::string("  ") + name + ": "),
                std::string::npos)
          << name << " missing from:\n" << output;
    }
  }
}

TEST(CliTest, NoCommandPrintsHelp) {
  std::string output;
  EXPECT_EQ(RunTool({}, &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string output;
  EXPECT_NE(RunTool({"frobnicate"}, &output), 0);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagFails) {
  std::string output;
  EXPECT_NE(RunTool({"stats", "--bogus=1"}, &output), 0);
  EXPECT_NE(output.find("unknown flag"), std::string::npos);
}

TEST(CliTest, GenerateStatsRoundTrip) {
  const std::string prefix = TempPrefix("cli_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  EXPECT_NE(output.find("written:"), std::string::npos);

  ASSERT_EQ(RunTool({"stats", "--data", prefix}, &output), 0);
  EXPECT_NE(output.find("# of Users"), std::string::npos);
  EXPECT_NE(output.find("Tiny"), std::string::npos);
  RemoveWorld(prefix);
}

TEST(CliTest, GenerateRejectsBadConfig) {
  std::string output;
  EXPECT_NE(RunTool({"generate", "--config=huge", "--out=/tmp/x"}, &output), 0);
  EXPECT_NE(output.find("unknown --config"), std::string::npos);
}

TEST(CliTest, StatsFailsOnMissingData) {
  std::string output;
  EXPECT_NE(RunTool({"stats", "--data=/nonexistent/prefix"}, &output), 0);
  EXPECT_NE(output.find("could not load"), std::string::npos);
}

TEST(CliTest, TrainReportsQuality) {
  const std::string prefix = TempPrefix("cli_train_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  ASSERT_EQ(RunTool({"train", "--data", prefix, "--max-epochs=5",
                 "--patience=2"},
                &output),
            0);
  EXPECT_NE(output.find("test  HR@10"), std::string::npos);
  RemoveWorld(prefix);
}

TEST(CliTest, AttackRunsEndToEnd) {
  const std::string prefix = TempPrefix("cli_attack_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  ASSERT_EQ(RunTool({"attack", "--data", prefix, "--method=TargetAttack40",
                 "--targets=2", "--budget=6"},
                &output),
            0);
  EXPECT_NE(output.find("WithoutAttack"), std::string::npos);
  EXPECT_NE(output.find("TargetAttack40"), std::string::npos);
  RemoveWorld(prefix);
}

// Unchecked, a non-positive size reaches a CA_CHECK abort (exit 134),
// some only after the target model has been trained.
TEST(CliTest, PositiveIntFlagsRejectNonPositiveValues) {
  for (const char* flag : {"jobs", "depth", "budget", "episodes", "targets",
                           "checkpoint_every"}) {
    for (const char* value : {"0", "-3", "two"}) {
      const std::string bad = std::string("--") + flag + "=" + value;
      std::string output;
      EXPECT_EQ(RunTool({"attack", bad}, &output), 2) << bad;
      EXPECT_NE(output.find("expects a positive integer"), std::string::npos)
          << output;
      EXPECT_NE(output.find(std::string("--") + flag), std::string::npos)
          << output;
    }
  }
}

TEST(CliTest, AttackRejectsUnknownFaultsBeforeTraining) {
  const std::string prefix = TempPrefix("cli_faults_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  EXPECT_EQ(RunTool({"attack", "--data", prefix, "--faults=bogus"}, &output),
            2);
  EXPECT_NE(output.find("unknown --faults bogus"), std::string::npos)
      << output;
  EXPECT_EQ(output.find("target model test HR@10"), std::string::npos)
      << output;
  RemoveWorld(prefix);
}

TEST(CliTest, AttackWithJobsRoutesThroughShardedRunner) {
  const std::string prefix = TempPrefix("cli_jobs_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  ASSERT_EQ(RunTool({"attack", "--data", prefix, "--method=TargetAttack40",
                 "--targets=2", "--budget=6", "--jobs=2"},
                &output),
            0);
  EXPECT_NE(output.find("TargetAttack40"), std::string::npos);
  EXPECT_NE(output.find("throughput:"), std::string::npos);
  EXPECT_NE(output.find("2 jobs"), std::string::npos);
  RemoveWorld(prefix);
}

TEST(CliTest, AttackServerDrainsQueueCsvAndReportsFailures) {
  const std::string prefix = TempPrefix("cli_server_world");
  const std::string queue_path = TempPrefix("cli_server_jobs.csv");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  {
    std::ofstream queue(queue_path);
    queue << "id,method,targets,budget,episodes,seed\n"
          << "promo-a,TargetAttack40,2,5,1,9\n"
          << "promo-b,NoSuchMethod,2,5,1,9\n";
  }

  EXPECT_EQ(RunTool({"attack-server", "--data", prefix,
                 "--queue", queue_path},
                &output),
            1);
  EXPECT_NE(output.find("serving 2 promotion jobs"), std::string::npos);
  EXPECT_NE(output.find("promo-a:TargetAttack40"), std::string::npos);
  EXPECT_NE(output.find("campaigns/s"), std::string::npos);
  EXPECT_NE(output.find("unknown --method 'NoSuchMethod'"), std::string::npos);
  // The rejection must teach: it lists every registered method name.
  EXPECT_NE(output.find("registered methods:"), std::string::npos);
  EXPECT_NE(output.find("SurrogateTransfer"), std::string::npos);
  EXPECT_NE(output.find("served 1 jobs, 1 failed"), std::string::npos);
  std::remove(queue_path.c_str());
  RemoveWorld(prefix);
}

TEST(CliTest, AttackServerFailsOnMalformedQueue) {
  const std::string prefix = TempPrefix("cli_server_bad_world");
  const std::string queue_path = TempPrefix("cli_server_bad_jobs.csv");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  {
    std::ofstream queue(queue_path);
    queue << "promo-a,TargetAttack40,2,5\n";  // too few fields
  }
  EXPECT_EQ(RunTool({"attack-server", "--data", prefix,
                 "--queue", queue_path},
                &output),
            2);
  EXPECT_NE(output.find("expected 6 fields"), std::string::npos);

  EXPECT_EQ(RunTool({"attack-server", "--data", prefix,
                 "--queue=/nonexistent/queue.csv"},
                &output),
            1);
  EXPECT_NE(output.find("could not open"), std::string::npos);
  std::remove(queue_path.c_str());
  RemoveWorld(prefix);
}

TEST(CliTest, AttackRejectsUnknownMethod) {
  const std::string prefix = TempPrefix("cli_method_world");
  std::string output;
  ASSERT_EQ(RunTool({"generate", "--config=tiny", "--out", prefix}, &output), 0);
  EXPECT_NE(RunTool({"attack", "--data", prefix, "--method=VoodooAttack"},
                &output),
            0);
  EXPECT_NE(output.find("unknown --method"), std::string::npos);
  RemoveWorld(prefix);
}

}  // namespace
}  // namespace copyattack::tools

// The paper's tables and figures plus the repo's ablations, as one table
// of recipes. Every recipe writes `bench_results/<name>.csv`; run one with
// `copyattack recipe <name>`.
//
// The paper's dataset pairs are (ML10M, Flixster) and (ML20M, Netflix);
// this repo substitutes laptop-scale synthetic worlds with the same
// structural properties (DESIGN.md §2), so the *shapes* of the results are
// the reproduction target, not the absolute numbers.

#include "recipes.h"

#include <sys/stat.h>

#include <cstdio>
#include <memory>

#include "cluster/hierarchical_tree.h"
#include "core/baselines.h"
#include "core/copy_attack.h"
#include "core/crafting.h"
#include "core/environment.h"
#include "core/selection_policy.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "data/target_items.h"
#include "defense/adaptive_detector.h"
#include "defense/detectors.h"
#include "defense/profile_features.h"
#include "math/matrix.h"
#include "obs/time.h"
#include "rec/item_knn.h"
#include "rec/matrix_factorization.h"
#include "rec/trainer.h"
#include "serve/attack_server.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace copyattack::bench {
namespace {

std::string F4(double value) { return util::FormatDouble(value, 4); }

/// Everything a recipe needs for one dataset pair: the set-up (the
/// trained black-box target model and the source-domain artifacts) and
/// the synthetic world it was prepared from.
struct BenchWorld : core::World {
  data::SyntheticWorld world;
};

/// Generates the world and prepares it: the target model trained with
/// early stopping on validation HR@10 (paper §5.1.3, at most 40 epochs)
/// and the source artifacts with the given tree depth (paper: 3 for the
/// small pair, 6 for the large pair).
BenchWorld BuildBenchWorld(const data::SyntheticConfig& config,
                           std::size_t tree_depth) {
  CA_LOG(Info) << "generating world: " << config.name;
  data::SyntheticWorld world = data::GenerateSyntheticWorld(config);
  core::WorldOptions options;
  options.target.split_seed = config.seed ^ 0x51517ULL;
  options.target.train_seed = config.seed ^ 0x7EA7ULL;
  options.target.train.max_epochs = 40;
  options.source.tree_depth = tree_depth;
  options.source.seed = config.seed ^ 0xA11CEULL;
  core::World prepared = core::PrepareWorld(world.dataset, options);
  return BenchWorld{std::move(prepared), std::move(world)};
}

/// The campaign settings of paper §5.1.3: budget 30, query every 3
/// injections, 50 pretend users, 25 episodes.
core::CampaignConfig DefaultCampaign(std::uint64_t seed) {
  core::CampaignConfig config;
  config.env.budget = 30;
  config.env.query_interval = 3;
  config.env.num_pretend_users = 50;
  config.env.reward_k = 20;
  config.env.query_candidates = 100;
  config.episodes = 25;
  config.eval_ks = {20, 10, 5};
  config.eval_users = 250;
  config.eval_negatives = 100;
  config.seed = seed;
  config.num_threads = 1;
  return config;
}

/// The two paper pairs at their paper tree depths.
struct PaperPair {
  data::SyntheticConfig config;
  std::size_t tree_depth;
};
std::vector<PaperPair> PaperPairs() {
  return {{data::SyntheticConfig::SmallCross(), 3},
          {data::SyntheticConfig::LargeCross(), 6}};
}

/// `count` cold target items (< 10 target-domain interactions), sampled
/// from the fixed target stream every campaign recipe shares.
std::vector<data::ItemId> ColdTargets(const BenchWorld& bw,
                                      std::size_t count) {
  util::Rng target_rng(1789);
  return data::SampleColdTargetItems(bw.world.dataset, count, 10,
                                     target_rng);
}

/// Runs one registered method over `targets`; the non-learning baselines
/// play a single episode.
core::CampaignResult RunMethod(const BenchWorld& bw, const std::string& method,
                               const std::vector<data::ItemId>& targets,
                               core::CampaignConfig campaign) {
  const serve::StrategySpec spec =
      serve::MakeStrategyFactory(bw.world.dataset, bw.source, method);
  CA_CHECK(spec.factory) << spec.error;
  if (!spec.learns) campaign.episodes = 1;
  return core::RunCampaign(bw.world.dataset, bw.target.split.train,
                           bw.target.Factory(), spec.factory, targets,
                           campaign);
}

/// A CopyAttack variant built from an explicit config (the ablations).
core::StrategyFactory CopyAttackWith(const BenchWorld& bw,
                                     core::CopyAttackConfig config) {
  return [&bw, config](std::uint64_t seed) {
    return std::make_unique<core::CopyAttack>(
        &bw.world.dataset, &bw.source.tree,
        &bw.source.mf.user_embeddings(),
        &bw.source.mf.item_embeddings(), config, seed);
  };
}

std::vector<defense::ProfileFeatures> ExtractAll(
    const defense::ProfileFeatureExtractor& extractor,
    const std::vector<data::Profile>& profiles, util::Rng& rng) {
  std::vector<defense::ProfileFeatures> features;
  features.reserve(profiles.size());
  for (const data::Profile& profile : profiles) {
    features.push_back(extractor.Extract(profile, rng));
  }
  return features;
}

/// `count` genuine target-domain profiles drawn uniformly from `rng`.
std::vector<data::Profile> GenuineProfiles(const data::Dataset& target,
                                           std::size_t count,
                                           util::Rng& rng) {
  std::vector<data::Profile> genuine;
  genuine.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const data::UserId u =
        static_cast<data::UserId>(rng.UniformUint64(target.num_users()));
    genuine.push_back(target.UserProfile(u));
  }
  return genuine;
}

/// The metric `column` of a campaign result, formatted as the CSVs store
/// it: `method`, `hr<k>` / `ndcg<k>` for an evaluated k,
/// `items_per_profile`, `profiles_injected`, `final_reward` or `wall_s`.
/// Aborts on any other column name.
std::string Cell(const core::CampaignResult& result,
                 const std::string& column) {
  if (column == "method") return result.method;
  if (column == "items_per_profile") return F4(result.avg_items_per_profile);
  if (column == "profiles_injected") return F4(result.avg_profiles_injected);
  if (column == "final_reward") return F4(result.avg_final_reward);
  if (column == "wall_s") return F4(result.wall_seconds);
  for (const auto& [k, at_k] : result.metrics) {
    if (column == "hr" + std::to_string(k)) return F4(at_k.hr);
    if (column == "ndcg" + std::to_string(k)) return F4(at_k.ndcg);
  }
  CA_CHECK(false) << "no campaign column '" << column << "'";
  return {};
}

}  // namespace

/// Every row goes to the CSV at `csv_path` and is echoed, CSV-formatted,
/// to the caller's stream.
class RecipeRun {
 public:
  RecipeRun(const std::string& csv_path,
            const std::vector<std::string>& columns, std::string config,
            std::ostream& out)
      : csv_(csv_path, columns),
        columns_(columns),
        config_(std::move(config)),
        out_(out) {
    out_ << util::Join(columns_, ",") << '\n';
  }

  /// Writes one full row.
  void Row(const std::vector<std::string>& fields) {
    csv_.WriteRow(fields);
    csv_.Flush();
    out_ << util::Join(fields, ",") << '\n';
    ++rows_;
  }

  /// Writes `keys` as the leading columns and fills every remaining
  /// column with `Cell(result, column)`.
  void Row(std::vector<std::string> keys,
           const core::CampaignResult& result) {
    for (std::size_t c = keys.size(); c < columns_.size(); ++c) {
      keys.push_back(Cell(result, columns_[c]));
    }
    Row(keys);
  }

  /// Records a failure; the run exits non-zero with `message`.
  void Fail(const std::string& message) { error_ = message; }

  /// The `--config` preset of the command line (only the arms race reads
  /// it; `small` unless overridden).
  const std::string& config() const { return config_; }
  const std::string& error() const { return error_; }
  bool csv_ok() const { return csv_.ok(); }
  std::size_t rows() const { return rows_; }

 private:
  util::CsvWriter csv_;
  std::vector<std::string> columns_;
  std::string config_;
  std::ostream& out_;
  std::string error_;
  std::size_t rows_ = 0;
};

namespace {

// ---------------------------------------------------------------------
// Paper tables and figures.

void Table1Datasets(RecipeRun& run) {
  for (const PaperPair& pair : PaperPairs()) {
    const data::SyntheticWorld world =
        data::GenerateSyntheticWorld(pair.config);
    const data::CrossDomainStats stats = data::ComputeStats(world.dataset);
    run.Row({stats.name, std::to_string(stats.target_users),
             std::to_string(stats.target_items),
             std::to_string(stats.target_interactions),
             std::to_string(stats.source_users),
             std::to_string(stats.overlapping_items),
             std::to_string(stats.source_interactions)});
  }
}

void TargetQuality(RecipeRun& run) {
  for (const PaperPair& pair : PaperPairs()) {
    const BenchWorld bw = BuildBenchWorld(pair.config, pair.tree_depth);
    run.Row({pair.config.name, std::to_string(bw.target.report.epochs_run),
             F4(bw.target.report.best_valid_hr), F4(bw.target.report.test_hr),
             F4(bw.target.report.test_ndcg)});
  }
}

void Table2Comparison(RecipeRun& run) {
  // The attacking methods of Table 2, in paper order, after WithoutAttack.
  static const char* const kMethods[] = {
      "RandomAttack",      "TargetAttack40",     "TargetAttack70",
      "TargetAttack100",   "PolicyNetwork",      "CopyAttack-Masking",
      "CopyAttack-Length", "CopyAttack"};
  for (const PaperPair& pair : PaperPairs()) {
    const BenchWorld bw = BuildBenchWorld(pair.config, pair.tree_depth);
    const auto targets = ColdTargets(bw, 50);
    const core::CampaignConfig base = DefaultCampaign(4242);
    run.Row({pair.config.name},
            core::EvaluateWithoutAttack(bw.world.dataset, bw.target.split.train,
                                        bw.target.Factory(), targets, base));
    for (const char* method : kMethods) {
      run.Row({pair.config.name}, RunMethod(bw, method, targets, base));
    }
  }
}

void Fig3TreeDepth(RecipeRun& run) {
  const struct {
    data::SyntheticConfig config;
    std::vector<std::size_t> depths;
  } sweeps[] = {{data::SyntheticConfig::SmallCross(), {2, 3, 4, 5}},
                {data::SyntheticConfig::LargeCross(), {2, 3, 4, 6}}};
  for (const auto& sweep : sweeps) {
    for (const std::size_t depth : sweep.depths) {
      // The tree (and hence the policy architecture) depends on the
      // depth, so the world is rebuilt per sweep point.
      const BenchWorld bw = BuildBenchWorld(sweep.config, depth);
      run.Row({sweep.config.name, std::to_string(depth),
               std::to_string(bw.source.tree.branching())},
              RunMethod(bw, "CopyAttack", ColdTargets(bw, 30),
                        DefaultCampaign(4242)));
    }
  }
}

void Fig4Popularity(RecipeRun& run) {
  for (const PaperPair& pair : PaperPairs()) {
    const BenchWorld bw = BuildBenchWorld(pair.config, pair.tree_depth);
    util::Rng target_rng(97);
    const auto groups = data::SampleTargetsByPopularityGroup(
        bw.world.dataset, 10, 10, target_rng);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].empty()) continue;
      double mean_pop = 0.0;
      for (const data::ItemId item : groups[g]) {
        mean_pop += static_cast<double>(
            bw.world.dataset.target.ItemPopularity(item));
      }
      mean_pop /= static_cast<double>(groups[g].size());
      run.Row({pair.config.name, std::to_string(g + 1), F4(mean_pop)},
              RunMethod(bw, "CopyAttack", groups[g],
                        DefaultCampaign(4242 + g)));
    }
  }
}

/// Figures 5 and 6: sweeps the profile budget Δ per method on one pair.
void BudgetSweep(RecipeRun& run, const PaperPair& pair) {
  static const char* const kMethods[] = {"RandomAttack", "TargetAttack40",
                                         "TargetAttack70", "TargetAttack100",
                                         "CopyAttack"};
  const BenchWorld bw = BuildBenchWorld(pair.config, pair.tree_depth);
  const auto targets = ColdTargets(bw, 30);
  for (const char* method : kMethods) {
    for (const std::size_t budget : {5UL, 10UL, 15UL, 20UL, 25UL, 30UL}) {
      core::CampaignConfig campaign = DefaultCampaign(4242);
      campaign.env.budget = budget;
      run.Row({pair.config.name, method, std::to_string(budget)},
              RunMethod(bw, method, targets, campaign));
    }
  }
}

void Fig5BudgetSmall(RecipeRun& run) { BudgetSweep(run, PaperPairs()[0]); }
void Fig6BudgetLarge(RecipeRun& run) { BudgetSweep(run, PaperPairs()[1]); }

// ---------------------------------------------------------------------
// Policy scaling: per-decision wall time of the flat policy vs the tree.

/// One decision of a selection policy over `tree` with every leaf
/// selectable, so the walk decides at full width. A depth-1 tree is the
/// flat PolicyNetwork baseline: one softmax over every user.
double TreeDecisionMicros(const cluster::HierarchicalTree& tree,
                          const math::Matrix& users,
                          const math::Matrix& items, std::size_t rounds) {
  util::Rng init_rng(5);
  core::HierarchicalSelectionPolicy policy(
      &tree, &users, &items, core::HierarchicalSelectionPolicy::Config{},
      init_rng);
  policy.SetTargetItem(0, tree.ComputeMask([](std::size_t) {
    return true;
  }));
  const auto walk = [&policy, rounds] {
    util::Rng rng(7);
    for (std::size_t i = 0; i < rounds; ++i) {
      core::SelectionStepRecord record;
      policy.SampleUser({}, rng, &record);
    }
  };
  // Tree nodes are built on their first visit, once per target; replaying
  // the same walks untimed first leaves only the decisions in the timing.
  walk();
  obs::Stopwatch watch;
  walk();
  return watch.ElapsedSeconds() / static_cast<double>(rounds) * 1e6;
}

void PolicyScaling(RecipeRun& run) {
  const std::size_t num_items = 50;
  util::Rng data_rng(3);
  math::Matrix items(num_items, 8);
  items.FillNormal(data_rng, 0.0f, 0.5f);
  for (const std::size_t n : {1000UL, 4000UL, 16000UL, 64000UL}) {
    math::Matrix users(n, 8);
    users.FillNormal(data_rng, 0.0f, 0.5f);
    util::Rng tree_rng(13);
    const auto tree =
        cluster::HierarchicalTree::BuildWithDepth(users, 3, tree_rng);
    const double tree_us = TreeDecisionMicros(tree, users, items, 200);
    const double flat_us =
        TreeDecisionMicros(*core::BuildFlatTree(users), users, items, 200);
    run.Row({std::to_string(n), F4(tree_us), F4(flat_us),
             F4(flat_us / tree_us)});
  }
}

// ---------------------------------------------------------------------
// Ablations, the paper's premise, the arms race and extensions.

void RewardShaping(RecipeRun& run) {
  const BenchWorld bw = BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  const auto targets = ColdTargets(bw, 30);
  const struct {
    const char* name;
    core::RewardShaping shaping;
    core::SequenceEncoderType encoder;
  } variants[] = {{"raw-HR", core::RewardShaping::kHitRatio,
                   core::SequenceEncoderType::kVanillaRnn},
                  {"delta-HR", core::RewardShaping::kDeltaHitRatio,
                   core::SequenceEncoderType::kVanillaRnn},
                  {"delta-HR+GRU", core::RewardShaping::kDeltaHitRatio,
                   core::SequenceEncoderType::kGru}};
  for (const auto& variant : variants) {
    core::CopyAttackConfig config;
    config.reward_shaping = variant.shaping;
    config.selection.encoder = variant.encoder;
    run.Row({variant.name},
            core::RunCampaign(bw.world.dataset, bw.target.split.train,
                              bw.target.Factory(), CopyAttackWith(bw, config),
                              targets, DefaultCampaign(4242)));
  }
}

void TargetModels(RecipeRun& run) {
  const BenchWorld bw = BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  rec::MatrixFactorization mf_prototype;
  util::Rng mf_rng(31);
  rec::TrainWithEarlyStopping(mf_prototype, bw.target.split,
                              bw.world.dataset.target, rec::TrainOptions{},
                              mf_rng);
  rec::ItemKnn knn_prototype;
  util::Rng knn_rng(37);
  knn_prototype.Fit(bw.target.split.train, 1, knn_rng);
  const auto targets = ColdTargets(bw, 25);

  const auto mf = [&] {
    return std::make_unique<rec::MatrixFactorization>(mf_prototype);
  };
  const auto knn = [&] {
    return std::make_unique<rec::ItemKnn>(knn_prototype);
  };
  const struct {
    const char* name;
    core::ModelFactory factory;
    bool refit;
  } variants[] = {{"PinSage-inductive", bw.target.Factory(), false},
                  {"MF-frozen", mf, false},
                  {"MF-refit-on-query", mf, true},
                  {"ItemKNN-frozen", knn, false},
                  {"ItemKNN-refit", knn, true}};
  for (const auto& variant : variants) {
    core::CampaignConfig campaign = DefaultCampaign(4242);
    campaign.episodes = 1;
    campaign.env.refit_on_query = variant.refit;
    const auto clean = core::EvaluateWithoutAttack(
        bw.world.dataset, bw.target.split.train, variant.factory, targets,
        campaign);
    const auto attacked = core::RunCampaign(
        bw.world.dataset, bw.target.split.train, variant.factory,
        [&](std::uint64_t) {
          return std::make_unique<core::TargetAttack>(bw.world.dataset, 0.4);
        },
        targets, campaign);
    run.Row({variant.name, Cell(clean, "hr20"), Cell(attacked, "hr20")});
  }
}

void DefenseDetectability(RecipeRun& run) {
  const data::SyntheticWorld world =
      data::GenerateSyntheticWorld(data::SyntheticConfig::SmallCross());
  util::Rng mf_rng(3);
  rec::MatrixFactorization mf;
  mf.Fit(world.dataset.target, 15, mf_rng);
  const defense::ProfileFeatureExtractor extractor(&world.dataset.target,
                                                   &mf.item_embeddings());

  util::Rng rng(7);
  const auto targets =
      data::SampleColdTargetItems(world.dataset, 25, 10, rng);
  const auto genuine = GenuineProfiles(world.dataset.target, 500, rng);

  // Fabricated shilling profiles: a target plus random filler.
  std::vector<data::Profile> fabricated;
  for (int i = 0; i < 300; ++i) {
    const data::ItemId target = targets[rng.UniformUint64(targets.size())];
    data::Profile fake = {target};
    while (fake.size() < 25) {
      const data::ItemId item = static_cast<data::ItemId>(
          rng.UniformUint64(world.dataset.target.num_items()));
      bool dup = false;
      for (const data::ItemId existing : fake) dup = dup || existing == item;
      if (!dup) fake.push_back(item);
    }
    fabricated.push_back(std::move(fake));
  }

  // Raw copied source profiles and CopyAttack-crafted windows of them.
  std::vector<data::Profile> copied_raw, crafted;
  for (const data::ItemId target : targets) {
    for (const data::UserId holder : world.dataset.SourceHolders(target)) {
      if (copied_raw.size() < 300) {
        copied_raw.push_back(world.dataset.source.UserProfile(holder));
        crafted.push_back(core::ClipProfileAroundTarget(
            world.dataset.source.UserProfile(holder), target, 0.4));
      }
    }
  }

  const auto genuine_features = ExtractAll(extractor, genuine, rng);
  defense::ZScoreDetector zscore;
  defense::KnnDetector knn(5);
  zscore.Fit(genuine_features);
  knn.Fit(genuine_features);
  const struct {
    const char* name;
    const std::vector<data::Profile>* profiles;
  } populations[] = {{"fabricated-shilling", &fabricated},
                     {"copied-raw", &copied_raw},
                     {"copyattack-crafted", &crafted}};
  for (const auto& population : populations) {
    const auto features = ExtractAll(extractor, *population.profiles, rng);
    const auto z = defense::EvaluateDetector(zscore, genuine_features,
                                             features);
    const auto k = defense::EvaluateDetector(knn, genuine_features, features);
    run.Row({population.name, F4(z.auc), F4(z.recall_at_fpr), F4(k.auc),
             F4(k.recall_at_fpr)});
  }
}

/// Arms-race campaign sizing per `--config`: `tiny` is the CI smoke
/// (seconds), `small` the real frontier.
struct RaceConfig {
  data::SyntheticConfig world = data::SyntheticConfig::SmallCross();
  std::size_t num_targets = 6;
  std::size_t budget = 30;
  std::size_t episodes = 6;
  std::size_t pretend_users = 20;
  std::size_t query_candidates = 50;
  std::size_t eval_users = 200;
  std::size_t eval_negatives = 50;
  std::size_t genuine_profiles = 300;
};

/// One strategy's campaign outcome: mean HR@20 over the targets plus every
/// profile it injected in the final (eval-mode) episodes.
struct StrategyOutcome {
  double hr20 = 0.0;
  std::vector<data::Profile> injected;
};

StrategyOutcome RunRaceStrategy(const BenchWorld& bw, const RaceConfig& race,
                                const core::StrategyFactory& factory,
                                const std::vector<data::ItemId>& targets) {
  StrategyOutcome outcome;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::uint64_t item_seed = 77 + 1000003ULL * t;
    core::EnvConfig env_config;
    env_config.budget = race.budget;
    env_config.num_pretend_users = race.pretend_users;
    env_config.query_candidates = race.query_candidates;
    env_config.seed = item_seed;
    const auto model = bw.target.Factory()();
    core::AttackEnvironment env(bw.world.dataset, bw.target.split.train,
                                model.get(), env_config);

    const auto strategy = factory(item_seed);
    strategy->BeginTargetItem(targets[t]);
    util::Rng episode_rng(item_seed ^ 0xBEEFCAFEULL);
    for (std::size_t episode = 0; episode < race.episodes; ++episode) {
      if (episode + 1 == race.episodes) strategy->SetEvalMode(true);
      env.Reset(targets[t]);
      strategy->RunEpisode(env, episode_rng);
    }
    outcome.hr20 += env.EvaluateRealPromotion({20}, race.eval_users,
                                              race.eval_negatives)
                        .at(20)
                        .hr;

    // The final episode's injected profiles: the polluted rows past the
    // training users and the attacker's pretend accounts.
    const data::Dataset& polluted = env.black_box().polluted();
    const std::size_t base =
        bw.target.split.train.num_users() + env.pretend_users().size();
    for (data::UserId u = static_cast<data::UserId>(base);
         u < polluted.num_users(); ++u) {
      outcome.injected.push_back(polluted.UserProfile(u));
    }
  }
  outcome.hr20 /= static_cast<double>(targets.size());
  return outcome;
}

void ArmsRaceFrontier(RecipeRun& run) {
  RaceConfig race;
  if (run.config() == "tiny") {
    race.world = data::SyntheticConfig::Tiny();
    race.num_targets = 3;
    race.budget = 6;
    race.episodes = 3;
    race.pretend_users = 10;
    race.eval_users = 100;
    race.genuine_profiles = 120;
  } else if (run.config() != "small") {
    return run.Fail("arms_race_frontier: --config must be tiny or small, "
                    "not " + run.config());
  }
  const BenchWorld bw = BuildBenchWorld(race.world, 3);

  // The defender's side: item embeddings it trained itself and genuine
  // profiles from its clean data.
  util::Rng mf_rng(3);
  rec::MatrixFactorization platform_mf;
  platform_mf.Fit(bw.world.dataset.target, 15, mf_rng);
  const defense::ProfileFeatureExtractor extractor(
      &bw.world.dataset.target, &platform_mf.item_embeddings());
  util::Rng rng(7);
  const auto genuine_features = ExtractAll(
      extractor,
      GenuineProfiles(bw.world.dataset.target, race.genuine_profiles, rng),
      rng);
  const auto targets = data::SampleColdTargetItems(
      bw.world.dataset, race.num_targets, 10, rng);
  if (targets.empty()) return run.Fail("arms_race_frontier: no cold targets");

  defense::ZScoreDetector zscore;
  defense::KnnDetector knn(5);
  zscore.Fit(genuine_features);
  knn.Fit(genuine_features);

  // CopyAttack and the zoo rows: surrogate transfer (arXiv:2008.04876)
  // and influence-guided injection (arXiv:2002.08025), which share one
  // trained surrogate.
  serve::SurrogateSlot surrogate;
  for (const char* method : {"CopyAttack", "SurrogateTransfer", "Influence"}) {
    const serve::StrategySpec spec = serve::MakeStrategyFactory(
        bw.world.dataset, bw.source, method, &surrogate);
    if (!spec.factory) return run.Fail(spec.error);
    const StrategyOutcome outcome =
        RunRaceStrategy(bw, race, spec.factory, targets);
    const auto injected = ExtractAll(extractor, outcome.injected, rng);

    // The adaptive detector trains on one half of the injected profiles;
    // every detector is scored on the other half, so the supervised one is
    // never evaluated on its own training rows.
    std::vector<defense::ProfileFeatures> fit_half, eval_half;
    for (std::size_t i = 0; i < injected.size(); ++i) {
      (i % 2 == 0 ? fit_half : eval_half).push_back(injected[i]);
    }
    if (fit_half.empty() || eval_half.empty()) {
      return run.Fail(std::string("arms_race_frontier: ") + method +
                      " injected too few profiles");
    }
    defense::AdaptiveDetector adaptive;
    adaptive.FitAdaptive(genuine_features, fit_half);
    const defense::AnomalyDetector* detectors[] = {&zscore, &knn, &adaptive};
    for (const defense::AnomalyDetector* detector : detectors) {
      const defense::DetectionReport report =
          defense::EvaluateDetector(*detector, genuine_features, eval_half);
      run.Row({method, detector->name(), F4(outcome.hr20), F4(report.auc),
               F4(report.recall_at_fpr),
               std::to_string(outcome.injected.size())});
    }
  }
}

void Extensions(RecipeRun& run) {
  const BenchWorld bw = BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  const data::CrossDomainDataset& dataset = bw.world.dataset;

  // Proxy targeting: cold target items with no source holders, promoted
  // through their most co-occurring overlapping item (core/proxy.h).
  std::vector<data::ItemId> orphans;
  for (data::ItemId item = 0; item < dataset.target.num_items(); ++item) {
    if (dataset.SourceHolders(item).empty() &&
        dataset.target.ItemPopularity(item) > 0 &&
        dataset.target.ItemPopularity(item) < 10) {
      orphans.push_back(item);
    }
    if (orphans.size() >= 20) break;
  }
  if (!orphans.empty()) {
    const core::CampaignConfig campaign = DefaultCampaign(909);
    core::CopyAttackConfig config;
    config.allow_proxy = true;
    const auto clean = core::EvaluateWithoutAttack(
        dataset, bw.target.split.train, bw.target.Factory(), orphans, campaign);
    const auto attacked = core::RunCampaign(
        dataset, bw.target.split.train, bw.target.Factory(),
        CopyAttackWith(bw, config), orphans, campaign);
    run.Row({"proxy-promotion", Cell(clean, "hr20"), Cell(attacked, "hr20")});
  }

  // Demotion: push popular items out of Top-k lists (reward 1 - HR@k).
  util::Rng rng(911);
  const auto popular =
      data::SampleTargetsByPopularityGroup(dataset, 10, 15, rng).at(0);
  core::CampaignConfig campaign = DefaultCampaign(912);
  campaign.env.goal = core::AttackGoal::kDemote;
  const auto clean = core::EvaluateWithoutAttack(
      dataset, bw.target.split.train, bw.target.Factory(), popular, campaign);
  const auto attacked = RunMethod(bw, "CopyAttack", popular, campaign);
  run.Row({"demotion", Cell(clean, "hr20"), Cell(attacked, "hr20")});
}

void QueryBudget(RecipeRun& run) {
  const BenchWorld bw = BuildBenchWorld(data::SyntheticConfig::SmallCross(), 3);
  const auto targets = ColdTargets(bw, 25);
  for (const std::size_t rounds : {1UL, 2UL, 4UL, 6UL, 10UL, 0UL}) {
    core::CampaignConfig campaign = DefaultCampaign(4242);
    campaign.env.max_query_rounds = rounds;  // 0 = unlimited
    run.Row({std::to_string(rounds)},
            RunMethod(bw, "CopyAttack", targets, campaign));
  }
}

}  // namespace

std::span<const Recipe> Recipes() {
  static const Recipe kRecipes[] = {
      {"table1_datasets", "Table 1: statistics of the two dataset pairs",
       {"dataset", "target_users", "target_items", "target_interactions",
        "source_users", "overlapping_items", "source_interactions"},
       Table1Datasets},
      {"target_quality",
       "§5.1.3: pre-attack target-model quality (paper HR@10 0.549/0.5474)",
       {"dataset", "epochs", "valid_hr10", "test_hr10", "test_ndcg10"},
       TargetQuality},
      {"table2_comparison",
       "Table 2: every method on both pairs, 50 cold targets, budget 30",
       {"dataset", "method", "hr20", "hr10", "hr5", "ndcg20", "ndcg10",
        "ndcg5", "items_per_profile", "wall_s"},
       Table2Comparison},
      {"fig3_tree_depth", "Figure 3: CopyAttack vs clustering-tree depth",
       {"dataset", "depth", "branching", "hr20", "ndcg20", "wall_s"},
       Fig3TreeDepth},
      {"fig4_popularity", "Figure 4: CopyAttack vs target-item popularity",
       {"dataset", "group", "mean_popularity", "hr20", "ndcg20"},
       Fig4Popularity},
      {"fig5_budget_small", "Figure 5: profile-budget sweep, small pair",
       {"dataset", "method", "budget", "hr20", "ndcg20"}, Fig5BudgetSmall},
      {"fig6_budget_large",
       "Figure 6: profile-budget sweep, large pair (the flat PolicyNetwork "
       "is omitted, as in the paper)",
       {"dataset", "method", "budget", "hr20", "ndcg20"}, Fig6BudgetLarge},
      {"policy_scaling",
       "§5.2: per-decision cost of the flat policy vs the tree walk as the "
       "source domain grows (timings)",
       {"users", "tree_us_per_decision", "flat_us_per_decision", "ratio"},
       PolicyScaling},
      {"reward_shaping",
       "ablation: Eq. (1) raw-HR reward vs delta shaping vs a GRU encoder",
       {"shaping", "hr20", "hr10", "hr5", "ndcg20", "final_reward"},
       RewardShaping},
      {"target_models",
       "ablation: TargetAttack40 per target model, frozen vs refit",
       {"target_model", "hr20_clean", "hr20_attacked"}, TargetModels},
      {"defense_detectability",
       "premise: detector AUC of fabricated vs copied vs crafted profiles",
       {"population", "zscore_auc", "zscore_recall_at_5fpr", "knn_auc",
        "knn_recall_at_5fpr"},
       DefenseDetectability},
      {"arms_race_frontier",
       "attack zoo x detector zoo: HR@20 vs detectability (--config "
       "tiny|small)",
       {"strategy", "detector", "hr20", "auc", "recall_at_5fpr", "profiles"},
       ArmsRaceFrontier},
      {"extensions", "§6 future work: proxy targeting and demotion",
       {"experiment", "hr20_before", "hr20_after"}, Extensions},
      {"query_budget", "CopyAttack under a capped number of query rounds",
       {"max_query_rounds", "hr20", "ndcg20", "profiles_injected"},
       QueryBudget},
  };
  return kRecipes;
}

const Recipe* FindRecipe(const std::string& name) {
  for (const Recipe& recipe : Recipes()) {
    if (name == recipe.name) return &recipe;
  }
  return nullptr;
}

int RunRecipe(const Recipe& recipe, const std::string& config,
              std::ostream& out) {
  ::mkdir("bench_results", 0755);  // ignore EEXIST
  const std::string path = std::string("bench_results/") + recipe.name +
                           ".csv";
  // Rows go to a side file that replaces `path` only on success, so a
  // failed run never clobbers a committed CSV.
  const std::string partial = path + ".partial";
  obs::Stopwatch watch;
  std::string error;
  std::size_t rows = 0;
  {
    RecipeRun run(partial, recipe.columns, config, out);
    if (run.csv_ok()) {
      recipe.run(run);
      error = run.error();
      rows = run.rows();
    } else {
      error = "could not write " + partial;
    }
  }
  if (error.empty() && std::rename(partial.c_str(), path.c_str()) != 0) {
    error = "could not write " + path;
  }
  if (!error.empty()) {
    std::remove(partial.c_str());
    out << "error: " << error << '\n';
    return 1;
  }
  out << "recipe " << recipe.name << ": " << rows << " rows in "
      << util::FormatDouble(watch.ElapsedSeconds(), 1) << "s -> " << path
      << '\n';
  return 0;
}

}  // namespace copyattack::bench

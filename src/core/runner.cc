#include "core/runner.h"

#include <memory>
#include <sstream>

#include "core/parallel_runner.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace copyattack::core {

SourceArtifacts PrepareSourceArtifacts(
    const data::CrossDomainDataset& dataset,
    const SourceArtifactOptions& options) {
  util::Rng rng(options.seed);
  rec::MfConfig mf_config;
  mf_config.embedding_dim = options.embedding_dim;
  rec::MatrixFactorization mf(mf_config);
  mf.Fit(dataset.source, options.mf_epochs, rng);

  util::Rng tree_rng(options.seed ^ 0x1234567ULL);
  cluster::HierarchicalTree tree = cluster::HierarchicalTree::BuildWithDepth(
      mf.user_embeddings(), options.tree_depth, tree_rng);
  CA_LOG(Info) << "source artifacts: " << dataset.source.num_users()
               << " users, tree depth " << tree.depth() << ", branching "
               << tree.branching() << ", " << tree.num_internal_nodes()
               << " policy nodes";
  return SourceArtifacts{std::move(mf), std::move(tree)};
}

ModelFactory TargetModel::Factory() const {
  return [this] { return std::make_unique<rec::PinSageLite>(model); };
}

TargetModel TrainTargetModel(const data::Dataset& target,
                             const TargetModelOptions& options) {
  util::Rng split_rng(options.split_seed);
  TargetModel trained{data::SplitDataset(target, split_rng),
                      rec::PinSageLite(), {}};
  util::Rng train_rng(options.train_seed);
  trained.report = rec::TrainWithEarlyStopping(
      trained.model, trained.split, target, options.train, train_rng);
  CA_LOG(Info) << "target model trained: " << trained.report.epochs_run
               << " epochs, test HR@10 = " << trained.report.test_hr;
  return trained;
}

World PrepareWorld(const data::CrossDomainDataset& dataset,
                   const WorldOptions& options) {
  return World{TrainTargetModel(dataset.target, options.target),
               PrepareSourceArtifacts(dataset, options.source)};
}

namespace {

/// The "Without Attack" reference strategy: plays no action, so the
/// measured state is the clean model serving the pretend users.
class WithoutAttack final : public AttackStrategy {
 public:
  std::string name() const override { return "WithoutAttack"; }
  void BeginTargetItem(data::ItemId /*target_item*/) override {}
  double RunEpisode(AttackEnvironment& /*env*/, util::Rng& /*rng*/) override {
    return 0.0;
  }
};

}  // namespace

CampaignResult EvaluateWithoutAttack(
    const data::CrossDomainDataset& dataset,
    const data::Dataset& target_train, const ModelFactory& model_factory,
    const std::vector<data::ItemId>& targets,
    const CampaignConfig& config) {
  CampaignConfig reference = config;
  reference.episodes = 1;
  reference.checkpoint = CampaignCheckpointOptions{};
  return RunCampaign(
      dataset, target_train, model_factory,
      [](std::uint64_t) { return std::make_unique<WithoutAttack>(); },
      targets, reference);
}

CampaignResult RunCampaign(const data::CrossDomainDataset& dataset,
                           const data::Dataset& target_train,
                           const ModelFactory& model_factory,
                           const StrategyFactory& strategy_factory,
                           const std::vector<data::ItemId>& targets,
                           const CampaignConfig& config) {
  ParallelRunnerOptions options;
  options.jobs = config.num_threads;
  options.checkpoint = config.checkpoint;
  return ParallelCampaignRunner(dataset, target_train, model_factory,
                                strategy_factory, options)
      .Run(targets, config)
      .aggregate;
}

std::string CampaignRowHeader() {
  std::ostringstream out;
  out << "Method              HR@20   HR@10   HR@5    NDCG@20 NDCG@10 "
         "NDCG@5  Items/Prof  Wall(s)";
  return out.str();
}

std::string FormatCampaignRow(const CampaignResult& result) {
  std::ostringstream out;
  out << result.method;
  // Long attack-server job labels (id:method) overflow the 20-column
  // budget; keep at least two spaces so the row stays parseable.
  for (std::size_t i = result.method.size(); i < 20; ++i) out << ' ';
  if (result.method.size() >= 20) out << "  ";
  const std::size_t ks[] = {20, 10, 5};
  for (const std::size_t k : ks) {
    const auto it = result.metrics.find(k);
    out << util::FormatDouble(it != result.metrics.end() ? it->second.hr
                                                         : 0.0,
                              4)
        << "  ";
  }
  for (const std::size_t k : ks) {
    const auto it = result.metrics.find(k);
    out << util::FormatDouble(it != result.metrics.end() ? it->second.ndcg
                                                         : 0.0,
                              4)
        << "  ";
  }
  out << util::FormatDouble(result.avg_items_per_profile, 1) << "        ";
  out << util::FormatDouble(result.wall_seconds, 1);
  return out.str();
}

}  // namespace copyattack::core

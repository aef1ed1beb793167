// Ablation: which target models are attackable through which channel.
//
// The paper attacks an *inductive* GNN recommender (PinSage): injected
// profiles change item representations at serving time without retraining.
// A purely transductive target (plain MF) has no such channel — it only
// becomes attackable when the platform periodically retrains on the
// polluted data. This bench runs TargetAttack40 against three targets:
//
//   1. PinSageLite, inductive serving (the paper's setting),
//   2. MF, frozen (no retraining)            -> attack should do nothing,
//   3. MF, fine-tuned at every query round   -> attack works again,
//   4. ItemKNN, frozen                        -> no channel,
//   5. ItemKNN, rebuilt at every query round  -> the classic shilling
//      surface (injected co-occurrences enter the similarity lists).

#include <cstdio>
#include <memory>

#include "core/baselines.h"
#include "data/target_items.h"
#include "obs/time.h"
#include "rec/item_knn.h"
#include "rec/matrix_factorization.h"
#include "rec/trainer.h"
#include "util/csv.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;
  std::printf("=== Ablation: inductive vs transductive target model ===\n");

  const data::SyntheticConfig config = data::SyntheticConfig::SmallCross();
  const bench::BenchWorld bw = bench::BuildBenchWorld(config, 3);

  // Trained MF and ItemKNN targets for the transductive variants.
  rec::MatrixFactorization mf_prototype;
  rec::TrainOptions train_options;
  util::Rng mf_rng(31);
  const auto mf_report = rec::TrainWithEarlyStopping(
      mf_prototype, bw.split, bw.world.dataset.target, train_options,
      mf_rng);
  rec::ItemKnn knn_prototype;
  util::Rng knn_rng(37);
  knn_prototype.Fit(bw.split.train, 1, knn_rng);
  std::printf("MF target test HR@10 = %s (PinSageLite: %s)\n",
              bench::F4(mf_report.test_hr).c_str(),
              bench::F4(bw.train_report.test_hr).c_str());

  util::Rng target_rng(1789);
  const auto targets =
      data::SampleColdTargetItems(bw.world.dataset, 25, 10, target_rng);

  util::CsvWriter csv(bench::ResultPath("target_models.csv"),
                      {"target_model", "hr20_clean", "hr20_attacked"});

  struct Variant {
    const char* name;
    core::ModelFactory factory;
    bool refit;
  };
  const Variant variants[] = {
      {"PinSage-inductive",
       [&] { return std::make_unique<rec::PinSageLite>(bw.model); }, false},
      {"MF-frozen",
       [&] { return std::make_unique<rec::MatrixFactorization>(mf_prototype); },
       false},
      {"MF-refit-on-query",
       [&] { return std::make_unique<rec::MatrixFactorization>(mf_prototype); },
       true},
      {"ItemKNN-frozen",
       [&] { return std::make_unique<rec::ItemKnn>(knn_prototype); },
       false},
      {"ItemKNN-refit",
       [&] { return std::make_unique<rec::ItemKnn>(knn_prototype); },
       true},
  };

  std::printf("\n%-20s clean-HR@20  attacked-HR@20  lift\n", "target");
  for (const Variant& variant : variants) {
    core::CampaignConfig campaign = bench::DefaultCampaign(4242);
    campaign.episodes = 1;
    campaign.env.refit_on_query = variant.refit;
    campaign.env.refit_epochs = 1;

    const auto clean = core::EvaluateWithoutAttack(
        bw.world.dataset, bw.split.train, variant.factory, targets,
        campaign);
    const auto attacked = core::RunCampaign(
        bw.world.dataset, bw.split.train, variant.factory,
        [&](std::uint64_t) {
          return std::make_unique<core::TargetAttack>(bw.world.dataset, 0.4);
        },
        targets, campaign);

    std::printf("%-20s %s       %s          %+0.4f\n", variant.name,
                bench::F4(clean.metrics.at(20).hr).c_str(),
                bench::F4(attacked.metrics.at(20).hr).c_str(),
                attacked.metrics.at(20).hr - clean.metrics.at(20).hr);
    csv.WriteRow({variant.name, bench::F4(clean.metrics.at(20).hr),
                  bench::F4(attacked.metrics.at(20).hr)});
  }
  csv.Flush();
  std::printf("\n[target_models] done in %.1fs; CSV: "
              "bench_results/target_models.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

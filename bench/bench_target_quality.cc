// Reproduces the pre-attack target-model quality the paper reports in
// §5.1.3: "the final performance on testing datasets is 0.549 with HR@10
// metrics for ML-10M dataset, and 0.5474 for ML-20M" — i.e. the black-box
// PinSage-style recommender must be a *competent* model before it is
// attacked. This bench trains the target model on both synthetic pairs
// with the paper's protocol (80/10/10 split, early stopping on validation
// HR@10) and reports test HR@10 / NDCG@10.

#include <cstdio>

#include "obs/time.h"
#include "rec/evaluator.h"
#include "util/csv.h"

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace copyattack;
  const bench::TelemetryScope telemetry(argc, argv);
  obs::Stopwatch watch;

  std::printf("=== Pre-attack target model quality (paper §5.1.3) ===\n\n");
  std::printf("paper: HR@10 = 0.549 (ML10M), 0.5474 (ML20M)\n\n");
  util::CsvWriter csv(bench::ResultPath("target_quality.csv"),
                      {"dataset", "epochs", "valid_hr10", "test_hr10",
                       "test_ndcg10"});

  const struct {
    data::SyntheticConfig config;
    std::size_t tree_depth;
  } setups[] = {{data::SyntheticConfig::SmallCross(), 3},
                {data::SyntheticConfig::LargeCross(), 6}};

  for (const auto& setup : setups) {
    const bench::BenchWorld bw =
        bench::BuildBenchWorld(setup.config, setup.tree_depth);
    std::printf("%-30s  epochs=%-3zu  valid HR@10=%s  test HR@10=%s  "
                "test NDCG@10=%s\n",
                setup.config.name.c_str(), bw.train_report.epochs_run,
                bench::F4(bw.train_report.best_valid_hr).c_str(),
                bench::F4(bw.train_report.test_hr).c_str(),
                bench::F4(bw.train_report.test_ndcg).c_str());
    csv.WriteRow({setup.config.name,
                  std::to_string(bw.train_report.epochs_run),
                  bench::F4(bw.train_report.best_valid_hr),
                  bench::F4(bw.train_report.test_hr),
                  bench::F4(bw.train_report.test_ndcg)});
  }
  csv.Flush();
  std::printf("\n[target_quality] done in %.1fs; CSV: "
              "bench_results/target_quality.csv\n",
              watch.ElapsedSeconds());
  return 0;
}

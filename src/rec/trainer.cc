#include "rec/trainer.h"

#include <cstdint>

#include "obs/obs.h"
#include "rec/evaluator.h"
#include "util/logging.h"

namespace copyattack::rec {

namespace {

constexpr std::size_t kEvalK = 10;  ///< HR@k monitored on validation
constexpr std::size_t kNumNegatives = 100;
constexpr std::uint64_t kEvalSeed = 99;  ///< fixed negatives across epochs

}  // namespace

TrainReport TrainWithEarlyStopping(Recommender& model,
                                   const data::TrainValidTestSplit& split,
                                   const data::Dataset& full,
                                   const TrainOptions& options,
                                   util::Rng& rng) {
  TrainReport report;
  model.InitTraining(split.train, rng);

  {
    // The validation negatives depend only on the split and kEvalSeed, so
    // they are drawn once and every epoch ranks against the same lists.
    util::Rng valid_rng(kEvalSeed);
    const std::vector<std::vector<data::ItemId>> valid_negatives =
        SampleHeldOutNegatives(full, split.valid, kNumNegatives,
                               valid_rng);

    std::size_t epochs_since_best = 0;
    for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
      {
        OBS_SPAN("rec.train_epoch");
        OBS_SCOPED_TIMER_US("rec.train_epoch_us");
        model.TrainEpoch(split.train, rng);
      }
      OBS_COUNTER_INC("rec.train_epochs");
      report.epochs_run = epoch + 1;

      model.BeginServing(split.train);
      const MetricsByK valid = EvaluateHeldOut(model, split.valid,
                                               valid_negatives,
                                               {kEvalK});
      const double hr = valid.at(kEvalK).hr;
      if (hr > report.best_valid_hr) {
        report.best_valid_hr = hr;
        epochs_since_best = 0;
      } else {
        ++epochs_since_best;
      }
      CA_LOG(Debug) << model.name() << " epoch " << (epoch + 1)
                    << " valid HR@" << kEvalK << " = " << hr;
      if (epochs_since_best >= options.patience) break;
    }
  }  // frees the validation negatives before the test split draws its own

  model.BeginServing(split.train);
  util::Rng eval_rng(kEvalSeed + 1);
  const MetricsByK test =
      EvaluateHeldOut(model, full, split.test, {kEvalK},
                      kNumNegatives, eval_rng);
  report.test_hr = test.at(kEvalK).hr;
  report.test_ndcg = test.at(kEvalK).ndcg;
  return report;
}

}  // namespace copyattack::rec

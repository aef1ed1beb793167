#ifndef COPYATTACK_REC_TRAINER_H_
#define COPYATTACK_REC_TRAINER_H_

#include <cstddef>

#include "data/split.h"
#include "rec/recommender.h"

namespace copyattack::rec {

/// Options of the early-stopping training loop (paper §5.1.3: stop when
/// validation HR@10 has not improved for 5 successive evaluations).
struct TrainOptions {
  std::size_t max_epochs = 60;
  std::size_t patience = 5;
};

/// Outcome of training.
struct TrainReport {
  std::size_t epochs_run = 0;
  double best_valid_hr = 0.0;
  double test_hr = 0.0;
  double test_ndcg = 0.0;
};

/// Trains `model` on `split.train` with early stopping on validation
/// HR@10 over 100 sampled negatives, then reports test HR/NDCG@10. `full` is the unsplit dataset used
/// to filter negative samples. Leaves the model in serving state over
/// `split.train`.
TrainReport TrainWithEarlyStopping(Recommender& model,
                                   const data::TrainValidTestSplit& split,
                                   const data::Dataset& full,
                                   const TrainOptions& options,
                                   util::Rng& rng);

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_TRAINER_H_

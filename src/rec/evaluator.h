#ifndef COPYATTACK_REC_EVALUATOR_H_
#define COPYATTACK_REC_EVALUATOR_H_

#include <map>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "rec/recommender.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace copyattack::rec {

/// Averaged ranking metrics at one cutoff.
struct TopKMetrics CA_CHECKPOINTED(WriteMetrics, ReadMetrics) {
  double hr = 0.0;
  double ndcg = 0.0;
  std::size_t count = 0;  ///< evaluation pairs aggregated

  void Accumulate(double hit, double gain) {
    hr += hit;
    ndcg += gain;
    ++count;
  }
  void Finalize() {
    if (count > 0) {
      hr /= static_cast<double>(count);
      ndcg /= static_cast<double>(count);
    }
  }
};

/// Metrics keyed by cutoff k.
using MetricsByK = std::map<std::size_t, TopKMetrics>;

/// Samples `count` negative items for `user`: items the user never
/// interacted with in `filter` and different from `held_out`. Deterministic
/// in `rng`.
std::vector<data::ItemId> SampleNegatives(const data::Dataset& filter,
                                          data::UserId user,
                                          data::ItemId held_out,
                                          std::size_t count,
                                          util::Rng& rng);

/// Evaluates held-out (user, item) pairs using the paper's protocol
/// (§5.1.2): rank the test item among `num_negatives` sampled items the
/// user did not interact with; report HR@k and NDCG@k for each k in `ks`.
/// `filter` is the dataset whose interactions define "already seen"
/// (normally the full, unsplit dataset).
MetricsByK EvaluateHeldOut(const Recommender& model,
                           const data::Dataset& filter,
                           const std::vector<data::HeldOut>& pairs,
                           const std::vector<std::size_t>& ks,
                           std::size_t num_negatives, util::Rng& rng);

/// The negatives `EvaluateHeldOut` would draw from `rng`: entry `i` holds
/// those of `pairs[i]`, sampled in pair order, so the rng ends where the
/// drawing form of `EvaluateHeldOut` leaves it.
std::vector<std::vector<data::ItemId>> SampleHeldOutNegatives(
    const data::Dataset& filter, const std::vector<data::HeldOut>& pairs,
    std::size_t num_negatives, util::Rng& rng);

/// `EvaluateHeldOut` over pre-drawn negatives (`negatives[i]` belongs to
/// `pairs[i]`, as `SampleHeldOutNegatives` returns them): the same metrics
/// as the drawing form for the same draws. Lets a caller that evaluates
/// one split many times (early stopping) draw its negatives once.
MetricsByK EvaluateHeldOut(
    const Recommender& model, const std::vector<data::HeldOut>& pairs,
    const std::vector<std::vector<data::ItemId>>& negatives,
    const std::vector<std::size_t>& ks);

/// Evaluates the promotion of `target_item` over `users` (paper §3: does
/// the target item appear in each user's Top-k?). Users who already
/// interacted with the target item are skipped. The candidate set per user
/// is the target item plus `num_negatives` sampled unseen items.
MetricsByK EvaluatePromotion(const Recommender& model,
                             const data::Dataset& filter,
                             data::ItemId target_item,
                             const std::vector<data::UserId>& users,
                             const std::vector<std::size_t>& ks,
                             std::size_t num_negatives, util::Rng& rng);

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_EVALUATOR_H_

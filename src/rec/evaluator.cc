#include "rec/evaluator.h"

#include "math/metrics.h"
#include "math/top_k.h"
#include "util/check.h"

namespace copyattack::rec {

std::vector<data::ItemId> SampleNegatives(const data::Dataset& filter,
                                          data::UserId user,
                                          data::ItemId held_out,
                                          std::size_t count,
                                          util::Rng& rng) {
  const std::size_t num_items = filter.num_items();
  std::vector<data::ItemId> negatives;
  negatives.reserve(count);
  std::vector<bool> taken(num_items, false);
  // Rejection sampling; evaluation profiles are short relative to the item
  // universe, so this converges quickly. A linear fallback guarantees
  // termination in degenerate cases.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 50 * count + 100;
  while (negatives.size() < count && attempts < max_attempts) {
    ++attempts;
    const data::ItemId candidate =
        static_cast<data::ItemId>(rng.UniformUint64(num_items));
    if (candidate == held_out || taken[candidate]) continue;
    if (user < filter.num_users() &&
        filter.HasInteraction(user, candidate)) {
      continue;
    }
    taken[candidate] = true;
    negatives.push_back(candidate);
  }
  if (negatives.size() < count) {
    for (data::ItemId candidate = 0;
         candidate < num_items && negatives.size() < count; ++candidate) {
      if (candidate == held_out || taken[candidate]) continue;
      if (user < filter.num_users() &&
          filter.HasInteraction(user, candidate)) {
        continue;
      }
      negatives.push_back(candidate);
    }
  }
  return negatives;
}

namespace {

/// Ranks `probe` among `probe + negatives` under `model` and accumulates
/// HR/NDCG at every cutoff.
void AccumulateRanked(const Recommender& model, data::UserId user,
                      data::ItemId probe,
                      const std::vector<data::ItemId>& negatives,
                      const std::vector<std::size_t>& ks,
                      MetricsByK& metrics) {
  std::vector<data::ItemId> candidates;
  candidates.reserve(negatives.size() + 1);
  candidates.push_back(probe);
  candidates.insert(candidates.end(), negatives.begin(), negatives.end());
  const std::vector<float> scores = model.ScoreCandidates(user, candidates);
  const std::size_t rank = math::RankOf(scores, 0);
  for (const std::size_t k : ks) {
    metrics[k].Accumulate(math::HitRatioAtK(rank, k),
                          math::NdcgAtK(rank, k));
  }
}

void FinalizeAll(MetricsByK& metrics) {
  for (auto& [k, m] : metrics) {
    (void)k;
    m.Finalize();
  }
}

}  // namespace

std::vector<std::vector<data::ItemId>> SampleHeldOutNegatives(
    const data::Dataset& filter, const std::vector<data::HeldOut>& pairs,
    std::size_t num_negatives, util::Rng& rng) {
  std::vector<std::vector<data::ItemId>> negatives;
  negatives.reserve(pairs.size());
  for (const data::HeldOut& pair : pairs) {
    negatives.push_back(
        SampleNegatives(filter, pair.user, pair.item, num_negatives, rng));
  }
  return negatives;
}

MetricsByK EvaluateHeldOut(
    const Recommender& model, const std::vector<data::HeldOut>& pairs,
    const std::vector<std::vector<data::ItemId>>& negatives,
    const std::vector<std::size_t>& ks) {
  CA_CHECK(!ks.empty());
  CA_CHECK_EQ(negatives.size(), pairs.size());
  MetricsByK metrics;
  for (const std::size_t k : ks) metrics[k] = TopKMetrics();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    AccumulateRanked(model, pairs[i].user, pairs[i].item, negatives[i], ks,
                     metrics);
  }
  FinalizeAll(metrics);
  return metrics;
}

MetricsByK EvaluateHeldOut(const Recommender& model,
                           const data::Dataset& filter,
                           const std::vector<data::HeldOut>& pairs,
                           const std::vector<std::size_t>& ks,
                           std::size_t num_negatives, util::Rng& rng) {
  // Scoring draws nothing, so drawing every pair's negatives up front
  // consumes the rng exactly as drawing them pair by pair would.
  return EvaluateHeldOut(
      model, pairs, SampleHeldOutNegatives(filter, pairs, num_negatives, rng),
      ks);
}

MetricsByK EvaluatePromotion(const Recommender& model,
                             const data::Dataset& filter,
                             data::ItemId target_item,
                             const std::vector<data::UserId>& users,
                             const std::vector<std::size_t>& ks,
                             std::size_t num_negatives, util::Rng& rng) {
  CA_CHECK(!ks.empty());
  MetricsByK metrics;
  for (const std::size_t k : ks) metrics[k] = TopKMetrics();
  for (const data::UserId user : users) {
    if (user < filter.num_users() &&
        filter.HasInteraction(user, target_item)) {
      continue;  // Promotion only counts users who have not seen the item.
    }
    const auto negatives =
        SampleNegatives(filter, user, target_item, num_negatives, rng);
    AccumulateRanked(model, user, target_item, negatives, ks, metrics);
  }
  FinalizeAll(metrics);
  return metrics;
}

}  // namespace copyattack::rec

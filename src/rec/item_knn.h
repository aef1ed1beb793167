#ifndef COPYATTACK_REC_ITEM_KNN_H_
#define COPYATTACK_REC_ITEM_KNN_H_

#include <string>
#include <vector>

#include "rec/recommender.h"

namespace copyattack::rec {

/// Classic item-based collaborative filtering (Sarwar et al. 2001): item-
/// item cosine similarity over co-occurrence counts, truncated to the top
/// 30 neighbors per item; a user's score for an item is the summed
/// similarity to the items in their profile.
///
/// In this repo ItemKNN is a *third target-model family* for the
/// channel ablation (`copyattack recipe target_models`): its similarity
/// lists are frozen at training time, so — like frozen MF — it has no
/// inductive injection channel, but unlike MF a retraining pass directly
/// ingests the injected co-occurrences (the classic shilling-attack
/// surface the pre-deep-learning literature studied).
///
/// There are no gradient epochs; `TrainEpoch` (re)builds the similarity
/// lists from the current dataset, which is also what a platform's
/// periodic retrain does in the refit-on-query environment.
class ItemKnn final : public Recommender {
 public:
  void InitTraining(const data::Dataset& train, util::Rng& rng) override;
  void TrainEpoch(const data::Dataset& train, util::Rng& rng) override;
  void BeginServing(const data::Dataset& current) override;
  void ObserveNewUser(const data::Dataset& current,
                      data::UserId user) override;
  bool CheckpointServing() override;
  bool RollbackServing() override;
  float Score(data::UserId user, data::ItemId item) const override;
  std::string name() const override { return "ItemKNN"; }

  /// The truncated similarity list of `item` (pairs of neighbor id and
  /// similarity, best first). Exposed for tests.
  const std::vector<std::pair<data::ItemId, float>>& Neighbors(
      data::ItemId item) const;

 private:
  /// Per item: top-N (neighbor, similarity), sorted descending.
  std::vector<std::vector<std::pair<data::ItemId, float>>> neighbors_;
  /// Serving users' profiles (borrowed copies for scoring).
  const data::Dataset* serving_ = nullptr;
  /// True while the similarity lists are unchanged since the last
  /// CheckpointServing (scoring state itself lives in the dataset).
  bool serving_checkpoint_valid_ = false;
};

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_ITEM_KNN_H_

#ifndef COPYATTACK_REC_PINSAGE_LITE_H_
#define COPYATTACK_REC_PINSAGE_LITE_H_

#include <string>
#include <vector>

#include "math/matrix.h"
#include "rec/recommender.h"
#include "util/annotations.h"

namespace copyattack::rec {

/// A graph-aggregation recommender standing in for PinSage (Ying et al.,
/// KDD'18), the paper's black-box target model (§5.1.3).
///
/// Like PinSage, representations are produced *inductively* by aggregating
/// local neighbors on the user-item bipartite graph:
///   p_u = mean_{i in P_u} q_i                      (user from items)
///   z_i = alpha q_i + (1-alpha) mean_{u in P_i} p_u (item from users)
///   score(u, i) = <p_u, z_i>
/// where the q_i are item embeddings trained with the BPR loss.
///
/// Because z_i is recomputed from the *current* interaction graph, an
/// injected user immediately shifts the representation of every item in
/// its profile — the exact mechanism that makes an inductive GNN
/// recommender attackable by profile injection without any retraining.
/// Serving-state updates are incremental (running sums per item), so a
/// black-box query costs O(dim) per candidate.
class PinSageLite final : public Recommender {
 public:
  /// Training hyper-parameters (paper §5.1.3: embedding size 8, Gaussian
  /// initialization).
  static constexpr std::size_t kEmbeddingDim = 8;
  static constexpr float kLearningRate = 0.05f;
  static constexpr float kRegularization = 0.005f;
  static constexpr float kInitStddev = 0.1f;

  void InitTraining(const data::Dataset& train, util::Rng& rng) override;
  /// One BPR step per training interaction on the item embeddings q, the
  /// user side being the profile mean without the positive item. The
  /// draws run on a producer thread started for this call
  /// (`ForEachBprTriple`, rec/bpr_draws.h), which owns `rng` until it is
  /// joined; this thread applies the updates in draw order, so the
  /// embeddings and the final `rng` state equal a sequential loop's.
  void TrainEpoch(const data::Dataset& train, util::Rng& rng) override;
  void BeginServing(const data::Dataset& current) override;
  void ObserveNewUser(const data::Dataset& current,
                      data::UserId user) override;
  bool CheckpointServing() override;
  bool RollbackServing() override;
  float Score(data::UserId user, data::ItemId item) const override;
  /// Row loop over `Score`: checks the user and loads p_u once, then
  /// scores each candidate through the same `ScoreItem` as `Score`, so
  /// every entry equals `Score(user, candidates[i])` bit for bit.
  void ScoreCandidatesInto(data::UserId user,
                           const std::vector<data::ItemId>& candidates,
                           float* out) const override;
  std::string name() const override { return "PinSageLite"; }

  /// Trained item embeddings q (exposed for diagnostics and tests).
  const math::Matrix& item_embeddings() const { return items_; }

  /// Serving-time item representation z_i, materialized into `out`
  /// (size = embedding_dim).
  void ItemRepresentation(data::ItemId item, std::vector<float>* out) const;

  std::size_t embedding_dim() const { return kEmbeddingDim; }

 private:
  /// Profile-mean of item embeddings, before centering/normalization.
  void ComputeRawUserAggregate(const data::Dataset& current,
                               data::UserId user, float* out) const;

  void ComputeUserRepresentation(const data::Dataset& current,
                                 data::UserId user, float* out) const;

  /// Score of `item` for the user whose representation is `p`:
  /// alpha * <p, q_i> + w_i * <p, S_i> + intercept_i. Unchecked; `Score`
  /// and `ScoreCandidatesInto` check the ids and share this expression.
  float ScoreItem(const float* p, data::ItemId item) const;

  /// Recomputes `item`'s cached neighbour weight from its user count.
  void UpdateNeighborWeight(data::ItemId item);

  math::Matrix items_;        // q: num_items x dim (trained)
  std::vector<float> item_intercept_;       // frozen at InitTraining
  std::vector<float> mean_user_aggregate_;  // frozen at first BeginServing
  bool mean_frozen_ = false;
  math::Matrix user_reps_;    // p: num_serving_users x dim
  math::Matrix item_user_sum_;  // per item: sum of p over interacting users
  std::vector<std::size_t> item_user_count_;
  /// Per item: (1 - alpha) / count^e, the neighbourhood term's weight
  /// (0 when no user holds the item). Kept in step with item_user_count_
  /// so a score does not pay a pow().
  std::vector<float> item_neighbor_weight_ CA_NOT_CHECKPOINTED(
      "derived from item_user_count_, recomputed wherever it changes");

  /// Serving-state checkpoint (CheckpointServing/RollbackServing): a copy
  /// of the neighborhood accumulators plus a journal of items touched by
  /// ObserveNewUser since, so rollback restores exactly the touched rows.
  struct ServingCheckpoint CA_CHECKPOINTED(PinSageLite::CheckpointServing,
                                           PinSageLite::RollbackServing) {
    bool valid = false;
    std::size_t user_rows = 0;
    std::vector<data::ItemId> touched;
    math::Matrix item_user_sum;
    std::vector<std::size_t> item_user_count;
  };
  ServingCheckpoint serving_ckpt_;
};

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_PINSAGE_LITE_H_

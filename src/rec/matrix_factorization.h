#ifndef COPYATTACK_REC_MATRIX_FACTORIZATION_H_
#define COPYATTACK_REC_MATRIX_FACTORIZATION_H_

#include <string>

#include "math/matrix.h"
#include "rec/recommender.h"

namespace copyattack::rec {

/// Hyper-parameters of the BPR matrix-factorization model.
struct MfConfig {
  std::size_t embedding_dim = 8;  ///< paper uses embedding size 8
};

/// Matrix factorization (Koren et al.) trained with the BPR pairwise loss
/// on implicit feedback.
///
/// In CopyAttack this model plays two roles:
///  * pre-training the source-domain user/item embeddings that feed the
///    hierarchical clustering tree and the policy-network states (paper
///    §4.3.1: "user representations learned via matrix factorization");
///  * an alternative (transductive) target model for the inductive-vs-refit
///    ablation: a pure MF target only reacts to injections when the
///    platform periodically retrains, unlike the inductive PinSage-style
///    model.
///
/// Users appended after training are folded in as the mean of their
/// profile's item embeddings (standard fold-in).
class MatrixFactorization final : public Recommender {
 public:
  /// SGD step, L2 penalty and Gaussian initialization (per the paper).
  static constexpr float kLearningRate = 0.05f;
  static constexpr float kRegularization = 0.01f;
  static constexpr float kInitStddev = 0.1f;

  explicit MatrixFactorization(const MfConfig& config = MfConfig());

  void InitTraining(const data::Dataset& train, util::Rng& rng) override;
  /// One BPR step per training interaction. The (user, positive,
  /// negative) draws run on a producer thread started for this call
  /// (`ForEachBprTriple`, rec/bpr_draws.h), which owns `rng` until it is
  /// joined; this thread applies the SGD updates in draw order, so the
  /// embeddings and the final `rng` state equal a sequential loop's.
  void TrainEpoch(const data::Dataset& train, util::Rng& rng) override;
  void BeginServing(const data::Dataset& current) override;
  void ObserveNewUser(const data::Dataset& current,
                      data::UserId user) override;
  bool CheckpointServing() override;
  bool RollbackServing() override;
  float Score(data::UserId user, data::ItemId item) const override;
  std::string name() const override { return "MF-BPR"; }

  /// Learned user embeddings (rows = users seen at training time).
  const math::Matrix& user_embeddings() const { return users_; }

  /// Learned item embeddings (rows = the full item universe).
  const math::Matrix& item_embeddings() const { return items_; }

  std::size_t embedding_dim() const { return config_.embedding_dim; }

 private:
  /// Computes the fold-in embedding (profile mean of item embeddings).
  void FoldInUser(const data::Dataset& current, data::UserId user);

  MfConfig config_;
  std::size_t trained_users_ = 0;
  math::Matrix users_;    // serving users (trained + folded-in)
  math::Matrix items_;    // num_items x dim
  /// Serving-state checkpoint: the row count to truncate back to.
  /// Invalidated by any training (fold-ins depend on the item embeddings).
  std::size_t serving_checkpoint_rows_ = 0;
  bool serving_checkpoint_valid_ = false;
};

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_MATRIX_FACTORIZATION_H_

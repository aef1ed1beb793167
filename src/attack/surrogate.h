#ifndef COPYATTACK_ATTACK_SURROGATE_H_
#define COPYATTACK_ATTACK_SURROGATE_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/types.h"
#include "math/matrix.h"
#include "rec/matrix_factorization.h"

namespace copyattack::attack {

/// The attacker's local stand-in for the black-box target recommender
/// (arXiv:2008.04876's "surrogate then transfer" setup): a BPR matrix
/// factorization fitted on the target-domain interactions the attacker can
/// scrape from the platform. Strategies craft or rank profiles against
/// this model and only spend real oracle queries on the transfer.
///
/// Read-only after construction; one instance is shared by every
/// per-target strategy the factory creates.
///
/// The surrogate is trained from a fixed seed, so every copy built from
/// one dataset is the identical model: every shard of a sharded campaign,
/// every resume of a checkpointed one and every job of an attack server
/// (which trains it once and shares it, `serve::SurrogateSlot`) see the
/// same surrogate. Attack outcomes stay bit-identical across shard
/// counts, kill-and-resume and whichever job trained it, without the
/// surrogate ever being part of a checkpoint.
class TargetSurrogate {
 public:
  /// BPR epochs over the observable interactions. Deliberately small: the
  /// surrogate only has to rank items roughly like the target model does,
  /// and its cost is pure attacker overhead (`attack.surrogate_epochs`
  /// counts it toward --telemetry_out).
  static constexpr std::size_t kEpochs = 12;

  /// Trains the surrogate on `observable` (the attacker's scrape of the
  /// target domain): `kEpochs` MF `TrainEpoch`s, each of which runs its
  /// BPR draws on a producer thread of its own (rec/bpr_draws.h), so
  /// constructing one from a pool worker starts one extra thread at a
  /// time. The model is bit-identical to a sequential fit.
  explicit TargetSurrogate(const data::Dataset& observable);

  const math::Matrix& item_embeddings() const {
    return mf_.item_embeddings();
  }
  const math::Matrix& user_embeddings() const {
    return mf_.user_embeddings();
  }
  std::size_t embedding_dim() const { return mf_.embedding_dim(); }
  std::size_t num_items() const { return item_embeddings().rows(); }

  /// Fold-in embedding of an arbitrary profile (mean of its items'
  /// embeddings — the same fold-in the MF model applies to new users).
  std::vector<float> FoldInProfile(const data::Profile& profile) const;

  /// Surrogate preference score of a virtual user vector for `item`.
  float Score(const std::vector<float>& user_vec, data::ItemId item) const;

  /// Mean user embedding over the trained (genuine) users — the rank-one
  /// summary the influence estimate projects candidate profiles onto.
  const std::vector<float>& mean_user_embedding() const {
    return mean_user_embedding_;
  }

 private:
  rec::MatrixFactorization mf_;
  std::vector<float> mean_user_embedding_;
};

}  // namespace copyattack::attack

#endif  // COPYATTACK_ATTACK_SURROGATE_H_

#include "rec/pinsage_lite.h"

#include <cmath>

#include "math/vector_ops.h"
#include "nn/activations.h"
#include "obs/obs.h"
#include "rec/bpr_draws.h"
#include "util/check.h"

namespace copyattack::rec {

namespace {

/// Mixing weight between an item's own embedding and its aggregated
/// user-neighborhood representation at serving time:
/// z_i = alpha * q_i + (1 - alpha) * sum_{u in P_i} p_u / |P_i|^e.
/// The GCN-style degree normalization keeps a popularity signal (more
/// interacting users -> larger neighborhood term), which both matches
/// graph recommenders in practice and is what injection attacks exploit:
/// every injected profile strictly adds mass to the target item's
/// neighborhood representation.
constexpr float kSelfWeight = 0.5f;
static_assert(kSelfWeight >= 0.0f && kSelfWeight <= 1.0f);

/// Degree-normalization exponent e above. 0.5 is the symmetric-GCN
/// choice; values toward 1.0 compress the popularity signal (1.0 is a
/// plain mean). 0.5 keeps popularity relevant while leaving the
/// preference (direction) component decisive near the Top-k boundary.
constexpr float kNeighborNormExponent = 0.5f;

/// Weight of the item-popularity intercept added to every score:
/// `kPopularityBias * log(1 + train_count_i)`. Recommenders learn such an
/// item intercept during training; it is a *frozen* model parameter, so
/// it keeps cold items out of Top-k lists before any attack but does not
/// react to injected interactions (only the inductive aggregation does).
constexpr float kPopularityBias = 0.8f;

static_assert(PinSageLite::kEmbeddingDim > 0);

// The loops below read the width as `items_.cols()` (== kEmbeddingDim) at
// run time: given the compile-time 8, GCC unrolls the inlined `math::Dot`
// fully and a score costs ~10% more (bench_micro `BM_PinSageScore`).

}  // namespace

void PinSageLite::InitTraining(const data::Dataset& train, util::Rng& rng) {
  items_.Resize(train.num_items(), kEmbeddingDim);
  items_.FillNormal(rng, 0.0f, kInitStddev);
  // Frozen popularity intercept from the training interaction counts.
  item_intercept_.assign(train.num_items(), 0.0f);
  for (data::ItemId item = 0; item < train.num_items(); ++item) {
    item_intercept_[item] =
        kPopularityBias *
        std::log1p(static_cast<float>(train.ItemPopularity(item)));
  }
  user_reps_.Resize(0, kEmbeddingDim);
  item_user_sum_.Resize(0, kEmbeddingDim);
  item_user_count_.clear();
  item_neighbor_weight_.clear();
  mean_user_aggregate_.clear();
  mean_frozen_ = false;
  serving_ckpt_.valid = false;
}

void PinSageLite::TrainEpoch(const data::Dataset& train, util::Rng& rng) {
  CA_CHECK_EQ(items_.rows(), train.num_items());
  // Item embeddings are about to change, so any frozen centering mean and
  // any serving checkpoint built on them are stale; the next BeginServing
  // recomputes them.
  mean_frozen_ = false;
  serving_ckpt_.valid = false;
  const std::size_t dim = items_.cols();
  const float lr = kLearningRate;
  const float reg = kRegularization;

  std::vector<float> user_rep(dim);
  ForEachBprTriple(train, rng, [&](const BprTriple& triple) {
    // User representation: profile-mean of item embeddings (the positive
    // item is excluded so the model cannot trivially memorize it).
    for (std::size_t d = 0; d < dim; ++d) user_rep[d] = 0.0f;
    std::size_t contributors = 0;
    for (const data::ItemId item : train.UserProfile(triple.user)) {
      if (item == triple.pos) continue;
      math::Axpy(1.0f, items_.Row(item), user_rep.data(), dim);
      ++contributors;
    }
    if (contributors == 0) return;
    const float inv = 1.0f / static_cast<float>(contributors);
    for (std::size_t d = 0; d < dim; ++d) user_rep[d] *= inv;

    float* qi = items_.Row(triple.pos);
    float* qj = items_.Row(triple.neg);
    const float x = math::Dot(user_rep.data(), qi, dim) -
                    math::Dot(user_rep.data(), qj, dim);
    const float sigma = nn::Sigmoid(-x);
    for (std::size_t d = 0; d < dim; ++d) {
      const float xu_d = user_rep[d];
      qi[d] += lr * (sigma * xu_d - reg * qi[d]);
      qj[d] += lr * (-sigma * xu_d - reg * qj[d]);
    }
  });
}

void PinSageLite::ComputeRawUserAggregate(const data::Dataset& current,
                                          data::UserId user,
                                          float* out) const {
  const std::size_t dim = items_.cols();
  for (std::size_t d = 0; d < dim; ++d) out[d] = 0.0f;
  const data::Profile& profile = current.UserProfile(user);
  if (profile.empty()) return;
  const float inv = 1.0f / static_cast<float>(profile.size());
  for (const data::ItemId item : profile) {
    math::Axpy(inv, items_.Row(item), out, dim);
  }
}

void PinSageLite::ComputeUserRepresentation(const data::Dataset& current,
                                            data::UserId user,
                                            float* out) const {
  const std::size_t dim = items_.cols();
  ComputeRawUserAggregate(current, user, out);
  // Mean-centering (classical neighborhood CF) removes the shared
  // "everybody likes the head" component, so only distinctive
  // co-preferences move rankings. It is also why profile crafting matters
  // to the attack: a long generic profile centers away to noise, a focused
  // session keeps its direction.
  if (mean_user_aggregate_.size() == dim) {
    for (std::size_t d = 0; d < dim; ++d) {
      out[d] -= mean_user_aggregate_[d];
    }
  }
  // PinSage-style L2 normalization of the aggregated representation. This
  // is what gives user-side preference signal independent of profile
  // length: a short, coherent profile yields as strong a direction as a
  // long one (and makes every injected user contribute a unit vector to
  // its items' neighborhoods).
  math::NormalizeL2(out, dim);
}

void PinSageLite::BeginServing(const data::Dataset& current) {
  OBS_SPAN("rec.begin_serving");
  OBS_COUNTER_INC("rec.begin_serving");
  CA_CHECK_EQ(items_.rows(), current.num_items());
  const std::size_t dim = items_.cols();
  // The centering mean is a model constant: computed once, over the first
  // population the model serves (the clean training users), and frozen —
  // injected users observed later are centered against the same mean.
  if (!mean_frozen_) {
    mean_user_aggregate_.assign(dim, 0.0f);
    if (current.num_users() > 0) {
      std::vector<float> aggregate(dim);
      for (data::UserId u = 0; u < current.num_users(); ++u) {
        ComputeRawUserAggregate(current, u, aggregate.data());
        math::Axpy(1.0f / static_cast<float>(current.num_users()),
                   aggregate.data(), mean_user_aggregate_.data(), dim);
      }
    }
    mean_frozen_ = true;
  }
  user_reps_.Resize(current.num_users(), dim);
  item_user_sum_.Resize(current.num_items(), dim);
  item_user_count_.assign(current.num_items(), 0);
  for (data::UserId u = 0; u < current.num_users(); ++u) {
    ComputeUserRepresentation(current, u, user_reps_.Row(u));
    for (const data::ItemId item : current.UserProfile(u)) {
      math::Axpy(1.0f, user_reps_.Row(u), item_user_sum_.Row(item), dim);
      ++item_user_count_[item];
    }
  }
  item_neighbor_weight_.assign(current.num_items(), 0.0f);
  for (data::ItemId item = 0; item < current.num_items(); ++item) {
    UpdateNeighborWeight(item);
  }
  // A full rebuild supersedes whatever state an older checkpoint captured.
  serving_ckpt_.valid = false;
}

void PinSageLite::ObserveNewUser(const data::Dataset& current,
                                 data::UserId user) {
  CA_CHECK_LT(user, current.num_users());
  CA_CHECK_EQ(static_cast<std::size_t>(user), user_reps_.rows())
      << "users must be observed in append order";
  const std::size_t dim = items_.cols();
  float* rep = user_reps_.AppendRow();  // amortized O(dim), not O(users*dim)
  ComputeUserRepresentation(current, user, rep);
  for (const data::ItemId item : current.UserProfile(user)) {
    math::Axpy(1.0f, rep, item_user_sum_.Row(item), dim);
    ++item_user_count_[item];
    UpdateNeighborWeight(item);
    if (serving_ckpt_.valid) serving_ckpt_.touched.push_back(item);
  }
}

bool PinSageLite::CheckpointServing() {
  if (!mean_frozen_) return false;  // nothing served yet
  OBS_COUNTER_INC("rec.serving_checkpoints");
  serving_ckpt_.valid = false;  // invalid while the snapshot is mid-copy
  serving_ckpt_.user_rows = user_reps_.rows();
  serving_ckpt_.touched.clear();
  serving_ckpt_.item_user_sum = item_user_sum_;
  serving_ckpt_.item_user_count = item_user_count_;
  serving_ckpt_.valid = true;
  return true;
}

bool PinSageLite::RollbackServing() {
  if (!serving_ckpt_.valid) return false;
  OBS_COUNTER_INC("rec.serving_rollbacks");
  user_reps_.TruncateRows(serving_ckpt_.user_rows);
  // Restore only the neighborhood accumulators that injections touched —
  // O(injected interactions), with bit-exact rows memcpy'd back from the
  // snapshot (float accumulation is not reversible by subtraction).
  for (const data::ItemId item : serving_ckpt_.touched) {
    item_user_sum_.CopyRowFrom(serving_ckpt_.item_user_sum, item, item);
    item_user_count_[item] = serving_ckpt_.item_user_count[item];
    UpdateNeighborWeight(item);
  }
  serving_ckpt_.touched.clear();
  return true;
}

void PinSageLite::UpdateNeighborWeight(data::ItemId item) {
  const std::size_t count = item_user_count_[item];
  item_neighbor_weight_[item] =
      count > 0 ? (1.0f - kSelfWeight) /
                      std::pow(static_cast<float>(count),
                               kNeighborNormExponent)
                : 0.0f;
}

void PinSageLite::ItemRepresentation(data::ItemId item,
                                     std::vector<float>* out) const {
  CA_CHECK_LT(item, items_.rows());
  const std::size_t dim = items_.cols();
  out->assign(dim, 0.0f);
  math::Axpy(kSelfWeight, items_.Row(item), out->data(), dim);
  if (item_user_count_[item] > 0) {
    math::Axpy(item_neighbor_weight_[item], item_user_sum_.Row(item),
               out->data(), dim);
  }
}

// Inline so the row loop below keeps p in registers across candidates;
// Score and ScoreCandidatesInto share this one expression, so they agree
// bit for bit by construction.
inline float PinSageLite::ScoreItem(const float* p, data::ItemId item) const {
  const std::size_t dim = items_.cols();
  float score = kSelfWeight * math::Dot(p, items_.Row(item), dim);
  if (item_user_count_[item] > 0) {
    score += item_neighbor_weight_[item] *
             math::Dot(p, item_user_sum_.Row(item), dim);
  }
  if (item < item_intercept_.size()) {
    score += item_intercept_[item];
  }
  return score;
}

float PinSageLite::Score(data::UserId user, data::ItemId item) const {
  CA_CHECK_LT(user, user_reps_.rows());
  CA_CHECK_LT(item, items_.rows());
  return ScoreItem(user_reps_.Row(user), item);
}

void PinSageLite::ScoreCandidatesInto(
    data::UserId user, const std::vector<data::ItemId>& candidates,
    float* out) const CA_HOT_PATH {
  CA_CHECK_LT(user, user_reps_.rows());
  const std::size_t num_items = items_.rows();
  const float* p = user_reps_.Row(user);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    CA_CHECK_LT(candidates[c], num_items);
    out[c] = ScoreItem(p, candidates[c]);
  }
}

}  // namespace copyattack::rec

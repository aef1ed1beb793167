#include "rec/matrix_factorization.h"

#include "math/vector_ops.h"
#include "nn/activations.h"
#include "obs/obs.h"
#include "rec/bpr_draws.h"
#include "util/check.h"

namespace copyattack::rec {

MatrixFactorization::MatrixFactorization(const MfConfig& config)
    : config_(config) {
  CA_CHECK_GT(config.embedding_dim, 0U);
}

void MatrixFactorization::InitTraining(const data::Dataset& train,
                                       util::Rng& rng) {
  trained_users_ = train.num_users();
  serving_checkpoint_valid_ = false;
  users_.Resize(train.num_users(), config_.embedding_dim);
  items_.Resize(train.num_items(), config_.embedding_dim);
  users_.FillNormal(rng, 0.0f, kInitStddev);
  items_.FillNormal(rng, 0.0f, kInitStddev);
}

void MatrixFactorization::TrainEpoch(const data::Dataset& train,
                                     util::Rng& rng) {
  CA_CHECK_EQ(users_.rows() >= train.num_users(), true)
      << "InitTraining must run before TrainEpoch";
  // Item embeddings change below, so previously folded-in serving rows
  // (and any serving checkpoint over them) are stale.
  serving_checkpoint_valid_ = false;
  const std::size_t dim = config_.embedding_dim;
  const float lr = kLearningRate;
  const float reg = kRegularization;

  ForEachBprTriple(train, rng, [&](const BprTriple& triple) {
    float* pu = users_.Row(triple.user);
    float* qi = items_.Row(triple.pos);
    float* qj = items_.Row(triple.neg);
    const float x = math::Dot(pu, qi, dim) - math::Dot(pu, qj, dim);
    const float sigma = nn::Sigmoid(-x);  // dLoss/dx of -log sigmoid(x)
    for (std::size_t d = 0; d < dim; ++d) {
      const float pu_d = pu[d];
      const float qi_d = qi[d];
      const float qj_d = qj[d];
      pu[d] += lr * (sigma * (qi_d - qj_d) - reg * pu_d);
      qi[d] += lr * (sigma * pu_d - reg * qi_d);
      qj[d] += lr * (-sigma * pu_d - reg * qj_d);
    }
  });
}

void MatrixFactorization::BeginServing(const data::Dataset& current) {
  OBS_SPAN("rec.begin_serving");
  OBS_COUNTER_INC("rec.begin_serving");
  CA_CHECK_GE(current.num_users(), trained_users_);
  users_.EnsureRows(current.num_users());
  for (data::UserId u = static_cast<data::UserId>(trained_users_);
       u < current.num_users(); ++u) {
    FoldInUser(current, u);
  }
}

void MatrixFactorization::ObserveNewUser(const data::Dataset& current,
                                         data::UserId user) {
  CA_CHECK_LT(user, current.num_users());
  users_.EnsureRows(current.num_users());
  FoldInUser(current, user);
}

bool MatrixFactorization::CheckpointServing() {
  // Fold-in rows are a pure function of the (frozen) item embeddings and
  // each user's profile, so the checkpoint only needs the row count: rows
  // kept through a rollback are already correct, rows past the mark are
  // dropped in O(1).
  OBS_COUNTER_INC("rec.serving_checkpoints");
  serving_checkpoint_rows_ = users_.rows();
  serving_checkpoint_valid_ = true;
  return true;
}

bool MatrixFactorization::RollbackServing() {
  if (!serving_checkpoint_valid_) return false;
  OBS_COUNTER_INC("rec.serving_rollbacks");
  users_.TruncateRows(serving_checkpoint_rows_);
  return true;
}

void MatrixFactorization::FoldInUser(const data::Dataset& current,
                                     data::UserId user) {
  const data::Profile& profile = current.UserProfile(user);
  float* row = users_.Row(user);
  for (std::size_t d = 0; d < config_.embedding_dim; ++d) row[d] = 0.0f;
  if (profile.empty()) return;
  const float inv = 1.0f / static_cast<float>(profile.size());
  for (const data::ItemId item : profile) {
    math::Axpy(inv, items_.Row(item), row, config_.embedding_dim);
  }
}

float MatrixFactorization::Score(data::UserId user,
                                 data::ItemId item) const {
  CA_CHECK_LT(user, users_.rows());
  CA_CHECK_LT(item, items_.rows());
  return math::Dot(users_.Row(user), items_.Row(item),
                   config_.embedding_dim);
}

}  // namespace copyattack::rec

#ifndef COPYATTACK_REC_RECOMMENDER_H_
#define COPYATTACK_REC_RECOMMENDER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/types.h"
#include "util/rng.h"

namespace copyattack::rec {

/// Interface of a trainable Top-k recommender.
///
/// Lifecycle:
///  1. `InitTraining` + repeated `TrainEpoch` (driven by `TrainWithEarly-
///     Stopping`), or the convenience `Fit` which runs a fixed epoch count.
///  2. `BeginServing(current)` builds serving-time representations over the
///     *current* interaction data — which may already contain users that
///     were not present during training (the model must handle them
///     inductively, e.g. by aggregating item representations).
///  3. `ObserveNewUser` incrementally folds a newly appended user into the
///     serving state. This is the channel through which an injection
///     attack perturbs the model: the copied profiles change the
///     aggregated item representations without any retraining.
///  4. `Score(user, item)` ranks candidates.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Resets parameters and prepares for `TrainEpoch` over `train`.
  virtual void InitTraining(const data::Dataset& train, util::Rng& rng) = 0;

  /// Runs one pass of stochastic training over `train`.
  virtual void TrainEpoch(const data::Dataset& train, util::Rng& rng) = 0;

  /// Convenience: `InitTraining` followed by `epochs` x `TrainEpoch` and a
  /// final `BeginServing(train)`.
  void Fit(const data::Dataset& train, std::size_t epochs, util::Rng& rng);

  /// Rebuilds serving-time state from `current` (all users, including ones
  /// unseen during training).
  virtual void BeginServing(const data::Dataset& current) = 0;

  /// Incrementally registers the newly appended `user` of `current`.
  virtual void ObserveNewUser(const data::Dataset& current,
                              data::UserId user) = 0;

  /// Snapshots the current serving-time state so a later `RollbackServing`
  /// can rewind past users observed afterwards — the model-side half of the
  /// environment's episode snapshot/rollback (the dataset side is
  /// `data::Dataset::Checkpoint`). Returns false when the model does not
  /// support serving checkpoints (callers fall back to `BeginServing`).
  /// Any training after the checkpoint invalidates it.
  virtual bool CheckpointServing() { return false; }

  /// Restores the serving state captured by the last `CheckpointServing`
  /// in O(observed-since-checkpoint), bit-identically to a full
  /// `BeginServing` rebuild over the rolled-back dataset. Returns false
  /// (leaving the model untouched) when no valid checkpoint exists.
  virtual bool RollbackServing() { return false; }

  /// Preference score of `user` for `item` under the serving state.
  virtual float Score(data::UserId user, data::ItemId item) const = 0;

  /// Short model name for reports.
  virtual std::string name() const = 0;

  /// Scores a candidate list (order preserved).
  std::vector<float> ScoreCandidates(
      data::UserId user, const std::vector<data::ItemId>& candidates) const;

  /// Scores a candidate list into a caller-provided buffer of
  /// `candidates.size()` floats — the allocation-free row primitive the
  /// oracle scores each Top-k query with, into reused scratch. The
  /// default calls `Score` per candidate; a model may override it with a
  /// row loop, which must return exactly what `Score` returns per item.
  virtual void ScoreCandidatesInto(
      data::UserId user, const std::vector<data::ItemId>& candidates,
      float* out) const;
};

}  // namespace copyattack::rec

#endif  // COPYATTACK_REC_RECOMMENDER_H_

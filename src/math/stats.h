#ifndef COPYATTACK_MATH_STATS_H_
#define COPYATTACK_MATH_STATS_H_

#include <cstddef>

namespace copyattack::math {

/// Streaming mean/variance accumulator (Welford's algorithm). Used to
/// aggregate per-target-item attack metrics and for the REINFORCE
/// moving-average baseline diagnostics.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double value);

  /// Number of observations so far.
  std::size_t count() const { return count_; }

  /// Mean of observations; 0 when empty.
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance; 0 when fewer than two observations.
  double Variance() const;

  /// sqrt(Variance()).
  double StdDev() const;

  /// Smallest observation; 0 when empty.
  double Min() const { return count_ == 0 ? 0.0 : min_; }

  /// Largest observation; 0 when empty.
  double Max() const { return count_ == 0 ? 0.0 : max_; }

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace copyattack::math

#endif  // COPYATTACK_MATH_STATS_H_

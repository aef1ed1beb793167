#include "math/stats.h"

#include <algorithm>
#include <cmath>

namespace copyattack::math {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double total =
      static_cast<double>(count_) + static_cast<double>(other.count_);
  m2_ += other.m2_ + delta * delta *
                         (static_cast<double>(count_) *
                          static_cast<double>(other.count_) / total);
  mean_ += delta * static_cast<double>(other.count_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

}  // namespace copyattack::math

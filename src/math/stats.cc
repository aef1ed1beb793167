#include "math/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

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

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  CA_CHECK_GE(q, 0.0);
  CA_CHECK_LE(q, 1.0);
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<std::size_t> Histogram(const std::vector<double>& values,
                                   std::size_t bins) {
  CA_CHECK_GT(bins, 0U);
  std::vector<std::size_t> counts(bins, 0);
  if (values.empty()) return counts;
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  const double lo = *min_it;
  const double width = (*max_it - lo) / static_cast<double>(bins);
  for (const double v : values) {
    std::size_t bin =
        width == 0.0  // analyze:allow(float-eq): degenerate-range sentinel
            ? 0
            : static_cast<std::size_t>((v - lo) / width);
    if (bin >= bins) bin = bins - 1;
    ++counts[bin];
  }
  return counts;
}

}  // namespace copyattack::math

#include "defense/adaptive_detector.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace copyattack::defense {

namespace {

/// Training budget of the logistic regression: full-batch gradient
/// descent epochs, step size and L2 penalty.
constexpr std::size_t kEpochs = 200;
constexpr double kLearningRate = 0.5;
constexpr double kL2 = 1e-3;
static_assert(kEpochs > 0 && kLearningRate > 0.0);

/// Per-feature mean/stddev of a population (stddev floored; mirrors the
/// unsupervised detectors' standardization).
void FitMoments(const std::vector<ProfileFeatures>& population,
                ProfileFeatures* mean, ProfileFeatures* stddev) {
  CA_CHECK(!population.empty());
  mean->fill(0.0);
  stddev->fill(0.0);
  for (const ProfileFeatures& f : population) {
    for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
      (*mean)[i] += f[i];
    }
  }
  for (double& m : *mean) m /= static_cast<double>(population.size());
  for (const ProfileFeatures& f : population) {
    for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
      const double d = f[i] - (*mean)[i];
      (*stddev)[i] += d * d;
    }
  }
  for (double& s : *stddev) {
    s = std::sqrt(s / static_cast<double>(population.size()));
    s = std::max(s, 1e-9);
  }
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

void AdaptiveDetector::Fit(const std::vector<ProfileFeatures>& genuine) {
  FitMoments(genuine, &mean_, &stddev_);
  std::fill(weights_.begin(), weights_.end(), 0.0);
  bias_ = 0.0;
  fitted_ = true;
  supervised_ = false;
}

void AdaptiveDetector::FitAdaptive(
    const std::vector<ProfileFeatures>& genuine,
    const std::vector<ProfileFeatures>& attack) {
  CA_CHECK(!attack.empty());
  Fit(genuine);

  // Standardized design matrix: genuine first (label 0), attack after
  // (label 1). Full-batch gradient descent from zero is deterministic —
  // no shuffling, no initialization noise — so retraining the detector on
  // the same campaign output always yields the same frontier point.
  std::vector<ProfileFeatures> examples;
  std::vector<double> labels;
  examples.reserve(genuine.size() + attack.size());
  labels.reserve(genuine.size() + attack.size());
  for (const ProfileFeatures& f : genuine) {
    ProfileFeatures z{};
    for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
      z[i] = (f[i] - mean_[i]) / stddev_[i];
    }
    examples.push_back(z);
    labels.push_back(0.0);
  }
  for (const ProfileFeatures& f : attack) {
    ProfileFeatures z{};
    for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
      z[i] = (f[i] - mean_[i]) / stddev_[i];
    }
    examples.push_back(z);
    labels.push_back(1.0);
  }

  const double n = static_cast<double>(examples.size());
  std::vector<double> grad(kNumProfileFeatures);
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (std::size_t e = 0; e < examples.size(); ++e) {
      double logit = bias_;
      for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
        logit += weights_[i] * examples[e][i];
      }
      const double residual = Sigmoid(logit) - labels[e];
      for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
        grad[i] += residual * examples[e][i];
      }
      grad_bias += residual;
    }
    for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
      weights_[i] -= kLearningRate * (grad[i] / n + kL2 * weights_[i]);
    }
    bias_ -= kLearningRate * grad_bias / n;
  }
  supervised_ = true;
}

double AdaptiveDetector::Score(const ProfileFeatures& features) const {
  CA_CHECK(fitted_) << "Fit must be called before Score";
  ProfileFeatures z{};
  for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
    z[i] = (features[i] - mean_[i]) / stddev_[i];
  }
  if (!supervised_) {
    // Unsupervised fallback: the z-score detector's rule.
    double sum_sq = 0.0;
    for (const double v : z) sum_sq += v * v;
    return sum_sq / static_cast<double>(kNumProfileFeatures);
  }
  double logit = bias_;
  for (std::size_t i = 0; i < kNumProfileFeatures; ++i) {
    logit += weights_[i] * z[i];
  }
  return Sigmoid(logit);
}

}  // namespace copyattack::defense

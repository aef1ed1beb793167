#ifndef COPYATTACK_DEFENSE_ADAPTIVE_DETECTOR_H_
#define COPYATTACK_DEFENSE_ADAPTIVE_DETECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "defense/detectors.h"
#include "defense/profile_features.h"

namespace copyattack::defense {

/// Supervised arms-race detector: a logistic regression over the
/// standardized profile features, retrained per attacker on that
/// attacker's *actual injected profiles* (labeled positives) mixed with
/// genuine ones. This models the defender's second move — once an attack
/// campaign is observed, its output distribution is training data — and is
/// the detector the HR@k-vs-detectability frontier (`copyattack recipe
/// arms_race_frontier`) pits each strategy against.
///
/// Training is deterministic (full-batch gradient descent from a zero
/// initialization; no RNG), so the frontier CSV reproduces bit-for-bit.
/// Through the unsupervised `Fit(genuine)` entry point — before any attack
/// profiles have been observed — it degrades to the z-score detector's
/// scoring rule.
class AdaptiveDetector final : public AnomalyDetector {
 public:
  /// Unsupervised fallback: fits the standardization only. `Score` then
  /// behaves like `ZScoreDetector` until `FitAdaptive` supplies labels.
  void Fit(const std::vector<ProfileFeatures>& genuine) override;

  /// The arms-race move: fits standardization on `genuine` and the
  /// logistic weights on genuine (label 0) vs `attack` (label 1).
  void FitAdaptive(const std::vector<ProfileFeatures>& genuine,
                   const std::vector<ProfileFeatures>& attack);

  /// Supervised: P(attack | features); fallback: mean squared z.
  double Score(const ProfileFeatures& features) const override;

  std::string name() const override { return "Adaptive"; }

  /// Whether `FitAdaptive` has trained the logistic weights.
  bool supervised() const { return supervised_; }

  /// Learned weights over standardized features (exposed for tests).
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  ProfileFeatures mean_{};
  ProfileFeatures stddev_{};
  std::vector<double> weights_ =
      std::vector<double>(kNumProfileFeatures, 0.0);
  double bias_ = 0.0;
  bool fitted_ = false;
  bool supervised_ = false;
};

}  // namespace copyattack::defense

#endif  // COPYATTACK_DEFENSE_ADAPTIVE_DETECTOR_H_

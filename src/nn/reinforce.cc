#include "nn/reinforce.h"

#include <cmath>

#include "util/check.h"

namespace copyattack::nn {

std::vector<double> DiscountedReturns(const std::vector<double>& rewards,
                                      double gamma) {
  std::vector<double> returns(rewards.size(), 0.0);
  double running = 0.0;
  for (std::size_t t = rewards.size(); t-- > 0;) {
    running = rewards[t] + gamma * running;
    returns[t] = running;
  }
  return returns;
}

std::vector<float> PolicyGradientLogits(const std::vector<float>& probs,
                                        std::size_t action, double advantage,
                                        const std::vector<bool>& mask) {
  CA_CHECK_EQ(probs.size(), mask.size());
  CA_CHECK_LT(action, probs.size());
  CA_CHECK(mask[action]) << "sampled action must be unmasked";
  std::vector<float> dlogits(probs.size(), 0.0f);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (!mask[i]) continue;
    const float indicator = (i == action) ? 1.0f : 0.0f;
    dlogits[i] = static_cast<float>((probs[i] - indicator) * advantage);
  }
  return dlogits;
}

std::vector<float> PolicyGradientLogits(const std::vector<float>& probs,
                                        std::size_t action,
                                        double advantage) {
  return PolicyGradientLogits(probs, action, advantage,
                              std::vector<bool>(probs.size(), true));
}

void AddEntropyBonusGrad(const std::vector<float>& probs, double beta,
                         const std::vector<bool>& mask,
                         std::vector<float>& dlogits) {
  if (beta == 0.0) return;  // analyze:allow(float-eq): exact-zero disables baseline
  CA_CHECK_EQ(probs.size(), dlogits.size());
  CA_CHECK_EQ(probs.size(), mask.size());
  double entropy = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (mask[i] && probs[i] > 0.0f) {
      entropy -= probs[i] * std::log(probs[i]);
    }
  }
  // Loss includes -beta*H; dLoss/dlogit_i = beta * p_i * (log p_i + H).
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (!mask[i] || probs[i] <= 0.0f) continue;
    dlogits[i] += static_cast<float>(
        beta * probs[i] * (std::log(probs[i]) + entropy));
  }
}

double MovingBaseline::Update(double observed_return) {
  const double previous = initialized_ ? value_ : 0.0;
  if (!initialized_) {
    value_ = observed_return;
    initialized_ = true;
  } else {
    value_ = momentum_ * value_ + (1.0 - momentum_) * observed_return;
  }
  return observed_return - previous;
}

}  // namespace copyattack::nn

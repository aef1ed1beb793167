#ifndef COPYATTACK_NN_OPTIMIZER_H_
#define COPYATTACK_NN_OPTIMIZER_H_

#include "nn/parameter.h"

namespace copyattack::nn {

/// Plain SGD over an externally owned parameter list: `w -= lr * g`, with
/// optional global-norm gradient clipping.
class Sgd {
 public:
  explicit Sgd(float learning_rate, float clip_norm = 0.0f)
      : learning_rate_(learning_rate), clip_norm_(clip_norm) {}

  /// Applies one update using the gradients currently accumulated in
  /// `params`, then zeroes those gradients.
  void Step(const ParameterList& params);

 private:
  float learning_rate_;
  float clip_norm_;  // 0 disables clipping
};

/// Scales all gradients so their global L2 norm does not exceed
/// `clip_norm`; no-op when `clip_norm <= 0` or the norm is already smaller.
void ClipGradientsByGlobalNorm(const ParameterList& params, float clip_norm);

}  // namespace copyattack::nn

#endif  // COPYATTACK_NN_OPTIMIZER_H_

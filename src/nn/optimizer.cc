#include "nn/optimizer.h"

#include <cmath>

namespace copyattack::nn {

void ClipGradientsByGlobalNorm(const ParameterList& params, float clip_norm) {
  if (clip_norm <= 0.0f) return;
  double sum_sq = 0.0;
  for (const Parameter* p : params) {
    sum_sq += p->grad.SquaredNorm();
  }
  const double norm = std::sqrt(sum_sq);
  if (norm <= clip_norm) return;
  const float scale = static_cast<float>(clip_norm / norm);
  for (Parameter* p : params) {
    p->grad.Scale(scale);
  }
}

void Sgd::Step(const ParameterList& params) {
  ClipGradientsByGlobalNorm(params, clip_norm_);
  for (Parameter* p : params) {
    p->value.AddScaled(p->grad, -learning_rate_);
    p->ZeroGrad();
  }
}

}  // namespace copyattack::nn

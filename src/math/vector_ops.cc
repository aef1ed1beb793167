#include "math/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/annotations.h"
#include "util/check.h"

namespace copyattack::math {

// Dot (inline in the header), Axpy and SquaredDistance sit at the bottom
// of scoring, fold-in, BPR training, and k-means. They are written so the
// compiler auto-vectorizes them without -ffast-math: reductions use four independent accumulators
// (breaking the sequential float dependence chain into four lanes), and
// `__restrict` tells the optimizer the spans do not overlap. The summation
// order is fixed by the implementation, so results stay bit-deterministic
// run to run.

void Axpy(float alpha, const float* __restrict x, float* __restrict y,
          std::size_t n) CA_HOT_PATH {
  // No reduction here; the restrict qualifiers alone let the compiler emit
  // packed fma/mul-add without a runtime overlap check.
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

float SquaredDistance(const float* __restrict a, const float* __restrict b,
                      std::size_t n) CA_HOT_PATH {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  float sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void SoftmaxInPlace(std::vector<float>& values) {
  CA_CHECK(!values.empty());
  const float max_value = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (auto& v : values) {
    v = std::exp(v - max_value);
    sum += v;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (auto& v : values) v *= inv;
}

void MaskedSoftmaxInPlace(std::vector<float>& values,
                          const std::vector<bool>& mask) {
  CA_CHECK_EQ(values.size(), mask.size());
  float max_value = -std::numeric_limits<float>::infinity();
  bool any = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (mask[i]) {
      any = true;
      max_value = std::max(max_value, values[i]);
    }
  }
  CA_CHECK(any) << "masked softmax requires at least one unmasked entry";
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (mask[i]) {
      values[i] = std::exp(values[i] - max_value);
      sum += values[i];
    } else {
      values[i] = 0.0f;
    }
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (auto& v : values) v *= inv;
}

std::size_t ArgMax(const std::vector<float>& values) {
  CA_CHECK(!values.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

void NormalizeL2(float* v, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(v[i]) * v[i];
  if (sum == 0.0) return;  // analyze:allow(float-eq): nothing to normalize
  const float inv = static_cast<float>(1.0 / std::sqrt(sum));
  for (std::size_t i = 0; i < n; ++i) v[i] *= inv;
}

}  // namespace copyattack::math

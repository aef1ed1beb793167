#ifndef COPYATTACK_MATH_VECTOR_OPS_H_
#define COPYATTACK_MATH_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

#include "util/annotations.h"

namespace copyattack::math {

/// Dot product of two equal-length float spans. Accumulation order is
/// fixed and deterministic: four strided accumulators, summed as
/// `(s0 + s1) + (s2 + s3)`, then the tail. Defined here so per-candidate
/// scoring loops inline it instead of calling out per product.
inline float Dot(const float* __restrict a, const float* __restrict b,
                 std::size_t n) CA_HOT_PATH {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// y += alpha * x, element-wise over `n` floats. `x` and `y` must not
/// overlap (the implementation is restrict-qualified so it vectorizes).
void Axpy(float alpha, const float* x, float* y, std::size_t n);

/// Squared Euclidean distance (avoids the sqrt in k-means inner loops).
float SquaredDistance(const float* a, const float* b, std::size_t n);

/// In-place numerically stable softmax over `values`.
void SoftmaxInPlace(std::vector<float>& values);

/// Numerically stable softmax respecting a mask: entries with
/// `mask[i] == false` receive probability exactly 0. At least one entry must
/// be unmasked.
void MaskedSoftmaxInPlace(std::vector<float>& values,
                          const std::vector<bool>& mask);

/// Index of the maximum element; ties break to the lowest index.
/// `values` must be non-empty.
std::size_t ArgMax(const std::vector<float>& values);

/// L2-normalizes `v` in place; a zero vector is left unchanged.
void NormalizeL2(float* v, std::size_t n);

}  // namespace copyattack::math

#endif  // COPYATTACK_MATH_VECTOR_OPS_H_

#include "nn/dense.h"

#include "math/vector_ops.h"
#include "util/check.h"

namespace copyattack::nn {

DenseLayer::DenseLayer(std::string name, std::size_t in_dim,
                       std::size_t out_dim, util::Rng& rng,
                       float init_stddev)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(name + "/W", out_dim, in_dim),
      bias_(name + "/b", 1, out_dim) {
  CA_CHECK_GT(in_dim, 0U);
  CA_CHECK_GT(out_dim, 0U);
  weight_.value.FillNormal(rng, 0.0f, init_stddev);
}

void DenseLayer::Forward(const std::vector<float>& in,
                         std::vector<float>* out) const {
  CA_CHECK_EQ(in.size(), in_dim_);
  out->resize(out_dim_);
  for (std::size_t o = 0; o < out_dim_; ++o) {
    (*out)[o] = bias_.value(0, o) +
                math::Dot(weight_.value.Row(o), in.data(), in_dim_);
  }
}

void DenseLayer::Backward(const std::vector<float>& in,
                          const std::vector<float>& dout,
                          std::vector<float>* din) {
  CA_CHECK_EQ(in.size(), in_dim_);
  CA_CHECK_EQ(dout.size(), out_dim_);
  for (std::size_t o = 0; o < out_dim_; ++o) {
    const float g = dout[o];
    if (g == 0.0f) continue;  // analyze:allow(float-eq): sparsity skip
    bias_.grad(0, o) += g;
    math::Axpy(g, in.data(), weight_.grad.Row(o), in_dim_);
  }
  if (din != nullptr) {
    din->assign(in_dim_, 0.0f);
    for (std::size_t o = 0; o < out_dim_; ++o) {
      const float g = dout[o];
      if (g == 0.0f) continue;  // analyze:allow(float-eq): sparsity skip
      math::Axpy(g, weight_.value.Row(o), din->data(), in_dim_);
    }
  }
}

ParameterList DenseLayer::Parameters() { return {&weight_, &bias_}; }

}  // namespace copyattack::nn

#include "nn/gru.h"

#include <cmath>

#include "math/vector_ops.h"
#include "nn/activations.h"
#include "util/check.h"

namespace copyattack::nn {

GruEncoder::GruEncoder(std::string name, std::size_t input_dim,
                       std::size_t hidden_dim, util::Rng& rng,
                       float init_stddev)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wz_(name + "/Wz", hidden_dim, input_dim),
      uz_(name + "/Uz", hidden_dim, hidden_dim),
      bz_(name + "/bz", 1, hidden_dim),
      wr_(name + "/Wr", hidden_dim, input_dim),
      ur_(name + "/Ur", hidden_dim, hidden_dim),
      br_(name + "/br", 1, hidden_dim),
      wh_(name + "/Wh", hidden_dim, input_dim),
      uh_(name + "/Uh", hidden_dim, hidden_dim),
      bh_(name + "/bh", 1, hidden_dim) {
  CA_CHECK_GT(input_dim, 0U);
  CA_CHECK_GT(hidden_dim, 0U);
  for (Parameter* p : {&wz_, &uz_, &wr_, &ur_, &wh_, &uh_}) {
    p->value.FillNormal(rng, 0.0f, init_stddev);
  }
}

void GruEncoder::GatePreactivation(const Parameter& w, const Parameter& u,
                                   const Parameter& b,
                                   const std::vector<float>& x,
                                   const std::vector<float>& h,
                                   std::vector<float>* pre) const {
  pre->resize(hidden_dim_);
  for (std::size_t i = 0; i < hidden_dim_; ++i) {
    (*pre)[i] = b.value(0, i) +
                math::Dot(w.value.Row(i), x.data(), input_dim_) +
                math::Dot(u.value.Row(i), h.data(), hidden_dim_);
  }
}

std::vector<float> GruEncoder::Forward(
    const std::vector<std::vector<float>>& sequence,
    GruContext* context) const {
  CA_CHECK(context != nullptr);
  context->inputs = sequence;
  context->hiddens.clear();
  context->updates.clear();
  context->resets.clear();
  context->candidates.clear();

  std::vector<float> hidden(hidden_dim_, 0.0f);
  std::vector<float> z, r, candidate, gated;
  for (const auto& input : sequence) {
    CA_CHECK_EQ(input.size(), input_dim_);
    GatePreactivation(wz_, uz_, bz_, input, hidden, &z);
    GatePreactivation(wr_, ur_, br_, input, hidden, &r);
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      z[i] = Sigmoid(z[i]);
      r[i] = Sigmoid(r[i]);
    }
    gated.resize(hidden_dim_);
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      gated[i] = r[i] * hidden[i];
    }
    GatePreactivation(wh_, uh_, bh_, input, gated, &candidate);
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      candidate[i] = std::tanh(candidate[i]);
    }
    std::vector<float> next(hidden_dim_);
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      next[i] = (1.0f - z[i]) * hidden[i] + z[i] * candidate[i];
    }
    context->updates.push_back(z);
    context->resets.push_back(r);
    context->candidates.push_back(candidate);
    context->hiddens.push_back(next);
    hidden = std::move(next);
  }
  return hidden;
}

void GruEncoder::Backward(const GruContext& context,
                          const std::vector<float>& dhidden_final) {
  CA_CHECK_EQ(dhidden_final.size(), hidden_dim_);
  const std::size_t steps = context.inputs.size();
  if (steps == 0) return;
  CA_CHECK_EQ(context.hiddens.size(), steps);

  const std::vector<float> zero(hidden_dim_, 0.0f);
  std::vector<float> dhidden = dhidden_final;
  for (std::size_t t = steps; t-- > 0;) {
    const std::vector<float>& x = context.inputs[t];
    const std::vector<float>& h_prev =
        t > 0 ? context.hiddens[t - 1] : zero;
    const std::vector<float>& z = context.updates[t];
    const std::vector<float>& r = context.resets[t];
    const std::vector<float>& candidate = context.candidates[t];

    std::vector<float> dprev(hidden_dim_, 0.0f);
    std::vector<float> dpre_h(hidden_dim_), dpre_z(hidden_dim_),
        dpre_r(hidden_dim_, 0.0f), dgated(hidden_dim_, 0.0f);

    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      const float dh = dhidden[i];
      // h = (1-z) h_prev + z h~
      const float dz = dh * (candidate[i] - h_prev[i]);
      const float dcand = dh * z[i];
      dprev[i] += dh * (1.0f - z[i]);
      dpre_h[i] = dcand * (1.0f - candidate[i] * candidate[i]);
      dpre_z[i] = dz * z[i] * (1.0f - z[i]);
    }

    // Through the candidate gate: pre_h = Wh x + Uh (r o h_prev) + bh.
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      const float g = dpre_h[i];
      if (g == 0.0f) continue;  // analyze:allow(float-eq): sparsity skip
      bh_.grad(0, i) += g;
      math::Axpy(g, x.data(), wh_.grad.Row(i), input_dim_);
      for (std::size_t j = 0; j < hidden_dim_; ++j) {
        uh_.grad(i, j) += g * r[j] * h_prev[j];
        dgated[j] += g * uh_.value(i, j);
      }
    }
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
      const float dr = dgated[j] * h_prev[j];
      dprev[j] += dgated[j] * r[j];
      dpre_r[j] = dr * r[j] * (1.0f - r[j]);
    }

    // Through the reset and update gates: pre = W x + U h_prev + b.
    for (std::size_t i = 0; i < hidden_dim_; ++i) {
      const float gr = dpre_r[i];
      if (gr != 0.0f) {  // analyze:allow(float-eq): sparsity skip
        br_.grad(0, i) += gr;
        math::Axpy(gr, x.data(), wr_.grad.Row(i), input_dim_);
        math::Axpy(gr, h_prev.data(), ur_.grad.Row(i), hidden_dim_);
        math::Axpy(gr, ur_.value.Row(i), dprev.data(), hidden_dim_);
      }
      const float gz = dpre_z[i];
      if (gz != 0.0f) {  // analyze:allow(float-eq): sparsity skip
        bz_.grad(0, i) += gz;
        math::Axpy(gz, x.data(), wz_.grad.Row(i), input_dim_);
        math::Axpy(gz, h_prev.data(), uz_.grad.Row(i), hidden_dim_);
        math::Axpy(gz, uz_.value.Row(i), dprev.data(), hidden_dim_);
      }
    }
    dhidden = std::move(dprev);
  }
}

ParameterList GruEncoder::Parameters() {
  return {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wh_, &uh_, &bh_};
}

}  // namespace copyattack::nn

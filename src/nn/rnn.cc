#include "nn/rnn.h"

#include <cmath>

#include "math/vector_ops.h"
#include "util/check.h"

namespace copyattack::nn {

RnnEncoder::RnnEncoder(std::string name, std::size_t input_dim,
                       std::size_t hidden_dim, util::Rng& rng,
                       float init_stddev)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(name + "/Wx", hidden_dim, input_dim),
      wh_(name + "/Wh", hidden_dim, hidden_dim),
      bias_(name + "/b", 1, hidden_dim) {
  CA_CHECK_GT(input_dim, 0U);
  CA_CHECK_GT(hidden_dim, 0U);
  wx_.value.FillNormal(rng, 0.0f, init_stddev);
  wh_.value.FillNormal(rng, 0.0f, init_stddev);
}

std::vector<float> RnnEncoder::Forward(
    const std::vector<std::vector<float>>& sequence,
    RnnContext* context) const {
  CA_CHECK(context != nullptr);
  context->inputs = sequence;
  context->hiddens.clear();
  std::vector<float> hidden(hidden_dim_, 0.0f);
  for (const auto& input : sequence) {
    CA_CHECK_EQ(input.size(), input_dim_);
    std::vector<float> next(hidden_dim_);
    for (std::size_t h = 0; h < hidden_dim_; ++h) {
      float pre = bias_.value(0, h);
      pre += math::Dot(wx_.value.Row(h), input.data(), input_dim_);
      pre += math::Dot(wh_.value.Row(h), hidden.data(), hidden_dim_);
      next[h] = std::tanh(pre);
    }
    context->hiddens.push_back(next);
    hidden = std::move(next);
  }
  return hidden;
}

void RnnEncoder::Backward(const RnnContext& context,
                          const std::vector<float>& dhidden_final) {
  CA_CHECK_EQ(dhidden_final.size(), hidden_dim_);
  const std::size_t steps = context.inputs.size();
  if (steps == 0) return;  // Empty sequence: the output was a constant zero.
  CA_CHECK_EQ(context.hiddens.size(), steps);

  std::vector<float> dhidden = dhidden_final;
  for (std::size_t t = steps; t-- > 0;) {
    const std::vector<float>& hidden = context.hiddens[t];
    const std::vector<float>& input = context.inputs[t];
    const std::vector<float>* prev_hidden =
        t > 0 ? &context.hiddens[t - 1] : nullptr;

    // Through the tanh: dpre = dhidden * (1 - h^2).
    std::vector<float> dpre(hidden_dim_);
    for (std::size_t h = 0; h < hidden_dim_; ++h) {
      dpre[h] = dhidden[h] * (1.0f - hidden[h] * hidden[h]);
    }

    std::vector<float> dprev(hidden_dim_, 0.0f);
    for (std::size_t h = 0; h < hidden_dim_; ++h) {
      const float g = dpre[h];
      if (g == 0.0f) continue;  // analyze:allow(float-eq): sparsity skip
      bias_.grad(0, h) += g;
      math::Axpy(g, input.data(), wx_.grad.Row(h), input_dim_);
      if (prev_hidden != nullptr) {
        math::Axpy(g, prev_hidden->data(), wh_.grad.Row(h), hidden_dim_);
        math::Axpy(g, wh_.value.Row(h), dprev.data(), hidden_dim_);
      }
    }
    dhidden = std::move(dprev);
  }
}

ParameterList RnnEncoder::Parameters() { return {&wx_, &wh_, &bias_}; }

}  // namespace copyattack::nn

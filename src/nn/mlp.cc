#include "nn/mlp.h"

#include "util/check.h"

namespace copyattack::nn {

Mlp::Mlp(std::string name, const std::vector<std::size_t>& dims,
         util::Rng& rng, Activation hidden_activation, float init_stddev)
    : hidden_activation_(hidden_activation) {
  CA_CHECK_GE(dims.size(), 2U);
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(name + "/layer" + std::to_string(i), dims[i],
                         dims[i + 1], rng, init_stddev);
  }
}

std::size_t Mlp::InitDrawCount(const std::vector<std::size_t>& dims) {
  std::size_t draws = 0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    draws += dims[i] * dims[i + 1];
  }
  return draws;
}

std::size_t Mlp::ParameterCount(const std::vector<std::size_t>& dims) {
  std::size_t count = InitDrawCount(dims);
  for (std::size_t i = 1; i < dims.size(); ++i) count += dims[i];
  return count;
}

std::vector<float> Mlp::Forward(const std::vector<float>& in,
                                MlpContext* context) const {
  CA_CHECK(context != nullptr);
  context->activations.clear();
  context->activations.push_back(in);
  std::vector<float> current = in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    std::vector<float> next;
    layers_[i].Forward(current, &next);
    if (i + 1 < layers_.size()) {
      ApplyActivation(hidden_activation_, next);
    }
    context->activations.push_back(next);
    current = std::move(next);
  }
  return current;
}

void Mlp::Backward(const MlpContext& context,
                   const std::vector<float>& dlogits,
                   std::vector<float>* din) {
  CA_CHECK_EQ(context.activations.size(), layers_.size() + 1);
  std::vector<float> dout = dlogits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i + 1 < layers_.size()) {
      // dout currently holds dL/d(post-activation of layer i); convert to
      // dL/d(pre-activation).
      ApplyActivationGrad(hidden_activation_, context.activations[i + 1],
                          dout);
    }
    std::vector<float> dinput;
    layers_[i].Backward(context.activations[i], dout,
                        (i == 0 && din == nullptr) ? nullptr : &dinput);
    dout = std::move(dinput);
  }
  if (din != nullptr) {
    *din = std::move(dout);
  }
}

ParameterList Mlp::Parameters() {
  ParameterList params;
  for (auto& layer : layers_) {
    AppendParameters(params, layer.Parameters());
  }
  return params;
}

}  // namespace copyattack::nn

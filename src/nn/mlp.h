#ifndef COPYATTACK_NN_MLP_H_
#define COPYATTACK_NN_MLP_H_

#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/parameter.h"
#include "util/rng.h"

namespace copyattack::nn {

/// Activations recorded during `Mlp::Forward`, needed by `Mlp::Backward`.
/// Contexts are caller-owned so an `Mlp` itself is immutable during
/// inference and multiple forward passes can be replayed independently.
struct MlpContext {
  /// activations[0] is the input; activations[i+1] is the output of layer i
  /// after its nonlinearity.
  std::vector<std::vector<float>> activations;
};

/// Multi-layer perceptron with ReLU hidden layers and an identity output
/// layer (producing raw logits). This is the body of every policy network
/// in the paper: the per-tree-node selection policies and the crafting
/// policy.
class Mlp {
 public:
  /// `dims` = {input, hidden..., output}; at least {in, out}.
  Mlp(std::string name, const std::vector<std::size_t>& dims, util::Rng& rng,
      Activation hidden_activation = Activation::kRelu,
      float init_stddev = 0.1f);

  /// Number of `Normal()` draws the constructor takes from `rng` for
  /// `dims`: one per weight, since biases start at zero.
  static std::size_t InitDrawCount(const std::vector<std::size_t>& dims);

  /// Learnable scalars of an MLP with `dims` (weights plus biases).
  static std::size_t ParameterCount(const std::vector<std::size_t>& dims);

  std::size_t in_dim() const { return layers_.front().in_dim(); }
  std::size_t out_dim() const { return layers_.back().out_dim(); }

  /// Runs the network; fills `context` for a later `Backward` and returns
  /// the output logits.
  std::vector<float> Forward(const std::vector<float>& in,
                             MlpContext* context) const;

  /// Accumulates parameter gradients given dL/dlogits. If `din` is not null
  /// it receives dL/dinput. `context` must come from a matching `Forward`.
  void Backward(const MlpContext& context, const std::vector<float>& dlogits,
                std::vector<float>* din);

  /// All learnable parameters, layer by layer.
  ParameterList Parameters();

 private:
  std::vector<DenseLayer> layers_;
  Activation hidden_activation_;
};

}  // namespace copyattack::nn

#endif  // COPYATTACK_NN_MLP_H_

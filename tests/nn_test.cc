#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_seed.h"

#include "math/sampling.h"
#include "math/vector_ops.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "nn/reinforce.h"
#include "nn/rnn.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace copyattack::nn {
namespace {

TEST(ActivationsTest, Sigmoid) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(Sigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(-100.0f), 0.0f, 1e-6f);
  // Symmetry: sigma(-x) = 1 - sigma(x).
  EXPECT_NEAR(Sigmoid(-1.3f), 1.0f - Sigmoid(1.3f), 1e-6f);
}

TEST(ActivationsTest, ReluForwardBackward) {
  std::vector<float> v = {-1.0f, 0.0f, 2.0f};
  ApplyActivation(Activation::kRelu, v);
  EXPECT_FLOAT_EQ(v[0], 0.0f);
  EXPECT_FLOAT_EQ(v[2], 2.0f);
  std::vector<float> g = {1.0f, 1.0f, 1.0f};
  ApplyActivationGrad(Activation::kRelu, v, g);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(ActivationsTest, TanhGradFromOutputs) {
  std::vector<float> v = {0.5f};
  ApplyActivation(Activation::kTanh, v);
  const float y = v[0];
  std::vector<float> g = {1.0f};
  ApplyActivationGrad(Activation::kTanh, v, g);
  EXPECT_NEAR(g[0], 1.0f - y * y, 1e-6f);
}

TEST(DenseTest, ForwardComputesAffineMap) {
  util::Rng rng(testhelpers::TestSeed(1));
  DenseLayer layer("d", 2, 2, rng, 0.0f);  // zero weights
  // Weights are zero; output must equal bias (also zero).
  std::vector<float> out;
  layer.Forward({1.0f, 2.0f}, &out);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(MlpTest, ConstructionDrawsExactlyInitDrawCountNormals) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 4, 2}, {5, 1}, {40, 16, 7}, {3, 5, 5, 2}};
  for (const auto& dims : shapes) {
    for (const bool start_cached : {false, true}) {
      util::Rng built(testhelpers::TestSeed(29));
      util::Rng skipped(testhelpers::TestSeed(29));
      if (start_cached) {
        built.Normal();
        skipped.Normal();
      }
      Mlp mlp("m", dims, built);
      skipped.SkipNormals(Mlp::InitDrawCount(dims));
      const util::RngState a = built.SaveState();
      const util::RngState b = skipped.SaveState();
      for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(a.words[i], b.words[i]);
      EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
      EXPECT_EQ(a.cached_normal, b.cached_normal);

      std::size_t parameters = 0;
      for (const Parameter* p : mlp.Parameters()) parameters += p->value.size();
      EXPECT_EQ(Mlp::ParameterCount(dims), parameters);
    }
  }
}

/// Finite-difference gradient check for the whole MLP: perturb each
/// parameter, compare numeric dL/dw against the analytic accumulation,
/// with L = sum(out * coefficients).
TEST(MlpTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(testhelpers::TestSeed(7));
  Mlp mlp("m", {3, 4, 2}, rng, Activation::kTanh, 0.5f);
  const std::vector<float> input = {0.3f, -0.7f, 1.1f};
  const std::vector<float> coeff = {1.0f, -2.0f};

  auto loss = [&]() {
    MlpContext ctx;
    const auto out = mlp.Forward(input, &ctx);
    return out[0] * coeff[0] + out[1] * coeff[1];
  };

  MlpContext ctx;
  mlp.Forward(input, &ctx);
  std::vector<float> din;
  mlp.Backward(ctx, coeff, &din);

  const float eps = 1e-3f;
  for (Parameter* p : mlp.Parameters()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.size(), 8);
         ++i) {
      float* w = p->value.data() + i;
      const float original = *w;
      *w = original + eps;
      const float up = loss();
      *w = original - eps;
      const float down = loss();
      *w = original;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, 5e-2f)
          << p->name << "[" << i << "]";
    }
  }

  // Input gradient check.
  for (std::size_t i = 0; i < input.size(); ++i) {
    std::vector<float> perturbed = input;
    perturbed[i] += eps;
    MlpContext up_ctx;
    const auto up_out = mlp.Forward(perturbed, &up_ctx);
    perturbed[i] -= 2 * eps;
    MlpContext down_ctx;
    const auto down_out = mlp.Forward(perturbed, &down_ctx);
    const float numeric =
        ((up_out[0] - down_out[0]) * coeff[0] +
         (up_out[1] - down_out[1]) * coeff[1]) /
        (2.0f * eps);
    EXPECT_NEAR(din[i], numeric, 5e-2f) << "din[" << i << "]";
  }
}

TEST(MlpTest, ReluHiddenGradientsMatchFiniteDifferences) {
  util::Rng rng(testhelpers::TestSeed(11));
  Mlp mlp("m", {2, 5, 3}, rng, Activation::kRelu, 0.5f);
  const std::vector<float> input = {0.9f, -0.4f};
  const std::vector<float> coeff = {0.5f, 1.5f, -1.0f};

  auto loss = [&]() {
    MlpContext ctx;
    const auto out = mlp.Forward(input, &ctx);
    float total = 0.0f;
    for (std::size_t i = 0; i < out.size(); ++i) total += out[i] * coeff[i];
    return total;
  };

  MlpContext ctx;
  mlp.Forward(input, &ctx);
  mlp.Backward(ctx, coeff, nullptr);

  const float eps = 1e-3f;
  for (Parameter* p : mlp.Parameters()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.size(), 6);
         ++i) {
      float* w = p->value.data() + i;
      const float original = *w;
      *w = original + eps;
      const float up = loss();
      *w = original - eps;
      const float down = loss();
      *w = original;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2.0f * eps), 5e-2f)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(RnnTest, EmptySequenceEncodesToZero) {
  util::Rng rng(testhelpers::TestSeed(3));
  RnnEncoder rnn("r", 4, 3, rng);
  RnnContext ctx;
  const auto hidden = rnn.Forward({}, &ctx);
  ASSERT_EQ(hidden.size(), 3U);
  for (const float h : hidden) EXPECT_FLOAT_EQ(h, 0.0f);
  // Backward on empty context must be a no-op (no crash, no grads).
  rnn.Backward(ctx, {1.0f, 1.0f, 1.0f});
  for (Parameter* p : rnn.Parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.SquaredNorm(), 0.0);
  }
}

TEST(RnnTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(testhelpers::TestSeed(5));
  RnnEncoder rnn("r", 3, 2, rng, 0.5f);
  const std::vector<std::vector<float>> sequence = {
      {0.1f, -0.2f, 0.3f}, {0.5f, 0.4f, -0.1f}, {-0.6f, 0.2f, 0.2f}};
  const std::vector<float> coeff = {1.0f, -1.5f};

  auto loss = [&]() {
    RnnContext ctx;
    const auto hidden = rnn.Forward(sequence, &ctx);
    return hidden[0] * coeff[0] + hidden[1] * coeff[1];
  };

  RnnContext ctx;
  rnn.Forward(sequence, &ctx);
  rnn.Backward(ctx, coeff);

  const float eps = 1e-3f;
  for (Parameter* p : rnn.Parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      float* w = p->value.data() + i;
      const float original = *w;
      *w = original + eps;
      const float up = loss();
      *w = original - eps;
      const float down = loss();
      *w = original;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2.0f * eps), 5e-2f)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(OptimizerTest, SgdMovesAgainstGradient) {
  Parameter p("w", 1, 2);
  p.value(0, 0) = 1.0f;
  p.grad(0, 0) = 2.0f;
  Sgd sgd(0.1f);
  sgd.Step({&p});
  EXPECT_NEAR(p.value(0, 0), 0.8f, 1e-6f);
  // Gradient is consumed.
  EXPECT_FLOAT_EQ(p.grad(0, 0), 0.0f);
}

TEST(OptimizerTest, GlobalNormClipping) {
  Parameter p("w", 1, 2);
  p.grad(0, 0) = 3.0f;
  p.grad(0, 1) = 4.0f;  // norm 5
  ClipGradientsByGlobalNorm({&p}, 1.0f);
  EXPECT_NEAR(std::sqrt(p.grad.SquaredNorm()), 1.0, 1e-5);
  // Below the threshold: untouched.
  Parameter q("w2", 1, 1);
  q.grad(0, 0) = 0.5f;
  ClipGradientsByGlobalNorm({&q}, 1.0f);
  EXPECT_FLOAT_EQ(q.grad(0, 0), 0.5f);
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  Parameter p("w", 1, 1);
  p.value(0, 0) = 10.0f;
  Sgd sgd(0.1f);
  for (int step = 0; step < 200; ++step) {
    p.grad(0, 0) = 2.0f * (p.value(0, 0) - 3.0f);
    sgd.Step({&p});
  }
  EXPECT_NEAR(p.value(0, 0), 3.0f, 1e-3f);
}

TEST(ReinforceTest, DiscountedReturns) {
  const auto returns = DiscountedReturns({1.0, 0.0, 2.0}, 0.5);
  ASSERT_EQ(returns.size(), 3U);
  EXPECT_DOUBLE_EQ(returns[2], 2.0);
  EXPECT_DOUBLE_EQ(returns[1], 1.0);
  EXPECT_DOUBLE_EQ(returns[0], 1.5);
}

TEST(ReinforceTest, DiscountedReturnsGammaZero) {
  const auto returns = DiscountedReturns({1.0, 2.0, 3.0}, 0.0);
  EXPECT_DOUBLE_EQ(returns[0], 1.0);
  EXPECT_DOUBLE_EQ(returns[1], 2.0);
  EXPECT_DOUBLE_EQ(returns[2], 3.0);
}

TEST(ReinforceTest, PolicyGradientLogitsShape) {
  const std::vector<float> probs = {0.2f, 0.3f, 0.5f};
  const auto d = PolicyGradientLogits(probs, 1, 2.0);
  // (p - onehot) * advantage
  EXPECT_NEAR(d[0], 0.4f, 1e-6f);
  EXPECT_NEAR(d[1], -1.4f, 1e-6f);
  EXPECT_NEAR(d[2], 1.0f, 1e-6f);
  // Gradient sums to zero over the simplex directions.
  EXPECT_NEAR(d[0] + d[1] + d[2], 0.0f, 1e-6f);
}

TEST(ReinforceTest, PolicyGradientRespectsMask) {
  const std::vector<float> probs = {0.0f, 0.4f, 0.6f};
  const auto d =
      PolicyGradientLogits(probs, 2, 1.0, {false, true, true});
  EXPECT_FLOAT_EQ(d[0], 0.0f);
  EXPECT_NEAR(d[1], 0.4f, 1e-6f);
  EXPECT_NEAR(d[2], -0.4f, 1e-6f);
}

TEST(ReinforceTest, EntropyBonusPushesTowardUniform) {
  // A peaked distribution should receive gradient that raises the small
  // probabilities' logits relative to the large one (loss -beta*H).
  const std::vector<float> probs = {0.9f, 0.05f, 0.05f};
  std::vector<float> d(3, 0.0f);
  AddEntropyBonusGrad(probs, 0.1, {true, true, true}, d);
  // Descending the loss (subtracting d) must increase entropy: the
  // dominant logit gets positive grad (is decreased), the tails negative.
  EXPECT_GT(d[0], 0.0f);
  EXPECT_LT(d[1], 0.0f);
}

TEST(ReinforceTest, MovingBaselineTracksReturns) {
  MovingBaseline baseline(0.5);
  EXPECT_DOUBLE_EQ(baseline.value(), 0.0);
  baseline.Update(1.0);
  EXPECT_DOUBLE_EQ(baseline.value(), 1.0);  // first observation initializes
  baseline.Update(3.0);
  EXPECT_DOUBLE_EQ(baseline.value(), 2.0);
  // Advantage is computed against the pre-update baseline.
  const double adv = baseline.Update(2.0);
  EXPECT_DOUBLE_EQ(adv, 0.0);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  util::Rng rng(testhelpers::TestSeed(19));
  Mlp mlp("s", {2, 3, 2}, rng, Activation::kRelu, 0.3f);
  std::stringstream blob;
  ASSERT_TRUE(SaveParameters(mlp.Parameters(), blob));

  // Clone architecture, load, compare outputs.
  util::Rng rng2(testhelpers::TestSeed(999));
  Mlp copy("s", {2, 3, 2}, rng2, Activation::kRelu, 0.3f);
  ASSERT_TRUE(LoadParameters(copy.Parameters(), blob));

  MlpContext ctx_a, ctx_b;
  const auto a = mlp.Forward({0.5f, -0.5f}, &ctx_a);
  const auto b = copy.Forward({0.5f, -0.5f}, &ctx_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

TEST(SerializeTest, LoadRejectsMismatchedArchitecture) {
  util::Rng rng(testhelpers::TestSeed(19));
  Mlp mlp("s", {2, 3, 2}, rng, Activation::kRelu, 0.3f);
  std::stringstream blob;
  ASSERT_TRUE(SaveParameters(mlp.Parameters(), blob));
  Mlp other("s", {2, 4, 2}, rng, Activation::kRelu, 0.3f);
  EXPECT_FALSE(LoadParameters(other.Parameters(), blob));
}

/// REINFORCE sanity: on a 3-armed bandit with deterministic rewards, the
/// policy should concentrate on the best arm.
TEST(ReinforceTest, LearnsBanditWithSoftmaxPolicy) {
  util::Rng rng(testhelpers::TestSeed(77));
  Mlp policy("bandit", {1, 8, 3}, rng, Activation::kTanh, 0.5f);
  Sgd sgd(0.2f);
  const std::vector<float> state = {1.0f};
  const std::vector<double> arm_rewards = {0.1, 0.9, 0.3};

  MovingBaseline baseline(0.8);
  for (int episode = 0; episode < 400; ++episode) {
    MlpContext ctx;
    std::vector<float> probs = policy.Forward(state, &ctx);
    math::SoftmaxInPlace(probs);
    const std::size_t action = math::SampleCategorical(probs, rng);
    const double reward = arm_rewards[action];
    const double advantage = reward - baseline.value();
    baseline.Update(reward);
    const auto dlogits = PolicyGradientLogits(probs, action, advantage);
    policy.Backward(ctx, dlogits, nullptr);
    sgd.Step(policy.Parameters());
  }

  MlpContext ctx;
  std::vector<float> probs = policy.Forward(state, &ctx);
  math::SoftmaxInPlace(probs);
  EXPECT_GT(probs[1], 0.8f) << "policy failed to learn the best arm";
}

}  // namespace
}  // namespace copyattack::nn

#include "nn/gru.h"

namespace copyattack::nn {
namespace {

TEST(GruTest, EmptySequenceEncodesToZero) {
  util::Rng rng(testhelpers::TestSeed(3));
  GruEncoder gru("g", 4, 3, rng);
  GruContext ctx;
  const auto hidden = gru.Forward({}, &ctx);
  ASSERT_EQ(hidden.size(), 3U);
  for (const float h : hidden) EXPECT_FLOAT_EQ(h, 0.0f);
  gru.Backward(ctx, {1.0f, 1.0f, 1.0f});
  for (Parameter* p : gru.Parameters()) {
    EXPECT_DOUBLE_EQ(p->grad.SquaredNorm(), 0.0);
  }
}

TEST(GruTest, HiddenStaysBounded) {
  util::Rng rng(testhelpers::TestSeed(5));
  GruEncoder gru("g", 3, 4, rng, 0.5f);
  std::vector<std::vector<float>> sequence;
  for (int t = 0; t < 50; ++t) {
    sequence.push_back({1.0f, -1.0f, 0.5f});
  }
  GruContext ctx;
  const auto hidden = gru.Forward(sequence, &ctx);
  for (const float h : hidden) {
    EXPECT_LE(std::abs(h), 1.0f) << "GRU hidden is a convex combination of "
                                    "tanh outputs, so |h| <= 1";
  }
}

TEST(GruTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(testhelpers::TestSeed(7));
  GruEncoder gru("g", 3, 2, rng, 0.5f);
  const std::vector<std::vector<float>> sequence = {
      {0.1f, -0.2f, 0.3f}, {0.5f, 0.4f, -0.1f}, {-0.6f, 0.2f, 0.2f}};
  const std::vector<float> coeff = {1.0f, -1.5f};

  auto loss = [&]() {
    GruContext ctx;
    const auto hidden = gru.Forward(sequence, &ctx);
    return hidden[0] * coeff[0] + hidden[1] * coeff[1];
  };

  GruContext ctx;
  gru.Forward(sequence, &ctx);
  gru.Backward(ctx, coeff);

  const float eps = 1e-3f;
  for (Parameter* p : gru.Parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      float* w = p->value.data() + i;
      const float original = *w;
      *w = original + eps;
      const float up = loss();
      *w = original - eps;
      const float down = loss();
      *w = original;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2.0f * eps), 5e-2f)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(GruTest, DeterministicForward) {
  util::Rng rng_a(testhelpers::TestSeed(9)), rng_b(testhelpers::TestSeed(9));
  GruEncoder a("g", 2, 3, rng_a);
  GruEncoder b("g", 2, 3, rng_b);
  GruContext ctx_a, ctx_b;
  const std::vector<std::vector<float>> seq = {{0.3f, 0.7f}, {-0.2f, 0.1f}};
  const auto ha = a.Forward(seq, &ctx_a);
  const auto hb = b.Forward(seq, &ctx_b);
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_FLOAT_EQ(ha[i], hb[i]);
  }
}

}  // namespace
}  // namespace copyattack::nn

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"

namespace frlfi {
namespace {

/// Finite-difference check of dLoss/dInput and dLoss/dParams for a network
/// under the scalar loss L = sum(output). Returns max relative error.
double gradient_check(Network& net, const Tensor& input) {
  const double eps = 1e-3;
  const auto loss = [&](const Tensor& x) {
    return static_cast<double>(net.forward(x).sum());
  };

  // Analytic gradients.
  net.zero_grad();
  const Tensor out = net.forward(input);
  const Tensor grad_in = net.backward(Tensor(out.shape(), 1.0f));

  double max_err = 0.0;
  // Input gradient.
  for (std::size_t i = 0; i < input.size(); ++i) {
    Tensor xp = input, xm = input;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double num = (loss(xp) - loss(xm)) / (2 * eps);
    const double err = std::abs(num - grad_in[i]) /
                       std::max(1.0, std::abs(num) + std::abs(grad_in[i]));
    max_err = std::max(max_err, err);
  }
  // Parameter gradients (recompute analytic after the perturbing passes
  // overwrote caches).
  net.zero_grad();
  net.forward(input);
  net.backward(Tensor(out.shape(), 1.0f));
  for (Parameter* p : net.parameters()) {
    std::vector<float> analytic = p->grad.data();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = loss(input);
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = loss(input);
      p->value[i] = saved;
      const double num = (lp - lm) / (2 * eps);
      const double err = std::abs(num - analytic[i]) /
                         std::max(1.0, std::abs(num) + std::abs(analytic[i]));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  Dense d(2, 2, rng, "d");
  d.weight().value = Tensor::from_vector({1, 2, 3, 4}).reshaped({2, 2});
  d.bias().value = Tensor::from_vector({0.5f, -0.5f});
  const Tensor y = d.forward(Tensor::from_vector({1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(Dense, RejectsWrongInputSize) {
  Rng rng(1);
  Dense d(3, 2, rng);
  EXPECT_THROW(d.forward(Tensor({4})), Error);
  EXPECT_THROW(d.backward(Tensor({2})), Error);  // before forward
}

TEST(Dense, GradientCheck) {
  Rng rng(2);
  Network net;
  net.add(std::make_unique<Dense>(4, 3, rng));
  const Tensor x = Tensor::random_uniform({4}, rng, -1, 1);
  EXPECT_LT(gradient_check(net, x), 1e-3);
}

TEST(Dense, XavierInitBounded) {
  Rng rng(3);
  Dense d(100, 100, rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_GE(d.weight().value.min(), -bound);
  EXPECT_LE(d.weight().value.max(), bound);
  EXPECT_EQ(d.bias().value.sum(), 0.0f);
}

TEST(Conv2D, OutExtentFormula) {
  Rng rng(1);
  Conv2D c(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(c.out_extent(5), 3u);  // (5+2-3)/2+1
  Conv2D c2(1, 1, 4, 3, 0, rng);
  EXPECT_EQ(c2.out_extent(18), 5u);
}

TEST(Conv2D, ForwardIdentityKernel) {
  Rng rng(1);
  Conv2D c(1, 1, 1, 1, 0, rng);
  c.weight().value = Tensor({1, 1, 1, 1}, 2.0f);
  c.bias().value = Tensor({1}, 1.0f);
  Tensor x({1, 2, 2});
  x.at3(0, 0, 0) = 1;
  x.at3(0, 1, 1) = 3;
  const Tensor y = c.forward(x);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 1, 1), 7.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 1.0f);
}

TEST(Conv2D, ForwardSumKernel) {
  Rng rng(1);
  Conv2D c(1, 1, 2, 1, 0, rng);
  c.weight().value = Tensor({1, 1, 2, 2}, 1.0f);
  c.bias().value = Tensor({1}, 0.0f);
  Tensor x({1, 2, 3});
  for (std::size_t i = 0; i < 6; ++i) x[i] = static_cast<float>(i + 1);
  // x = [[1 2 3],[4 5 6]]; 2x2 sums: [1+2+4+5, 2+3+5+6] = [12, 16]
  const Tensor y = c.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 16.0f);
}

TEST(Conv2D, PaddingContributesZeros) {
  Rng rng(1);
  Conv2D c(1, 1, 3, 1, 1, rng);
  c.weight().value = Tensor({1, 1, 3, 3}, 1.0f);
  c.bias().value = Tensor({1}, 0.0f);
  const Tensor y = c.forward(Tensor({1, 2, 2}, 1.0f));
  // Corner output touches 4 real pixels (others are padding).
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 4.0f);
}

TEST(Conv2D, GradientCheck) {
  Rng rng(5);
  Network net;
  net.add(std::make_unique<Conv2D>(2, 3, 3, 2, 1, rng));
  const Tensor x = Tensor::random_uniform({2, 5, 6}, rng, -1, 1);
  EXPECT_LT(gradient_check(net, x), 1e-3);
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2D c(3, 4, 3, 1, 0, rng);
  EXPECT_THROW(c.forward(Tensor({2, 5, 5})), Error);
}

TEST(MaxPool2D, ForwardPicksMaxima) {
  MaxPool2D p(2);
  Tensor x({1, 2, 4});
  for (std::size_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  const Tensor y = p.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D p(2);
  Tensor x({1, 2, 2});
  x[3] = 10.0f;
  p.forward(x);
  const Tensor g = p.backward(Tensor({1, 1, 1}, 1.0f));
  EXPECT_FLOAT_EQ(g[3], 1.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool2D, BackwardStaysInsideAllNegInfWindow) {
  // A window where nothing beats the argmax seed (all -inf, as after a
  // fault) must still route its gradient to one of its own taps, not to
  // flat input 0 in the neighbouring window.
  MaxPool2D p(2);
  Tensor x({1, 2, 4}, 1.0f);
  for (const std::size_t i : {2, 3, 6, 7})
    x[i] = -std::numeric_limits<float>::infinity();
  p.forward(x);
  const Tensor g = p.backward(Tensor({1, 1, 2}, 1.0f));
  EXPECT_FLOAT_EQ(g[0], 1.0f);
  EXPECT_FLOAT_EQ(g[2] + g[3] + g[6] + g[7], 1.0f);
}

TEST(MaxPool2D, GradientCheckThroughNet) {
  Rng rng(6);
  Network net;
  net.add(std::make_unique<Conv2D>(1, 2, 3, 1, 1, rng));
  net.add(std::make_unique<MaxPool2D>(2));
  const Tensor x = Tensor::random_uniform({1, 4, 4}, rng, -1, 1);
  EXPECT_LT(gradient_check(net, x), 1e-3);
}

TEST(ReLU, ForwardBackward) {
  ReLU r;
  const Tensor y = r.forward(Tensor::from_vector({-1, 0, 2}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g = r.backward(Tensor::from_vector({5, 5, 5}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);  // gradient is zero at the kink's left side
  EXPECT_FLOAT_EQ(g[2], 5.0f);
}

TEST(Tanh, ForwardBackwardMatchesDerivative) {
  Tanh t;
  const Tensor y = t.forward(Tensor::from_vector({0.5f}));
  EXPECT_NEAR(y[0], std::tanh(0.5f), 1e-6);
  const Tensor g = t.backward(Tensor::from_vector({1.0f}));
  EXPECT_NEAR(g[0], 1.0f - std::tanh(0.5f) * std::tanh(0.5f), 1e-6);
}

TEST(Flatten, RoundTripsShape) {
  Flatten f;
  const Tensor y = f.forward(Tensor({2, 3, 4}, 1.0f));
  EXPECT_EQ(y.rank(), 1u);
  EXPECT_EQ(y.size(), 24u);
  const Tensor g = f.backward(y);
  EXPECT_EQ(g.shape(), (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Softmax, SumsToOneAndOrders) {
  const Tensor p = softmax(Tensor::from_vector({1, 2, 3}));
  EXPECT_NEAR(p.sum(), 1.0f, 1e-6);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, StableForHugeLogits) {
  const Tensor p = softmax(Tensor::from_vector({1000.0f, 1001.0f}));
  EXPECT_NEAR(p.sum(), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(LogSoftmaxAt, MatchesLogOfSoftmax) {
  const Tensor logits = Tensor::from_vector({0.3f, -1.2f, 2.0f});
  const Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(log_softmax_at(logits, i), std::log(p[i]), 1e-5);
}

TEST(Layers, CloneDropsCachesButKeepsParams) {
  Rng rng(7);
  Dense d(2, 2, rng);
  d.forward(Tensor({2}, 1.0f));
  auto copy = d.clone();
  // The clone must refuse backward before its own forward.
  EXPECT_THROW(copy->backward(Tensor({2}, 1.0f)), Error);
  auto* dc = dynamic_cast<Dense*>(copy.get());
  ASSERT_NE(dc, nullptr);
  EXPECT_TRUE(dc->weight().value.equals(d.weight().value));
}

TEST(Layers, NamesDescribeConfiguration) {
  Rng rng(1);
  EXPECT_NE(Dense(2, 3, rng, "fc").name().find("2->3"), std::string::npos);
  EXPECT_NE(Conv2D(1, 2, 3, 1, 0, rng, "cv").name().find("k3"),
            std::string::npos);
  EXPECT_NE(MaxPool2D(2).name().find("2x2"), std::string::npos);
}

}  // namespace
}  // namespace frlfi

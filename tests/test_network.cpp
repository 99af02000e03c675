#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "fault/overlay.hpp"
#include "frl/policies.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"

namespace frlfi {
namespace {

Network small_net(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(3, 4, rng, "a"))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(4, 2, rng, "b"));
  return net;
}

TEST(Network, ForwardShapesAndLayerAccess) {
  Rng rng(1);
  Network net = small_net(rng);
  EXPECT_EQ(net.layer_count(), 3u);
  const Tensor y = net.forward(Tensor({3}, 0.5f));
  EXPECT_EQ(y.size(), 2u);
  EXPECT_THROW(net.layer(3), Error);
}

TEST(Network, EmptyNetworkRejectsUse) {
  Network net;
  EXPECT_THROW(net.forward(Tensor({1}, 0.0f)), Error);
  EXPECT_THROW(net.backward(Tensor({1}, 0.0f)), Error);
  EXPECT_THROW(net.add(nullptr), Error);
}

TEST(Network, ParameterCountMatchesTopology) {
  Rng rng(2);
  Network net = small_net(rng);
  EXPECT_EQ(net.parameter_count(), 3u * 4 + 4 + 4 * 2 + 2);
  EXPECT_EQ(net.parameters().size(), 4u);  // two weights, two biases
}

TEST(Network, FlatParametersRoundTrip) {
  Rng rng(3);
  Network net = small_net(rng);
  std::vector<float> flat = net.flat_parameters();
  ASSERT_EQ(flat.size(), net.parameter_count());
  for (auto& v : flat) v += 1.0f;
  net.set_flat_parameters(flat);
  EXPECT_EQ(net.flat_parameters(), flat);
}

TEST(Network, SetFlatRejectsWrongSize) {
  Rng rng(4);
  Network net = small_net(rng);
  EXPECT_THROW(net.set_flat_parameters(std::vector<float>(3)), Error);
}

TEST(Network, CloneIsDeepAndIndependent) {
  Rng rng(5);
  Network net = small_net(rng);
  Network copy = net.clone();
  EXPECT_EQ(copy.flat_parameters(), net.flat_parameters());
  std::vector<float> flat = copy.flat_parameters();
  flat[0] += 9.0f;
  copy.set_flat_parameters(flat);
  EXPECT_NE(copy.flat_parameters(), net.flat_parameters());
}

TEST(Network, CloneComputesSameOutputs) {
  Rng rng(6);
  Network net = small_net(rng);
  Network copy = net.clone();
  const Tensor x = Tensor::random_uniform({3}, rng, -1, 1);
  EXPECT_TRUE(net.forward(x).equals(copy.forward(x)));
}

TEST(Network, ZeroGradClearsAccumulators) {
  Rng rng(7);
  Network net = small_net(rng);
  net.forward(Tensor({3}, 1.0f));
  net.backward(Tensor({2}, 1.0f));
  bool any_nonzero = false;
  for (Parameter* p : net.parameters())
    for (float g : p->grad.data()) any_nonzero |= (g != 0.0f);
  EXPECT_TRUE(any_nonzero);
  net.zero_grad();
  for (Parameter* p : net.parameters())
    for (float g : p->grad.data()) EXPECT_EQ(g, 0.0f);
}

TEST(Network, ActivationHookSeesEveryLayer) {
  Rng rng(8);
  Network net = small_net(rng);
  std::vector<std::size_t> seen;
  net.set_activation_hook([&](std::size_t i, Tensor&) { seen.push_back(i); });
  net.forward(Tensor({3}, 1.0f));
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Network, ActivationHookCanMutate) {
  Rng rng(9);
  Network net = small_net(rng);
  const Tensor clean = net.forward(Tensor({3}, 1.0f));
  net.set_activation_hook([](std::size_t i, Tensor& act) {
    if (i == 2) act.fill(0.0f);  // zero the final output
  });
  const Tensor hooked = net.forward(Tensor({3}, 1.0f));
  EXPECT_EQ(hooked.sum(), 0.0f);
  net.set_activation_hook(nullptr);
  EXPECT_TRUE(net.forward(Tensor({3}, 1.0f)).equals(clean));
}

TEST(Network, LaneViewRunsReachTheHookOncePerLayerInRowOrder) {
  // Contiguous rows sharing a lane view run as one sub-batch, so the hook
  // sees each run's batch-inner activations separately, runs in row order.
  Rng rng(15);
  Network net = small_net(rng);
  const std::size_t batch = 5;
  const DeployedWeights deployed =
      DeployedWeights::int8_image(net.flat_parameters());
  const WeightView view = deployed.view(nullptr);
  const std::vector<const WeightView*> lanes{nullptr, nullptr, &view, &view,
                                             nullptr};
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  net.set_activation_hook([&](std::size_t i, Tensor& act) {
    calls.emplace_back(i, act.shape().back());
  });
  net.forward_batch(Tensor({batch, 3}, 0.5f), batch, lanes);
  std::vector<std::pair<std::size_t, std::size_t>> want;
  for (const std::size_t width : {2u, 2u, 1u})
    for (std::size_t layer = 0; layer < net.layer_count(); ++layer)
      want.emplace_back(layer, width);
  EXPECT_EQ(calls, want);
}

TEST(Network, InferenceEntriesRejectMalformedViews) {
  Rng rng(14);
  Network net = small_net(rng);
  const std::size_t batch = 3;
  const Tensor obs({3}, 0.5f);
  const Tensor xb({batch, 3}, 0.5f);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(net.flat_parameters());
  const WeightView view = deployed.view(nullptr);
  const QuantWeightView qview = deployed.quant_view(nullptr);
  WeightView short_view = view;
  short_view.params -= 1;
  QuantWeightView short_qview = qview;
  short_qview.params -= 1;

  // Well-formed views and lane lists are accepted.
  EXPECT_NO_THROW(net.forward(obs, &view));
  EXPECT_NO_THROW(net.forward_quant(obs, qview));
  const std::vector<const WeightView*> lanes(batch, &view);
  const std::vector<const QuantWeightView*> qlanes(batch, &qview);
  EXPECT_NO_THROW(net.forward_batch(xb, batch, lanes));
  EXPECT_NO_THROW(net.forward_batch_quant(xb, batch, qview, qlanes));

  // A view whose length is not parameter_count().
  EXPECT_THROW(net.forward(obs, &short_view), Error);
  EXPECT_THROW(net.forward_quant(obs, short_qview), Error);
  EXPECT_THROW(net.forward_batch_quant(xb, batch, short_qview), Error);

  // lane_views of the wrong length.
  const std::vector<const WeightView*> few(batch - 1, &view);
  const std::vector<const QuantWeightView*> qfew(batch - 1, &qview);
  EXPECT_THROW(net.forward_batch(xb, batch, few), Error);
  EXPECT_THROW(net.forward_batch_quant(xb, batch, qview, qfew), Error);

  // A wrong-size lane entry.
  const std::vector<const WeightView*> bad{&view, &short_view, nullptr};
  const std::vector<const QuantWeightView*> qbad{nullptr, &short_qview,
                                                 &qview};
  EXPECT_THROW(net.forward_batch(xb, batch, bad), Error);
  EXPECT_THROW(net.forward_batch_quant(xb, batch, qview, qbad), Error);
}

TEST(Network, SaveLoadParameters) {
  Rng rng(10);
  Network net = small_net(rng);
  std::stringstream ss;
  net.save_parameters(ss);
  Rng rng2(99);
  Network other = small_net(rng2);
  EXPECT_NE(other.flat_parameters(), net.flat_parameters());
  other.load_parameters(ss);
  EXPECT_EQ(other.flat_parameters(), net.flat_parameters());
}

TEST(Network, LoadRejectsWrongTopology) {
  Rng rng(11);
  Network net = small_net(rng);
  std::stringstream ss;
  net.save_parameters(ss);
  Network bigger;
  bigger.add(std::make_unique<Dense>(10, 10, rng));
  EXPECT_THROW(bigger.load_parameters(ss), Error);
}

TEST(Network, GridworldPolicyTopology) {
  Rng rng(12);
  Network net = make_gridworld_policy(rng);
  const Tensor y = net.forward(Tensor({10}, 0.0f));
  EXPECT_EQ(y.size(), 4u);
}

TEST(Network, DronePolicyTopology) {
  Rng rng(13);
  Network net = make_drone_policy(rng);
  const Tensor y = net.forward(Tensor({3, 18, 32}, 0.1f));
  EXPECT_EQ(y.size(), 25u);
}

}  // namespace
}  // namespace frlfi

/// \file bench_micro_overhead.cpp
/// Google-benchmark micro-benchmarks backing the paper's overhead claims:
/// the fault injector, the range detector scan (the §V-B runtime cost,
/// <2.7% of a policy step), checkpoint save/restore (§V-A, asynchronous),
/// the synchronous smoothing-average server round, and the policy forward
/// passes they are measured against.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/campaign.hpp"
#include "fault/injector.hpp"
#include "federated/server.hpp"
#include "frl/policies.hpp"
#include "golden/golden.hpp"
#include "mitigation/checkpoint.hpp"
#include "mitigation/range_detector.hpp"
#include "nn/conv2d.hpp"

namespace frlfi {
namespace {

Network& grid_policy() {
  static Rng rng(1);
  static Network net = make_gridworld_policy(rng);
  return net;
}

Network& drone_policy() {
  static Rng rng(2);
  static Network net = make_drone_policy(rng);
  return net;
}

void BM_GridPolicyForward(benchmark::State& state) {
  Network& net = grid_policy();
  const Tensor obs({10}, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(obs));
}
BENCHMARK(BM_GridPolicyForward);

void BM_DronePolicyForward(benchmark::State& state) {
  Network& net = drone_policy();
  const Tensor obs({3, 18, 32}, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(obs));
}
BENCHMARK(BM_DronePolicyForward);

// Batched inference pair: B per-sample forwards vs one rank-4
// forward_batch over the same B observations (items = samples, so the
// items/sec columns are directly comparable).
void BM_DronePolicyForwardLoop(benchmark::State& state) {
  Network& net = drone_policy();
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<Tensor> obs;
  for (std::size_t b = 0; b < batch; ++b)
    obs.push_back(Tensor::random_uniform({3, 18, 32}, rng, 0.0f, 1.0f));
  for (auto _ : state)
    for (const Tensor& o : obs) benchmark::DoNotOptimize(net.forward(o));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DronePolicyForwardLoop)->Arg(16)->Arg(64);

void BM_DronePolicyForwardBatch(benchmark::State& state) {
  Network& net = drone_policy();
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  const Tensor obs =
      Tensor::random_uniform({batch, 3, 18, 32}, rng, 0.0f, 1.0f);
  for (auto _ : state)
    benchmark::DoNotOptimize(net.forward_batch(obs, batch));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DronePolicyForwardBatch)->Arg(16)->Arg(64);

// Before/after pair for the im2col+GEMM tentpole: the naive 7-deep loop
// reference vs the production forward at the first (dominant) drone conv.
void BM_DroneConvForwardNaive(benchmark::State& state) {
  Rng rng(7);
  Conv2D conv(3, 6, 4, 3, 0, rng, "conv0");
  const Tensor obs({3, 18, 32}, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward_naive(obs));
}
BENCHMARK(BM_DroneConvForwardNaive);

void BM_DroneConvForwardGemm(benchmark::State& state) {
  Rng rng(7);
  Conv2D conv(3, 6, 4, 3, 0, rng, "conv0");
  const Tensor obs({3, 18, 32}, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(obs));
}
BENCHMARK(BM_DroneConvForwardGemm);

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Tensor a = Tensor::random_uniform({n, n}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::random_uniform({n, n}, rng, -1.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(Tensor::matmul(a, b));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulBlocked)->Arg(64)->Arg(128);

void BM_CampaignSerialVsParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  CampaignConfig cfg{.seed = 42, .trials = 200, .threads = threads};
  auto trial = [](Rng& rng) {
    double acc = 0.0;
    for (int i = 0; i < 2000; ++i) acc += rng.uniform();
    return acc;
  };
  for (auto _ : state) benchmark::DoNotOptimize(run_campaign(cfg, trial));
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_CampaignSerialVsParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_InjectInt8(benchmark::State& state) {
  std::vector<float> weights(static_cast<std::size_t>(state.range(0)), 0.5f);
  FaultSpec spec;
  spec.ber = 1e-3;
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(inject_int8(weights, spec, rng));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InjectInt8)->Arg(1540)->Arg(4131);

// Reference vs library fixed-point injector: the frozen in-place per-bit
// flip_bit loop (tests/golden) vs the DeployedWeights strike over the
// fixed-word kernel. Same Bernoulli stream, bit-identical outcomes
// (asserted in test_fault_overlay.cpp). Both sides draw one Bernoulli per
// bit, so at low BER they are RNG-bound; the second arg is the negated
// BER exponent: 3 -> 1e-3, 1 -> 1e-1.
void BM_InjectFixedPointReference(benchmark::State& state) {
  std::vector<float> weights(static_cast<std::size_t>(state.range(0)), 0.5f);
  FaultSpec spec;
  spec.ber = std::pow(10.0, -static_cast<double>(state.range(1)));
  Rng rng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(golden::inject_fixed_point_reference(
        weights, FixedPointFormat::q1_7_8(), spec, rng));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InjectFixedPointReference)
    ->Args({4131, 3})
    ->Args({4131, 1});

void BM_InjectFixedPoint(benchmark::State& state) {
  std::vector<float> weights(static_cast<std::size_t>(state.range(0)), 0.5f);
  FaultSpec spec;
  spec.ber = std::pow(10.0, -static_cast<double>(state.range(1)));
  Rng rng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        inject_fixed_point(weights, FixedPointFormat::q1_7_8(), spec, rng));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InjectFixedPoint)->Args({1540, 3})->Args({4131, 3})->Args({4131, 1});

void BM_RangeDetectorScan(benchmark::State& state) {
  Network& net = drone_policy();
  const RangeAnomalyDetector detector(net, {.margin = 0.10});
  for (auto _ : state) benchmark::DoNotOptimize(detector.scan(net));
}
BENCHMARK(BM_RangeDetectorScan);

void BM_RangeDetectorSuppress(benchmark::State& state) {
  Network& net = drone_policy();
  const RangeAnomalyDetector detector(net, {.margin = 0.10});
  for (auto _ : state) benchmark::DoNotOptimize(detector.scan_and_suppress(net));
}
BENCHMARK(BM_RangeDetectorSuppress);

void BM_CheckpointSave(benchmark::State& state) {
  CheckpointStore store(1);
  const std::vector<float> params(4131, 0.5f);
  std::size_t round = 0;
  for (auto _ : state) benchmark::DoNotOptimize(store.offer(++round, params));
}
BENCHMARK(BM_CheckpointSave);

// One synchronous server round (clean-channel uplink, smoothing average,
// consensus, downlink) over n DroneNav-sized parameter rows; each round's
// downlinks are the next round's uploads.
void BM_ServerRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 4131;
  ParameterServer server(n, dim, AlphaSchedule(n, 0.5));
  std::vector<float> rows(n * dim);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = 0.5f + 1e-4f * static_cast<float>(i % 97);
  std::vector<std::size_t> agents(n);
  for (std::size_t i = 0; i < n; ++i) agents[i] = i;
  const std::vector<AgentRoundStatus> status(n, AgentRoundStatus::Present);
  const ParameterServer::RobustRoundOptions opts;
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.communicate_round(
        rows, agents, status, opts, rng, nullptr, /*run_post_hook=*/false));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_ServerRound)->Arg(4)->Arg(12);

void BM_WeightRestoreGuard(benchmark::State& state) {
  Network& net = grid_policy();
  for (auto _ : state) {
    WeightRestoreGuard guard(net);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WeightRestoreGuard);

}  // namespace
}  // namespace frlfi

BENCHMARK_MAIN();

/// \file test_quant_forward.cpp
/// The int8-native inference plane, end to end:
///  * quant batched == quant single, BIT-identical, for every batch width,
///    with and without per-lane word overlays, for both paper policies
///    (per-sample activation scales + exact int32 accumulation leave this
///    plane no width tolerance at all, conv policies included — unlike the
///    float plane);
///  * the quant forward tracks its float shadow (the same deployed image
///    read as dequantized floats) within the per-layer quantization
///    tolerance;
///  * DeployedWeights::inject_quant is the word-level twin of inject():
///    same RNG stream, same flip sites, dequantizes to the identical float
///    overlay, across BERs and burst shapes;
///  * QuantWeightView reads through a word overlay exactly as if the
///    overlay had been flipped into a materialized int8 image;
///  * the evaluation plane: serial golden::greedy_episode_quant ==
///    batched lanes, serial Int8 Trans-1 == batched Int8 Trans-1, and an
///    Int8 clean campaign is thread-count invariant.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "envs/gridworld.hpp"
#include "fault/overlay.hpp"
#include "frl/evaluation.hpp"
#include "frl/policies.hpp"
#include "golden/golden.hpp"
#include "mitigation/range_detector.hpp"
#include "nn/network.hpp"

namespace frlfi {
namespace {

const std::size_t kBatches[] = {1, 2, 3, 5, 8, 16};

// Empirical quantization tolerance of a whole-network forward on the
// deployed image (headroom 2): per-layer activation rounding accumulates
// to well under these bounds on the paper policies' logits (observed max
// ~0.005 on both policies over 20 random inputs; the 10x gate leaves
// margin for seed drift while still catching any kernel or
// scale-plumbing bug, which shows up orders of magnitude larger).
constexpr float kGridworldQuantTol = 0.05f;
constexpr float kDroneQuantTol = 0.05f;

Tensor random_batch(const std::vector<std::size_t>& sample_shape,
                    std::size_t batch, std::uint64_t seed) {
  std::vector<std::size_t> shape{batch};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  Rng rng(seed);
  return Tensor::random_uniform(shape, rng, -1.0f, 1.0f);
}

Tensor row_of(const Tensor& batch_tensor, std::size_t b,
              const std::vector<std::size_t>& sample_shape) {
  Tensor s(sample_shape);
  std::memcpy(s.data().data(),
              batch_tensor.data().data() + b * s.size(),
              s.size() * sizeof(float));
  return s;
}

std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// The exactness centerpiece: batched and overlaid quant forwards all
// reproduce the single-sample quant forward bit-for-bit.
void expect_quant_batched_matches_single(
    Network& policy, const std::vector<std::size_t>& sample_shape,
    const DeployedWeights& deployed, const char* what) {
  const QuantWeightView qview = deployed.quant_view(nullptr);
  FaultSpec strike;
  strike.model = FaultModel::TransientPersistent;
  strike.ber = 0.02;
  for (const std::size_t batch : kBatches) {
    const Tensor x = random_batch(sample_shape, batch, 500 + batch);

    // Clean: no lane views.
    const Tensor clean = policy.forward_batch_quant(x, batch, qview);
    const std::size_t width = clean.size() / batch;
    for (std::size_t b = 0; b < batch; ++b) {
      const Tensor y = policy.forward_quant(row_of(x, b, sample_shape), qview);
      ASSERT_EQ(y.size(), width) << what;
      for (std::size_t i = 0; i < width; ++i)
        ASSERT_EQ(bits_of(clean[b * width + i]), bits_of(y[i]))
            << what << " clean batch " << batch << " row " << b;
    }

    // Per-lane word overlays: every third lane strikes its own corruption.
    std::vector<QuantOverlay> overlays(batch);
    std::vector<QuantWeightView> views;
    views.reserve(batch);
    std::vector<const QuantWeightView*> lanes(batch, nullptr);
    Rng strike_rng(900 + batch);
    for (std::size_t b = 0; b < batch; ++b) {
      if (b % 3 != 1) continue;
      deployed.inject_quant(strike, strike_rng, overlays[b]);
      views.push_back(deployed.quant_view(&overlays[b]));
      lanes[b] = &views.back();
    }
    const Tensor overlaid = policy.forward_batch_quant(x, batch, qview, lanes);
    for (std::size_t b = 0; b < batch; ++b) {
      const Tensor y = policy.forward_quant(row_of(x, b, sample_shape),
                                            lanes[b] ? *lanes[b] : qview);
      for (std::size_t i = 0; i < width; ++i)
        ASSERT_EQ(bits_of(overlaid[b * width + i]), bits_of(y[i]))
            << what << " overlaid batch " << batch << " row " << b;
    }
  }
}

void expect_quant_tracks_float_shadow(
    Network& policy, const std::vector<std::size_t>& sample_shape,
    const DeployedWeights& deployed, float tol, const char* what) {
  const QuantWeightView qview = deployed.quant_view(nullptr);
  const WeightView fview = deployed.view(nullptr);
  float max_diff = 0.0f;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const Tensor x = random_batch(sample_shape, 1, 7000 + trial);
    const Tensor sample = row_of(x, 0, sample_shape);
    const Tensor qy = policy.forward_quant(sample, qview);
    const Tensor fy = policy.forward(sample, &fview);
    ASSERT_EQ(qy.shape(), fy.shape()) << what;
    for (std::size_t i = 0; i < qy.size(); ++i)
      max_diff = std::max(max_diff, std::fabs(qy[i] - fy[i]));
  }
  EXPECT_LT(max_diff, tol) << what;
}

TEST(QuantForward, GridworldBatchedMatchesSingleBitExact) {
  Rng init(41);
  Network policy = make_gridworld_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  expect_quant_batched_matches_single(policy, {10}, deployed, "gridworld");
}

TEST(QuantForward, DroneBatchedMatchesSingleBitExact) {
  Rng init(42);
  Network policy = make_drone_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  expect_quant_batched_matches_single(policy, {3, 18, 32}, deployed, "drone");
}

TEST(QuantForward, GridworldTracksFloatShadow) {
  Rng init(43);
  Network policy = make_gridworld_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  expect_quant_tracks_float_shadow(policy, {10}, deployed, kGridworldQuantTol,
                                   "gridworld");
}

TEST(QuantForward, DroneTracksFloatShadow) {
  Rng init(44);
  Network policy = make_drone_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  expect_quant_tracks_float_shadow(policy, {3, 18, 32}, deployed,
                                   kDroneQuantTol, "drone");
}

TEST(QuantForward, CorruptedLanesTrackFloatShadow) {
  // The same strike read on both planes (word overlay vs dequantized
  // float overlay) keeps the two forwards within the clean tolerance:
  // effective weights are bit-identical between planes, so only
  // activation rounding separates them — corruption adds nothing.
  Rng init(45);
  Network policy = make_gridworld_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  FaultSpec spec;
  spec.model = FaultModel::TransientPersistent;
  spec.ber = 0.01;
  Rng rf(77), rq(77);
  WeightOverlay fo;
  QuantOverlay qo;
  deployed.inject(spec, rf, fo);
  deployed.inject_quant(spec, rq, qo);
  const WeightView fview = deployed.view(&fo);
  const QuantWeightView qview = deployed.quant_view(&qo);
  float max_diff = 0.0f;
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const Tensor x = random_batch({10}, 1, 8100 + trial);
    const Tensor sample = row_of(x, 0, {10});
    const Tensor qy = policy.forward_quant(sample, qview);
    const Tensor fy = policy.forward(sample, &fview);
    for (std::size_t i = 0; i < qy.size(); ++i)
      max_diff = std::max(max_diff, std::fabs(qy[i] - fy[i]));
  }
  EXPECT_LT(max_diff, kGridworldQuantTol);
}

TEST(QuantOverlayLock, InjectQuantIsWordLevelTwinOfInject) {
  // Same spec, same starting rng state: inject() and inject_quant() must
  // consume the stream identically, hit the same flat indices, and the
  // quant words must dequantize to exactly the float overlay's values.
  Rng init(3);
  Network policy = make_gridworld_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  const double bers[] = {0.0005, 0.01, 0.08};
  const BurstSpec bursts[] = {
      {}, {4, BurstAxis::Row}, {3, BurstAxis::Column}};
  for (const double ber : bers) {
    for (const BurstSpec& burst : bursts) {
      FaultSpec spec;
      spec.model = FaultModel::TransientPersistent;
      spec.ber = ber;
      spec.burst = burst;
      Rng rf(99), rq(99);
      WeightOverlay fo;
      QuantOverlay qo;
      const InjectionReport rep_f = deployed.inject(spec, rf, fo);
      const InjectionReport rep_q = deployed.inject_quant(spec, rq, qo);
      EXPECT_EQ(rep_f.bits_flipped, rep_q.bits_flipped);
      EXPECT_EQ(rep_f.bits_total, rep_q.bits_total);
      // And both match the frozen in-place int8 injector.
      std::vector<float> in_place = policy.flat_parameters();
      Rng rg(99);
      const InjectionReport rep_g =
          golden::inject_int8(in_place, spec, rg, 2.0f);
      std::vector<float> materialized = deployed.base();
      fo.apply_to(materialized);
      EXPECT_EQ(materialized, in_place);
      EXPECT_EQ(rep_g.bits_flipped, rep_f.bits_flipped);
      ASSERT_EQ(fo.indices, qo.indices)
          << "ber " << ber << " burst " << burst.length;
      for (std::size_t i = 0; i < qo.size(); ++i)
        EXPECT_EQ(bits_of(fo.values[i]),
                  bits_of(static_cast<float>(qo.words[i]) *
                          deployed.int8_scale()))
            << "entry " << i;
      // All three paths left the streams at the same position.
      const std::uint64_t next = rf.uniform_index(1u << 30);
      EXPECT_EQ(next, rq.uniform_index(1u << 30));
      EXPECT_EQ(next, rg.uniform_index(1u << 30));
    }
  }
}

TEST(QuantViewLock, OverlayReadsMatchMaterializedFlippedImage) {
  // QuantWeightView::at / span through a word overlay must equal reading
  // an int8 image with the overlay's words written into it — across BERs
  // and burst shapes, for hit and miss windows alike.
  Rng init(5);
  Network policy = make_gridworld_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  const std::size_t params = deployed.size();
  const double bers[] = {0.001, 0.02, 0.1};
  const BurstSpec bursts[] = {
      {}, {5, BurstAxis::Row}, {2, BurstAxis::Column}};
  Rng rng(4242);
  for (const double ber : bers) {
    for (const BurstSpec& burst : bursts) {
      FaultSpec spec;
      spec.model = FaultModel::TransientPersistent;
      spec.ber = ber;
      spec.burst = burst;
      QuantOverlay overlay;
      deployed.inject_quant(spec, rng, overlay);
      std::vector<std::int8_t> flipped = deployed.int8_words();
      overlay.apply_to(flipped);
      const QuantWeightView view = deployed.quant_view(&overlay);
      for (std::size_t i = 0; i < params; ++i)
        ASSERT_EQ(view.at(i), flipped[i]) << "index " << i;
      std::vector<std::int8_t> scratch;
      const std::size_t windows[][2] = {
          {0, params}, {0, 1}, {params - 1, 1}, {params / 3, params / 2}};
      for (const auto& w : windows) {
        const std::int8_t* p = view.span(w[0], w[1], scratch);
        EXPECT_EQ(std::memcmp(p, flipped.data() + w[0], w[1]), 0)
            << "window [" << w[0] << ", +" << w[1] << ")";
      }
    }
  }
}

TEST(QuantEvaluation, BatchedLanesMatchSerialQuantEpisodes) {
  // Lockstep quant lanes == serial golden::greedy_episode_quant per lane,
  // bit-identical stats (no width tolerance on this plane even though
  // trajectories chain argmax decisions).
  Rng init(51);
  Network policy = make_gridworld_policy(init);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  const QuantWeightView qview = deployed.quant_view(nullptr);
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;
  opts.slip_probability = 0.25;
  const std::size_t lanes = 6, max_steps = 40;
  std::vector<EpisodeStats> serial;
  for (std::size_t i = 0; i < lanes; ++i) {
    GridWorldEnv env(suite[i % suite.size()], opts);
    Rng rng = Rng(55).derive_stream({i});
    serial.push_back(golden::greedy_episode_quant(policy, env, rng, max_steps, qview));
  }
  std::vector<std::unique_ptr<GridWorldEnv>> envs;
  std::vector<Environment*> ptrs;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < lanes; ++i) {
    envs.push_back(
        std::make_unique<GridWorldEnv>(suite[i % suite.size()], opts));
    ptrs.push_back(envs.back().get());
    rngs.push_back(Rng(55).derive_stream({i}));
  }
  const std::vector<EpisodeStats> batched =
      greedy_episodes_batched(policy, ptrs, rngs, max_steps, nullptr, &qview);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(batched[i].steps, serial[i].steps) << "lane " << i;
    EXPECT_EQ(batched[i].success, serial[i].success) << "lane " << i;
    EXPECT_EQ(batched[i].total_reward, serial[i].total_reward)
        << "lane " << i;
  }
}

TEST(QuantEvaluation, Trans1BatchedMatchesSerialInt8) {
  // Int8 Trans-1: the batched runner (per-lane word overlays through
  // forward_batch_quant) reproduces the serial Int8
  // golden::greedy_episode_trans1 bit-for-bit, detector screening included.
  Rng init(52);
  Network policy = make_gridworld_policy(init);
  RangeAnomalyDetector detector(policy, {.margin = 0.10});
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.05;
  scenario.use_int8 = true;
  scenario.mode = InferenceMode::Int8;
  scenario.detector = &detector;
  const DeployedWeights deployed = make_deployed_weights(policy, scenario);
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;
  opts.slip_probability = 0.2;
  const std::size_t lanes = 5, max_steps = 35;
  std::vector<EpisodeStats> serial;
  for (std::size_t i = 0; i < lanes; ++i) {
    GridWorldEnv env(suite[i % suite.size()], opts);
    Rng rng = Rng(66).derive_stream({i});
    serial.push_back(
        golden::greedy_episode_trans1(policy, env, rng, max_steps, scenario));
  }
  std::vector<std::unique_ptr<GridWorldEnv>> envs;
  std::vector<Environment*> ptrs;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < lanes; ++i) {
    envs.push_back(
        std::make_unique<GridWorldEnv>(suite[i % suite.size()], opts));
    ptrs.push_back(envs.back().get());
    rngs.push_back(Rng(66).derive_stream({i}));
  }
  const std::vector<EpisodeStats> batched = greedy_episodes_trans1_batched(
      policy, deployed, scenario, ptrs, rngs, max_steps);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(batched[i].steps, serial[i].steps) << "lane " << i;
    EXPECT_EQ(batched[i].success, serial[i].success) << "lane " << i;
    EXPECT_EQ(batched[i].total_reward, serial[i].total_reward)
        << "lane " << i;
  }
}

TEST(QuantEvaluation, Int8CampaignThreadCountInvariant) {
  // A clean campaign on the int8 plane (spec.mode = Int8) is bit-identical
  // for every thread count, like its float twin.
  Rng init(53);
  Network policy = make_gridworld_policy(init);
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;
  opts.slip_probability = 0.3;
  const auto run = [&](std::size_t threads) {
    BatchedCampaignSpec spec;
    spec.episodes = 7;
    spec.agents = 4;
    spec.max_steps = 30;
    spec.seed = 88;
    spec.threads = threads;
    spec.mode = InferenceMode::Int8;
    return run_batched_inference_campaign(
        policy, spec,
        [&](std::size_t a) {
          return std::make_unique<GridWorldEnv>(suite[a % suite.size()], opts);
        },
        [](std::size_t, const Environment&, const EpisodeStats& stats) {
          return static_cast<double>(stats.total_reward) +
                 static_cast<double>(stats.steps);
        });
  };
  const std::vector<double> serial = run(1);
  ASSERT_EQ(serial.size(), 7u * 4u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}})
    EXPECT_EQ(run(threads), serial) << "threads " << threads;
}

TEST(QuantDetector, QuantScreenMatchesFloatScreen) {
  // The detector's quant overload must suppress exactly the entries the
  // float overload suppresses on the equivalent float overlay — word 0
  // standing in for 0.0f — with and without the base_hits fast path, and
  // the float screen must repair exactly what the in-place network scan
  // repairs.
  Rng init(54);
  Network policy = make_gridworld_policy(init);
  RangeAnomalyDetector detector(policy, {.margin = 0.10});
  const DeployedWeights deployed =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  const std::vector<std::size_t> base_hits = detector.base_out_of_range(
      std::span<const float>(deployed.base()));
  FaultSpec spec;
  spec.model = FaultModel::TransientPersistent;
  spec.ber = 0.03;
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rf(seed), rq(seed);
    WeightOverlay fo;
    QuantOverlay qo;
    deployed.inject(spec, rf, fo);
    deployed.inject_quant(spec, rq, qo);
    QuantOverlay qo_fast = qo;
    // Independent reference: materialize the strike into a network and
    // let the in-place scan_and_suppress(net) repair it.
    Network in_place = policy.clone();
    std::vector<float> struck = deployed.base();
    fo.apply_to(struck);
    in_place.set_flat_parameters(struck);
    const std::size_t n_ref = detector.scan_and_suppress(in_place);
    const std::size_t nf = detector.scan_and_suppress(
        std::span<const float>(deployed.base()), fo);
    const std::size_t nq = detector.scan_and_suppress(
        std::span<const float>(deployed.base()), deployed.int8_scale(), qo);
    const std::size_t nq_fast = detector.scan_and_suppress(
        std::span<const float>(deployed.base()), deployed.int8_scale(),
        qo_fast, &base_hits);
    EXPECT_EQ(nf, n_ref);
    std::vector<float> screened = deployed.base();
    fo.apply_to(screened);
    EXPECT_EQ(screened, in_place.flat_parameters());
    EXPECT_EQ(nq, nf);
    EXPECT_EQ(nq_fast, nf);
    ASSERT_EQ(qo.indices, fo.indices);
    EXPECT_EQ(qo_fast.indices, qo.indices);
    EXPECT_EQ(qo_fast.words, qo.words);
    for (std::size_t i = 0; i < qo.size(); ++i)
      EXPECT_EQ(bits_of(static_cast<float>(qo.words[i]) *
                        deployed.int8_scale()),
                bits_of(fo.values[i]))
          << "entry " << i;
  }
}

}  // namespace
}  // namespace frlfi

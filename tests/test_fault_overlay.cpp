/// \file test_fault_overlay.cpp
/// Equivalence lock for the non-mutating fault-overlay plane: a
/// DeployedWeights strike must be bit-identical to the frozen in-place
/// injectors of tests/golden — at the weight level across representations
/// and BERs, at the forward level through views (single-sample and
/// batched), and at the trajectory level for batched Trans-1 vs a frozen
/// serial mutate-and-restore episode.

#include "fault/overlay.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/error.hpp"
#include "envs/gridworld.hpp"
#include "fault/injector.hpp"
#include "frl/evaluation.hpp"
#include "frl/policies.hpp"
#include "golden/golden.hpp"
#include "mitigation/range_detector.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::ChainEnv;

std::vector<float> random_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-0.8, 0.8));
  return w;
}

/// Materialize base + overlay into a full vector.
std::vector<float> effective(const DeployedWeights& deployed,
                             const WeightOverlay& overlay) {
  std::vector<float> w = deployed.base();
  overlay.apply_to(w);
  return w;
}

TEST(WeightOverlay, Int8OverlayMatchesInPlaceAcrossBersAndModels) {
  const std::vector<float> clean = random_weights(300, 11);
  const FaultModel models[] = {FaultModel::TransientSingleStep,
                               FaultModel::StuckAt0, FaultModel::StuckAt1};
  const FlipDirection dirs[] = {FlipDirection::Any, FlipDirection::ZeroToOne,
                                FlipDirection::OneToZero};
  for (const float headroom : {1.0f, 2.0f}) {
    const DeployedWeights deployed =
        DeployedWeights::int8_image(clean, headroom);
    for (const double ber : {0.0, 1e-3, 0.05, 0.4}) {
      for (const FaultModel model : models) {
        for (const FlipDirection dir : dirs) {
          FaultSpec spec;
          spec.model = model;
          spec.ber = ber;
          spec.direction = dir;
          std::vector<float> in_place = clean;
          Rng rng_a(77), rng_b(77);
          const InjectionReport ra =
              golden::inject_int8(in_place, spec, rng_a, headroom);
          WeightOverlay overlay;
          const InjectionReport rb = deployed.inject(spec, rng_b, overlay);
          EXPECT_EQ(ra.bits_flipped, rb.bits_flipped);
          EXPECT_EQ(ra.bits_total, rb.bits_total);
          EXPECT_EQ(effective(deployed, overlay), in_place)
              << "ber " << ber << " headroom " << headroom;
          // Identical stream consumption: the generators stay in lockstep.
          EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
        }
      }
    }
  }
}

TEST(WeightOverlay, FixedPointOverlayMatchesInPlaceAcrossFormats) {
  const std::vector<float> clean = random_weights(250, 13);
  const FixedPointFormat formats[] = {FixedPointFormat::q1_4_11(),
                                      FixedPointFormat::q1_7_8(),
                                      FixedPointFormat::q1_10_5()};
  for (const auto& format : formats) {
    const DeployedWeights deployed =
        DeployedWeights::fixed_point_image(clean, format);
    for (const double ber : {0.0, 1e-3, 0.02, 0.3}) {
      for (const FaultModel model :
           {FaultModel::TransientSingleStep, FaultModel::StuckAt0,
            FaultModel::StuckAt1}) {
        FaultSpec spec;
        spec.model = model;
        spec.ber = ber;
        std::vector<float> in_place = clean;
        Rng rng_a(91), rng_b(91);
        const InjectionReport ra = golden::inject_fixed_point_reference(
            in_place, format, spec, rng_a);
        WeightOverlay overlay;
        const InjectionReport rb = deployed.inject(spec, rng_b, overlay);
        EXPECT_EQ(ra.bits_flipped, rb.bits_flipped);
        EXPECT_EQ(ra.bits_total, rb.bits_total);
        EXPECT_EQ(effective(deployed, overlay), in_place)
            << format.name() << " ber " << ber << " " << to_string(model);
        EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
      }
    }
  }
}

TEST(WeightOverlay, OverlayIsSparseAtLowBer) {
  const std::vector<float> clean = random_weights(4000, 17);
  const DeployedWeights deployed =
      DeployedWeights::fixed_point_image(clean, FixedPointFormat::q1_7_8());
  FaultSpec spec;
  spec.model = FaultModel::TransientSingleStep;
  spec.ber = 1e-3;
  Rng rng(5);
  WeightOverlay overlay;
  deployed.inject(spec, rng, overlay);
  EXPECT_GT(overlay.size(), 0u);
  // ~16 bits/word at BER 1e-3 corrupts ~1.6% of words; the overlay must
  // stay a small fraction of the policy, not a clone of it.
  EXPECT_LT(overlay.size(), clean.size() / 10);
}

TEST(WeightView, SpanResolvesBaseAndPatchedRanges) {
  const std::vector<float> base = {0.f, 1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f};
  WeightOverlay overlay;
  overlay.add(2, -2.f);
  overlay.add(5, -5.f);
  const WeightView view{base.data(), base.size(), &overlay};
  std::vector<float> scratch;
  // Untouched span: zero-copy pointer into base.
  EXPECT_EQ(view.span(6, 2, scratch), base.data() + 6);
  // Patched span: copied and overlaid.
  const float* p = view.span(1, 5, scratch);
  EXPECT_NE(p, base.data() + 1);
  EXPECT_EQ(p[0], 1.f);
  EXPECT_EQ(p[1], -2.f);
  EXPECT_EQ(p[4], -5.f);
  EXPECT_EQ(view.at(2), -2.f);
  EXPECT_EQ(view.at(3), 3.f);
}

/// Forward with a view vs mutate-forward-restore on the same network.
void expect_view_forward_matches(Network& net, const Tensor& obs,
                                 std::uint64_t seed, bool use_int8) {
  const std::vector<float> clean = net.flat_parameters();
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.02;
  scenario.use_int8 = use_int8;
  const DeployedWeights deployed = make_deployed_weights(net, scenario);
  WeightOverlay overlay;
  Rng rng_view(seed);
  trans1_strike_overlay(deployed, scenario, rng_view, overlay);
  const WeightView view = deployed.view(&overlay);

  // Reference: write the effective weights in place, forward, restore.
  std::vector<float> corrupted = deployed.base();
  overlay.apply_to(corrupted);
  net.set_flat_parameters(corrupted);
  const Tensor want = net.forward(obs);
  net.set_flat_parameters(clean);

  const Tensor got = net.forward(obs, &view);
  EXPECT_EQ(got.data(), want.data());
  // And the network really was left clean.
  EXPECT_EQ(net.flat_parameters(), clean);
}

TEST(WeightView, ForwardMatchesMutateRestoreMlp) {
  Rng init(31);
  Network net = make_gridworld_policy(init);
  Rng obs_rng(32);
  const Tensor obs = Tensor::random_uniform({10}, obs_rng, -1.0f, 1.0f);
  expect_view_forward_matches(net, obs, 101, /*use_int8=*/false);
  expect_view_forward_matches(net, obs, 102, /*use_int8=*/true);
}

TEST(WeightView, ForwardMatchesMutateRestoreConv) {
  Rng init(33);
  Network net = make_drone_policy(init);
  Rng obs_rng(34);
  const Tensor obs = Tensor::random_uniform({3, 18, 32}, obs_rng, 0.0f, 1.0f);
  expect_view_forward_matches(net, obs, 103, /*use_int8=*/false);
  expect_view_forward_matches(net, obs, 104, /*use_int8=*/true);
}

TEST(WeightView, BatchedPerLaneViewsMatchPerLaneMutateForwards) {
  // One batched forward, every lane reading a *different* corrupted weight
  // set, must equal the per-lane mutate-and-forward loop.
  Rng init(41);
  Network net = make_drone_policy(init);
  const std::vector<float> clean = net.flat_parameters();
  const std::size_t lanes = 6;
  Rng obs_rng(42);
  const Tensor xb =
      Tensor::random_uniform({lanes, 3, 18, 32}, obs_rng, 0.0f, 1.0f);

  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.01;
  const DeployedWeights deployed = make_deployed_weights(net, scenario);

  std::vector<WeightOverlay> overlays(lanes);
  std::vector<WeightView> views;
  std::vector<const WeightView*> lane_views;
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng(500 + l);
    deployed.inject(scenario.spec, rng, overlays[l]);
    views.push_back(deployed.view(&overlays[l]));
  }
  // Lane 3 stays clean (null view) to exercise mixed batches.
  for (std::size_t l = 0; l < lanes; ++l)
    lane_views.push_back(l == 3 ? nullptr : &views[l]);

  // Reference: per-lane mutate + single-sample forward.
  const std::size_t sample = 3 * 18 * 32;
  std::vector<Tensor> want;
  for (std::size_t l = 0; l < lanes; ++l) {
    Tensor obs({3, 18, 32});
    std::copy_n(xb.data().begin() + static_cast<std::ptrdiff_t>(l * sample),
                sample, obs.data().begin());
    if (lane_views[l] != nullptr) {
      std::vector<float> corrupted = deployed.base();
      overlays[l].apply_to(corrupted);
      net.set_flat_parameters(corrupted);
    }
    want.push_back(net.forward(obs));
    net.set_flat_parameters(clean);
  }

  const Tensor got = net.forward_batch(xb, lanes, lane_views);
  const std::size_t width = got.size() / lanes;
  for (std::size_t l = 0; l < lanes; ++l)
    for (std::size_t j = 0; j < width; ++j)
      EXPECT_EQ(got[l * width + j], want[l][j])
          << "lane " << l << " elem " << j;
  EXPECT_EQ(net.flat_parameters(), clean);
}

TEST(WeightOverlay, DetectorSuppressionMatchesInPlaceScan) {
  Rng init(51);
  Network net = make_gridworld_policy(init);
  const std::vector<float> clean = net.flat_parameters();
  const RangeAnomalyDetector detector(net, {.margin = 0.10});

  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.02;  // fixed-point default: plenty of outliers
  scenario.detector = &detector;
  const DeployedWeights deployed = make_deployed_weights(net, scenario);

  // Overlay path: inject + fold detector repairs into the overlay.
  WeightOverlay overlay;
  Rng rng_a(61);
  trans1_strike_overlay(deployed, scenario, rng_a, overlay);

  // Fast path: identical output from the precomputed-base-hits merge.
  const std::vector<std::size_t> base_hits = detector.base_out_of_range(
      std::span<const float>(deployed.base()));
  WeightOverlay overlay_fast;
  Rng rng_c(61);
  trans1_strike_overlay(deployed, scenario, rng_c, overlay_fast, &base_hits);
  EXPECT_EQ(overlay_fast.indices, overlay.indices);
  EXPECT_EQ(overlay_fast.values, overlay.values);

  // In-place reference: corrupt the network, then scan_and_suppress it.
  std::vector<float> corrupted = clean;
  Rng rng_b(61);
  golden::inject_fixed_point_reference(corrupted, scenario.fixed_format,
                                       scenario.spec, rng_b);
  net.set_flat_parameters(corrupted);
  const std::size_t in_place_hits = detector.scan_and_suppress(net);
  EXPECT_GT(in_place_hits, 0u);
  EXPECT_EQ(effective(deployed, overlay), net.flat_parameters());
  net.set_flat_parameters(clean);
}

TEST(WeightOverlay, DetectorRejectsOverlayPastCalibratedScalars) {
  Rng init(52);
  Network net = make_gridworld_policy(init);
  const RangeAnomalyDetector detector(net, {.margin = 0.10});
  const std::vector<float> base = net.flat_parameters();
  WeightOverlay overlay;
  overlay.add(base.size(), 1.0f);
  EXPECT_THROW(
      detector.scan_and_suppress(std::span<const float>(base), overlay), Error);
}

TEST(WeightOverlay, StaticFaultMatchesFrozenInPlaceReference) {
  // apply_static_inference_fault (deploy + strike overlay + detector
  // merge, materialized) must write exactly what the frozen in-place
  // corrupt-then-scan_and_suppress(net) sequence writes — for every static
  // model and for the Trans-1 strike the golden serial evaluator uses.
  Rng init(57);
  const Network proto = make_gridworld_policy(init);
  Network calib = proto.clone();
  const RangeAnomalyDetector detector(calib, {.margin = 0.10});
  for (const bool use_int8 : {false, true}) {
    for (const bool with_detector : {false, true}) {
      for (const FaultModel model :
           {FaultModel::TransientPersistent, FaultModel::StuckAt0,
            FaultModel::StuckAt1, FaultModel::TransientSingleStep}) {
        InferenceFaultScenario scenario;
        scenario.spec.model = model;
        scenario.spec.ber = 0.03;
        scenario.use_int8 = use_int8;
        if (with_detector) scenario.detector = &detector;
        Network frozen = proto.clone();
        Network routed = proto.clone();
        Rng rng_a(58), rng_b(58);
        const InjectionReport a =
            golden::apply_static_inference_fault(frozen, scenario, rng_a);
        const InjectionReport b =
            apply_static_inference_fault(routed, scenario, rng_b);
        EXPECT_EQ(a.bits_flipped, b.bits_flipped);
        EXPECT_EQ(a.bits_total, b.bits_total);
        EXPECT_EQ(frozen.flat_parameters(), routed.flat_parameters())
            << "int8 " << use_int8 << " detector " << with_detector << " "
            << to_string(model);
        EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
      }
    }
  }
}

TEST(BatchedTrans1, MatchesSerialCloneAndMutatePath) {
  // The acceptance lock: greedy_episodes_trans1_batched over per-lane
  // weight views reproduces the golden serial clone + WeightRestoreGuard
  // loop (golden::greedy_episode_trans1, striking through the frozen
  // golden::apply_static_inference_fault) bit-for-bit — same stats, same
  // env end-states — without ever touching the shared policy.
  Rng init(71);
  Network policy = make_gridworld_policy(init);
  const std::vector<float> clean = policy.flat_parameters();
  const RangeAnomalyDetector detector(policy, {.margin = 0.10});
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;
  opts.slip_probability = 0.2;

  const std::size_t lanes = 5, max_steps = 40;
  const auto lane_rng = [](std::size_t i) { return Rng(900).split(i); };

  // Without and with the range detector screening each strike.
  for (const bool with_detector : {false, true}) {
    InferenceFaultScenario scenario;
    scenario.spec.model = FaultModel::TransientSingleStep;
    scenario.spec.ber = 0.05;
    if (with_detector) scenario.detector = &detector;
    const DeployedWeights deployed = make_deployed_weights(policy, scenario);

    // Serial reference: private clone per lane, in-place corrupt+restore.
    std::vector<EpisodeStats> serial;
    for (std::size_t i = 0; i < lanes; ++i) {
      Network lane_policy = policy.clone();
      GridWorldEnv env(suite[i % suite.size()], opts);
      Rng rng = lane_rng(i);
      serial.push_back(golden::greedy_episode_trans1(lane_policy, env, rng,
                                                     max_steps, scenario));
    }

    std::vector<std::unique_ptr<GridWorldEnv>> envs;
    std::vector<Environment*> ptrs;
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < lanes; ++i) {
      envs.push_back(
          std::make_unique<GridWorldEnv>(suite[i % suite.size()], opts));
      ptrs.push_back(envs.back().get());
      rngs.push_back(lane_rng(i));
    }
    const std::vector<EpisodeStats> batched = greedy_episodes_trans1_batched(
        policy, deployed, scenario, ptrs, rngs, max_steps);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < lanes; ++i) {
      EXPECT_EQ(batched[i].steps, serial[i].steps)
          << "detector " << with_detector << " lane " << i;
      EXPECT_EQ(batched[i].success, serial[i].success)
          << "detector " << with_detector << " lane " << i;
      EXPECT_EQ(batched[i].total_reward, serial[i].total_reward)
          << "detector " << with_detector << " lane " << i;
    }
  }
  EXPECT_EQ(policy.flat_parameters(), clean);
}

/// Frozen pre-refactor implementation of inject_network_weights: flatten,
/// in-place int8 injection, restore. The overlay-routed production path
/// must keep reproducing it bit-for-bit.
InjectionReport frozen_inject_network_weights(Network& net,
                                              const FaultSpec& spec,
                                              Rng& rng) {
  std::vector<float> flat = net.flat_parameters();
  const InjectionReport report = golden::inject_int8(flat, spec, rng);
  net.set_flat_parameters(flat);
  return report;
}

/// Frozen pre-refactor implementation of inject_layer_weights: one
/// in-place int8 injection per parameter tensor of the layer.
InjectionReport frozen_inject_layer_weights(Network& net,
                                            std::size_t layer_index,
                                            const FaultSpec& spec, Rng& rng) {
  InjectionReport report;
  for (Parameter* p : net.layer(layer_index).parameters()) {
    std::vector<float>& w = p->value.data();
    const InjectionReport r = golden::inject_int8(w, spec, rng);
    report.bits_flipped += r.bits_flipped;
    report.bits_total += r.bits_total;
  }
  return report;
}

TEST(TrainingOverlay, NetworkInjectionMatchesFrozenInPlaceReference) {
  Rng init(21);
  const Network proto = make_drone_policy(init);
  for (const double ber : {1e-3, 0.02, 0.2}) {
    FaultSpec spec;
    spec.ber = ber;
    Network frozen = proto.clone();
    Network routed = proto.clone();
    Rng rng_a(77), rng_b(77);
    const InjectionReport a = frozen_inject_network_weights(frozen, spec, rng_a);
    const InjectionReport b = inject_network_weights(routed, spec, rng_b);
    EXPECT_EQ(a.bits_flipped, b.bits_flipped) << ber;
    EXPECT_EQ(a.bits_total, b.bits_total) << ber;
    EXPECT_EQ(frozen.flat_parameters(), routed.flat_parameters()) << ber;
    // Identical RNG consumption: the streams stay aligned afterwards.
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64()) << ber;
  }
}

TEST(TrainingOverlay, LayerInjectionMatchesFrozenPerTensorReference) {
  Rng init(22);
  Network proto = make_drone_policy(init);
  for (std::size_t li = 0; li < proto.layer_count(); ++li) {
    if (proto.layer(li).parameters().empty()) continue;
    FaultSpec spec;
    spec.ber = 0.02;
    Network frozen = proto.clone();
    Network routed = proto.clone();
    Rng rng_a(88 + li), rng_b(88 + li);
    const InjectionReport a =
        frozen_inject_layer_weights(frozen, li, spec, rng_a);
    const InjectionReport b = inject_layer_weights(routed, li, spec, rng_b);
    EXPECT_EQ(a.bits_flipped, b.bits_flipped) << "layer " << li;
    EXPECT_EQ(a.bits_total, b.bits_total) << "layer " << li;
    EXPECT_EQ(frozen.flat_parameters(), routed.flat_parameters())
        << "layer " << li;
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64()) << "layer " << li;
  }
}

TEST(TrainingOverlay, LayerViewForwardMatchesMaterializedInjection) {
  // The ablation-bench path: a layer-scoped overlay read through a view
  // must produce the same logits as materializing the same injection into
  // the network — so replaying fault plans over one shared snapshot is
  // exactly the old clone-per-trial loop, minus the clones.
  Rng init(23);
  Network shared = make_gridworld_policy(init);
  Rng obs_rng(24);
  const Tensor obs = Tensor::random_uniform({10}, obs_rng, -1.0f, 1.0f);
  for (std::size_t li = 0; li < shared.layer_count(); ++li) {
    if (shared.layer(li).parameters().empty()) continue;
    const LayerDeployedWeights deployed(shared, li);
    EXPECT_EQ(deployed.base().size(), shared.parameter_count());
    EXPECT_EQ(deployed.layer_begin(), shared.layer_offset(li));
    FaultSpec spec;
    spec.ber = 0.05;
    WeightOverlay overlay;
    Rng rng_a(99 + li), rng_b(99 + li);
    deployed.inject(spec, rng_a, overlay);
    // Overlay entries stay inside the layer's flat span.
    for (const std::size_t idx : overlay.indices) {
      EXPECT_GE(idx, deployed.layer_begin());
      EXPECT_LT(idx, deployed.layer_end());
    }
    const WeightView view = deployed.view(&overlay);
    const Tensor through_view = shared.forward(obs, &view);
    Network mutated = shared.clone();
    inject_layer_weights(mutated, li, spec, rng_b);
    const Tensor through_mutated = mutated.forward(obs);
    EXPECT_EQ(through_view.data(), through_mutated.data()) << "layer " << li;
  }
}

TEST(BatchedTrans1, CampaignMatchesOldSerialTrans1Reference) {
  // run_batched_inference_campaign's Trans-1 path must reproduce what the
  // pre-overlay implementation computed: per (agent, trial) stream
  // Rng(seed).split(salt + a).split(t), serial
  // golden::greedy_episode_trans1 on a private clone.
  Network policy = [] {
    Rng init(81);
    return make_gridworld_policy(init);
  }();
  // ChainEnv needs a 1-feature policy; reuse the gridworld policy over
  // GridWorldEnv instead.
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;

  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.03;

  BatchedCampaignSpec spec;
  spec.episodes = 4;
  spec.agents = 3;
  spec.max_steps = 30;
  spec.seed = 123;
  spec.trans1 = &scenario;

  const auto metric = [](std::size_t, const Environment&,
                         const EpisodeStats& stats) {
    return static_cast<double>(stats.total_reward) +
           static_cast<double>(stats.steps);
  };

  // Old-implementation reference.
  std::vector<double> want(spec.episodes * spec.agents);
  {
    Network lane_policy = policy.clone();
    std::vector<std::unique_ptr<GridWorldEnv>> envs;
    for (std::size_t a = 0; a < spec.agents; ++a)
      envs.push_back(
          std::make_unique<GridWorldEnv>(suite[a % suite.size()], opts));
    const Rng base(spec.seed);
    for (std::size_t t = 0; t < spec.episodes; ++t) {
      for (std::size_t a = 0; a < spec.agents; ++a) {
        Rng rng = base.split(spec.rng_salt + a).split(t);
        const EpisodeStats stats = golden::greedy_episode_trans1(
            lane_policy, *envs[a], rng, spec.max_steps, scenario);
        want[t * spec.agents + a] = metric(a, *envs[a], stats);
      }
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}}) {
    spec.threads = threads;
    const std::vector<double> got = run_batched_inference_campaign(
        policy, spec,
        [&](std::size_t a) {
          return std::make_unique<GridWorldEnv>(suite[a % suite.size()], opts);
        },
        metric);
    EXPECT_EQ(got, want) << "threads " << threads;
  }
}

}  // namespace
}  // namespace frlfi

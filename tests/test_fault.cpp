#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "fault/model.hpp"
#include "frl/evaluation.hpp"
#include "frl/policies.hpp"
#include "golden/golden.hpp"
#include "mitigation/range_detector.hpp"
#include "numeric/bitutil.hpp"

namespace frlfi {
namespace {

TEST(FaultModel, Names) {
  EXPECT_EQ(to_string(FaultModel::TransientSingleStep), "Trans-1");
  EXPECT_EQ(to_string(FaultModel::TransientPersistent), "Trans-M");
  EXPECT_EQ(to_string(FaultModel::StuckAt0), "Stuck-at-0");
  EXPECT_EQ(to_string(FaultModel::StuckAt1), "Stuck-at-1");
  EXPECT_EQ(to_string(FaultSite::AgentFault), "agent");
  EXPECT_EQ(to_string(FaultSite::ServerFault), "server");
}

/// The byte kernel's single-bit transient model.
std::size_t flip_bits(std::span<std::uint8_t> bytes, double ber, Rng& rng,
                      FlipDirection direction = FlipDirection::Any) {
  FaultSpec spec;
  spec.ber = ber;
  spec.direction = direction;
  return corrupt_bits_burst(bytes, spec, rng);
}

TEST(FlipBitsBer, ZeroBerIsNoOp) {
  std::vector<std::uint8_t> buf(64, 0xAA);
  Rng rng(1);
  EXPECT_EQ(flip_bits(buf, 0.0, rng), 0u);
  for (auto b : buf) EXPECT_EQ(b, 0xAA);
}

TEST(FlipBitsBer, FlipCountTracksBer) {
  std::vector<std::uint8_t> buf(4000, 0);
  Rng rng(2);
  const std::size_t flips = flip_bits(buf, 0.01, rng);
  const double expected = 4000 * 8 * 0.01;
  EXPECT_NEAR(static_cast<double>(flips), expected, expected * 0.4);
  EXPECT_EQ(popcount(buf), flips);  // starting from zero, flips = ones
}

TEST(FlipBitsBer, DirectionZeroToOneOnlySetsBits) {
  std::vector<std::uint8_t> buf(100, 0x0F);
  Rng rng(3);
  const std::size_t before = popcount(buf);
  const std::size_t flips = flip_bits(buf, 0.2, rng, FlipDirection::ZeroToOne);
  EXPECT_EQ(popcount(buf), before + flips);
}

TEST(FlipBitsBer, DirectionOneToZeroOnlyClearsBits) {
  std::vector<std::uint8_t> buf(100, 0xF0);
  Rng rng(4);
  const std::size_t before = popcount(buf);
  const std::size_t flips = flip_bits(buf, 0.2, rng, FlipDirection::OneToZero);
  EXPECT_EQ(popcount(buf), before - flips);
}

TEST(FlipBitsBer, BerOneWithAnyDirectionFlipsEverything) {
  std::vector<std::uint8_t> buf(8, 0x00);
  Rng rng(5);
  EXPECT_EQ(flip_bits(buf, 1.0, rng), 64u);
  for (auto b : buf) EXPECT_EQ(b, 0xFF);
}

TEST(FlipBitsBer, InvalidBerThrows) {
  std::vector<std::uint8_t> buf(1, 0);
  Rng rng(6);
  EXPECT_THROW(flip_bits(buf, -0.1, rng), Error);
  EXPECT_THROW(flip_bits(buf, 1.1, rng), Error);
}

TEST(StickBits, ForcesValueAndCountsChanges) {
  FaultSpec spec;
  spec.model = FaultModel::StuckAt0;
  spec.ber = 0.5;
  std::vector<std::uint8_t> buf(100, 0xFF);
  Rng rng(9);
  const std::size_t changed = corrupt_bits_burst(buf, spec, rng);
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(popcount(buf), 800u - changed);
  // Sticking already-zero bits to zero changes nothing.
  std::vector<std::uint8_t> zeros(100, 0x00);
  EXPECT_EQ(corrupt_bits_burst(zeros, spec, rng), 0u);
}

TEST(InjectInt8, CorruptsWeightsInPlace) {
  std::vector<float> w(200);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = 0.01f * static_cast<float>(i) - 1.0f;
  const std::vector<float> orig = w;
  FaultSpec spec;
  spec.ber = 0.05;
  Rng rng(10);
  const InjectionReport report = inject_int8(w, spec, rng);
  EXPECT_EQ(report.bits_total, 200u * 8);
  EXPECT_GT(report.bits_flipped, 0u);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < w.size(); ++i) changed += w[i] != orig[i];
  EXPECT_GT(changed, 0u);
}

TEST(InjectInt8, ZeroBerOnlyQuantizes) {
  std::vector<float> w{0.5f, -0.25f, 1.0f};
  FaultSpec spec;
  spec.ber = 0.0;
  Rng rng(11);
  const InjectionReport report = inject_int8(w, spec, rng);
  EXPECT_EQ(report.bits_flipped, 0u);
  EXPECT_NEAR(w[0], 0.5f, 1.0f / 127.0f);
}

TEST(InjectInt8, StuckAt0ShrinksMagnitudes) {
  std::vector<float> w(500, 1.0f);  // quantizes to +127 = 0b01111111
  FaultSpec spec;
  spec.model = FaultModel::StuckAt0;
  spec.ber = 0.3;
  Rng rng(12);
  inject_int8(w, spec, rng);
  for (float v : w) EXPECT_LE(v, 1.0f + 1e-6f);
}

TEST(InjectFixedPoint, WiderFormatDeviatesMore) {
  // §IV-B.3: with equal BER, Q(1,10,5) suffers larger value deviations
  // than Q(1,4,11) because flipped high bits represent larger magnitudes.
  auto deviation = [](const FixedPointFormat& fmt) {
    std::vector<float> w(3000, 0.3f);
    FaultSpec spec;
    spec.ber = 0.01;
    Rng rng(13);
    inject_fixed_point(w, fmt, spec, rng);
    double dev = 0.0;
    for (float v : w) dev += std::abs(v - 0.3);
    return dev;
  };
  EXPECT_GT(deviation(FixedPointFormat::q1_10_5()),
            deviation(FixedPointFormat::q1_4_11()) * 2);
}

TEST(InjectFixedPoint, CleanPassIsQuantizationOnly) {
  std::vector<float> w{0.5f, -0.125f};
  FaultSpec spec;
  spec.ber = 0.0;
  Rng rng(14);
  const InjectionReport r =
      inject_fixed_point(w, FixedPointFormat::q1_4_11(), spec, rng);
  EXPECT_EQ(r.bits_flipped, 0u);
  EXPECT_NEAR(w[0], 0.5f, 1e-3f);
  EXPECT_NEAR(w[1], -0.125f, 1e-3f);
}

TEST(InjectFixedPoint, MatchesFrozenReferenceExactly) {
  // The DeployedWeights strike over the fixed-word kernel consumes the
  // identical Bernoulli stream as the frozen per-bit reference, so for
  // equal seeds the corrupted buffers and flip counts must agree
  // bit-for-bit across every model/direction.
  const FaultSpec base = [] {
    FaultSpec s;
    s.ber = 0.02;
    return s;
  }();
  struct Case {
    FaultModel model;
    FlipDirection direction;
  };
  const Case cases[] = {
      {FaultModel::TransientPersistent, FlipDirection::Any},
      {FaultModel::TransientPersistent, FlipDirection::ZeroToOne},
      {FaultModel::TransientPersistent, FlipDirection::OneToZero},
      {FaultModel::StuckAt0, FlipDirection::Any},
      {FaultModel::StuckAt1, FlipDirection::Any},
  };
  for (const auto& c : cases) {
    FaultSpec spec = base;
    spec.model = c.model;
    spec.direction = c.direction;
    Rng seed_rng(21);
    std::vector<float> w_fast(800), w_ref;
    for (auto& v : w_fast) v = static_cast<float>(seed_rng.uniform(-2.0, 2.0));
    w_ref = w_fast;
    Rng rng_fast(22), rng_ref(22);
    const InjectionReport fast = inject_fixed_point(
        w_fast, FixedPointFormat::q1_7_8(), spec, rng_fast);
    const InjectionReport ref = golden::inject_fixed_point_reference(
        w_ref, FixedPointFormat::q1_7_8(), spec, rng_ref);
    EXPECT_EQ(fast.bits_flipped, ref.bits_flipped);
    EXPECT_EQ(fast.bits_total, ref.bits_total);
    EXPECT_EQ(w_fast, w_ref);
    EXPECT_EQ(rng_fast.next_u64(), rng_ref.next_u64());
    EXPECT_GT(fast.bits_flipped, 0u);  // the case actually exercised flips
  }
}

TEST(InjectNetwork, ChangesParameters) {
  Rng init(15);
  Network net = make_gridworld_policy(init);
  const std::vector<float> before = net.flat_parameters();
  FaultSpec spec;
  spec.ber = 0.02;
  Rng rng(16);
  const InjectionReport r = inject_network_weights(net, spec, rng);
  EXPECT_EQ(r.bits_total, before.size() * 8);
  EXPECT_NE(net.flat_parameters(), before);
}

TEST(InjectLayer, OnlyTouchesThatLayer) {
  Rng init(17);
  Network net = make_gridworld_policy(init);
  // Collect per-layer parameter snapshots.
  const std::vector<float> before0 =
      net.layer(0).parameters()[0]->value.data();
  const std::vector<float> before2 =
      net.layer(2).parameters()[0]->value.data();
  FaultSpec spec;
  spec.ber = 0.05;
  Rng rng(18);
  inject_layer_weights(net, 2, spec, rng);
  EXPECT_EQ(net.layer(0).parameters()[0]->value.data(), before0);
  EXPECT_NE(net.layer(2).parameters()[0]->value.data(), before2);
}

TEST(WeightRestoreGuard, RestoresOnScopeExit) {
  Rng init(19);
  Network net = make_gridworld_policy(init);
  const std::vector<float> before = net.flat_parameters();
  {
    WeightRestoreGuard guard(net);
    FaultSpec spec;
    spec.ber = 0.1;
    Rng rng(20);
    inject_network_weights(net, spec, rng);
    EXPECT_NE(net.flat_parameters(), before);
  }
  EXPECT_EQ(net.flat_parameters(), before);
}

/// The input rule every weight injector shares: a BER outside [0, 1]
/// (NaN included) or a burst of length 0 is rejected, on every word
/// format and at every burst length — never clamped or run as length 1.
TEST(InjectorValidation, EveryWeightInjectorRejectsBadBerAndBurst) {
  Rng init(23);
  const Network proto = make_gridworld_policy(init);
  Network calib = proto.clone();
  const RangeAnomalyDetector detector(calib, {.margin = 0.10});
  const std::vector<float> clean = proto.flat_parameters();
  const DeployedWeights int8_image = DeployedWeights::int8_image(clean, 2.0f);
  const DeployedWeights fixed_image =
      DeployedWeights::fixed_point_image(clean, FixedPointFormat::q1_7_8());
  const LayerDeployedWeights layer_image(calib, 0);

  std::vector<FaultSpec> bad;
  for (const double ber :
       {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::size_t length : {std::size_t{1}, std::size_t{3}}) {
      FaultSpec spec;
      spec.ber = ber;
      spec.burst.length = length;
      bad.push_back(spec);
    }
  }
  for (const FaultModel model :
       {FaultModel::TransientPersistent, FaultModel::StuckAt1}) {
    FaultSpec spec;
    spec.model = model;
    spec.ber = 0.01;
    spec.burst.length = 0;
    bad.push_back(spec);
  }

  for (const FaultSpec& spec : bad) {
    SCOPED_TRACE(::testing::Message() << "ber " << spec.ber << " burst "
                                    << spec.burst.length);
    Rng rng(24);
    std::vector<float> w = clean;
    std::vector<std::uint8_t> bytes(16, 0x5A);
    std::vector<std::uint32_t> words(16, 0x1234);
    WeightOverlay overlay;
    QuantOverlay quant_overlay;
    Network net = proto.clone();
    InferenceFaultScenario scenario;
    scenario.spec = spec;
    EXPECT_THROW(corrupt_bits_burst(bytes, spec, rng), Error);
    EXPECT_THROW(corrupt_fixed_words_burst(words, 16, spec, rng), Error);
    EXPECT_THROW(inject_int8(std::span<float>(w), spec, rng), Error);
    EXPECT_THROW(inject_int8(w, spec, rng, 2.0f), Error);
    EXPECT_THROW(inject_fixed_point(w, FixedPointFormat::q1_4_11(), spec, rng),
                 Error);
    EXPECT_THROW(int8_image.inject(spec, rng, overlay), Error);
    EXPECT_THROW(int8_image.inject_quant(spec, rng, quant_overlay), Error);
    EXPECT_THROW(fixed_image.inject(spec, rng, overlay), Error);
    EXPECT_THROW(layer_image.inject(spec, rng, overlay), Error);
    EXPECT_THROW(inject_network_weights(net, spec, rng), Error);
    EXPECT_THROW(inject_layer_weights(net, 0, spec, rng), Error);
    for (const bool use_int8 : {false, true}) {
      for (const bool with_detector : {false, true}) {
        scenario.use_int8 = use_int8;
        scenario.detector = with_detector ? &detector : nullptr;
        EXPECT_THROW(apply_static_inference_fault(net, scenario, rng), Error);
      }
    }
    // Nothing was written through on the way to the throw.
    EXPECT_EQ(w, clean);
    EXPECT_EQ(net.flat_parameters(), clean);
  }
}

TEST(InjectorValidation, FixedWordKernelRejectsOutOfRangeWordBits) {
  FaultSpec spec;
  spec.ber = 0.5;
  std::vector<std::uint32_t> words(4, 0xFFFFu);
  Rng rng(25);
  EXPECT_THROW(corrupt_fixed_words_burst(words, 33, spec, rng), Error);
  EXPECT_THROW(corrupt_fixed_words_burst(words, 0, spec, rng), Error);
  EXPECT_THROW(corrupt_fixed_words_burst(words, -1, spec, rng), Error);
  // 32 is the widest legal word: every bit of it is reachable.
  spec.ber = 1.0;
  EXPECT_EQ(corrupt_fixed_words_burst(words, 32, spec, rng), 4u * 32u);
  for (const std::uint32_t w : words) EXPECT_EQ(w, 0xFFFF0000u);
}

/// Property sweep over BERs: observed flip fraction tracks the BER.
class BerProperty : public ::testing::TestWithParam<double> {};

TEST_P(BerProperty, FlipFractionMatches) {
  const double ber = GetParam();
  std::vector<std::uint8_t> buf(20000, 0);
  Rng rng(21);
  const std::size_t flips = flip_bits(buf, ber, rng);
  const double frac = static_cast<double>(flips) / (20000.0 * 8.0);
  EXPECT_NEAR(frac, ber, ber * 0.25 + 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Bers, BerProperty,
                         ::testing::Values(1e-4, 1e-3, 1e-2, 0.1, 0.5));

}  // namespace
}  // namespace frlfi

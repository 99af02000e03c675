/// \file test_fault_golden.cpp
/// Absolute bit lock on the weight-fault plane. The equivalence tests
/// compare one injector with another; this one compares each injection
/// surface against a hard-coded FNV-1a digest of everything it leaves
/// behind: the output float bits (or deployed words), the
/// InjectionReport, and the next draw of the caller's RNG (which pins the
/// stream consumption). Every digest folds the fault grid
/// {Trans-M, Trans-M 0->1, stuck-at-0, stuck-at-1} x {single bit,
/// length-3 column burst}.
/// A digest mismatch means an injector moved output bits; refactors of the
/// fault plane must leave every digest unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "frl/evaluation.hpp"
#include "frl/policies.hpp"
#include "golden/digest.hpp"
#include "mitigation/range_detector.hpp"

namespace frlfi {
namespace {

using golden::Fnv1a;

void fold_report(Fnv1a& f, const InjectionReport& r) {
  f.value(r.bits_flipped);
  f.value(r.bits_total);
}

/// The fault grid every digest folds, in a fixed order.
std::vector<FaultSpec> fault_grid(double ber) {
  struct Cell {
    FaultModel model;
    FlipDirection direction;
  };
  const Cell cells[] = {
      {FaultModel::TransientPersistent, FlipDirection::Any},
      {FaultModel::TransientPersistent, FlipDirection::ZeroToOne},
      {FaultModel::StuckAt0, FlipDirection::Any},
      {FaultModel::StuckAt1, FlipDirection::Any},
  };
  std::vector<FaultSpec> grid;
  for (const BurstSpec burst :
       {BurstSpec{1, BurstAxis::Row}, BurstSpec{3, BurstAxis::Column}}) {
    for (const Cell& c : cells) {
      FaultSpec spec;
      spec.model = c.model;
      spec.direction = c.direction;
      spec.ber = ber;
      spec.burst = burst;
      grid.push_back(spec);
    }
  }
  return grid;
}

std::vector<float> random_weights(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(rng.uniform(-0.9, 0.9));
  return w;
}

Network gridworld_policy() {
  Rng init(3);
  return make_gridworld_policy(init);
}

Network drone_policy() {
  Rng init(4);
  return make_drone_policy(init);
}

/// Fold one injection per grid cell: `strike(spec, rng, f)` injects with
/// a fresh per-cell stream, hashes its outputs into f and returns the bits
/// it changed (every cell must change some, or the lock is vacuous); the
/// next draw of that stream is hashed after it.
std::uint64_t fold_grid(
    double ber,
    const std::function<std::size_t(const FaultSpec&, Rng&, Fnv1a&)>& strike) {
  Fnv1a f;
  std::uint64_t seed = 1000;
  for (const FaultSpec& spec : fault_grid(ber)) {
    Rng rng(++seed);
    EXPECT_GT(strike(spec, rng, f), 0u) << "seed " << seed;
    f.value(rng.next_u64());
  }
  return f.digest();
}

std::uint64_t int8_digest(float headroom) {
  const std::vector<float> clean = random_weights(300, 11);
  return fold_grid(0.03, [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
    std::vector<float> w = clean;
    const InjectionReport r =
        inject_int8(std::span<float>(w), spec, rng, headroom);
    fold_report(f, r);
    f.values<float>(w);
    return r.bits_flipped;
  });
}

std::uint64_t fixed_digest(const FixedPointFormat& format) {
  const std::vector<float> clean = random_weights(250, 13);
  return fold_grid(0.02, [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
    std::vector<float> w = clean;
    const InjectionReport r = inject_fixed_point(w, format, spec, rng);
    fold_report(f, r);
    f.values<float>(w);
    return r.bits_flipped;
  });
}

std::uint64_t deployed_digest(const DeployedWeights& deployed) {
  return fold_grid(0.02, [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
    WeightOverlay overlay;
    const InjectionReport r = deployed.inject(spec, rng, overlay);
    fold_report(f, r);
    f.values<std::size_t>(overlay.indices);
    f.values<float>(overlay.values);
    f.values<float>(deployed.base());
    return r.bits_flipped;
  });
}

std::uint64_t deployed_quant_digest(const DeployedWeights& deployed) {
  return fold_grid(0.02, [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
    QuantOverlay overlay;
    const InjectionReport r = deployed.inject_quant(spec, rng, overlay);
    fold_report(f, r);
    f.values<std::size_t>(overlay.indices);
    f.values<std::int8_t>(overlay.words);
    return r.bits_flipped;
  });
}

std::uint64_t network_digest() {
  const Network proto = drone_policy();
  return fold_grid(2e-3, [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
    Network net = proto.clone();
    const InjectionReport r = inject_network_weights(net, spec, rng);
    fold_report(f, r);
    f.values<float>(net.flat_parameters());
    return r.bits_flipped;
  });
}

std::uint64_t layer_digest() {
  const Network proto = drone_policy();
  return fold_grid(0.01, [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
    std::size_t changed = 0;
    for (std::size_t li = 0; li < proto.layer_count(); ++li) {
      Network net = proto.clone();
      if (net.layer(li).parameters().empty()) continue;
      const InjectionReport r = inject_layer_weights(net, li, spec, rng);
      fold_report(f, r);
      f.values<float>(net.flat_parameters());
      changed += r.bits_flipped;
    }
    return changed;
  });
}

std::uint64_t static_digest(bool drone, bool use_int8, bool with_detector) {
  const Network proto = drone ? drone_policy() : gridworld_policy();
  Network calib = proto.clone();
  const RangeAnomalyDetector detector(calib, {.margin = 0.10});
  InferenceFaultScenario scenario;
  scenario.use_int8 = use_int8;
  if (with_detector) scenario.detector = &detector;
  return fold_grid(drone ? 2e-3 : 0.02,
                   [&](const FaultSpec& spec, Rng& rng, Fnv1a& f) {
                     scenario.spec = spec;
                     Network net = proto.clone();
                     const InjectionReport r =
                         apply_static_inference_fault(net, scenario, rng);
                     fold_report(f, r);
                     f.values<float>(net.flat_parameters());
                     return r.bits_flipped;
                   });
}

struct Case {
  std::string name;
  std::function<std::uint64_t()> run;
  std::uint64_t digest;
};

TEST(FaultGolden, DigestsMatchRecordedBits) {
  const std::vector<float> clean = random_weights(400, 17);
  const std::vector<Case> cases = {
      {"inject_int8 headroom=1", [] { return int8_digest(1.0f); },
       0x1BE1118C92B7A8BFULL},
      {"inject_int8 headroom=2", [] { return int8_digest(2.0f); },
       0xAF1BDF17359DDED7ULL},
      {"inject_fixed_point Q(1,4,11)",
       [] { return fixed_digest(FixedPointFormat::q1_4_11()); },
       0x922A16914429E145ULL},
      {"inject_fixed_point Q(1,7,8)",
       [] { return fixed_digest(FixedPointFormat::q1_7_8()); },
       0xD644E5CB122DDCA1ULL},
      {"inject_fixed_point Q(1,10,5)",
       [] { return fixed_digest(FixedPointFormat::q1_10_5()); },
       0x5372CE2E685E28CAULL},
      {"DeployedWeights::inject int8 headroom=2",
       [&] {
         return deployed_digest(DeployedWeights::int8_image(clean, 2.0f));
       },
       0xC2A4415527B5AB75ULL},
      {"DeployedWeights::inject Q(1,7,8)",
       [&] {
         return deployed_digest(DeployedWeights::fixed_point_image(
             clean, FixedPointFormat::q1_7_8()));
       },
       0x1495CC43E04564FBULL},
      {"DeployedWeights::inject_quant headroom=2",
       [&] {
         return deployed_quant_digest(DeployedWeights::int8_image(clean, 2.0f));
       },
       0x6951472FBDDE1F48ULL},
      {"inject_network_weights drone", network_digest, 0x2F6C7D28923C0EC1ULL},
      {"inject_layer_weights drone", layer_digest, 0x696FBCF3ECEB6AEFULL},
      {"apply_static_inference_fault gridworld fixed",
       [] { return static_digest(false, false, false); },
       0xBA9A70C96DAD09F3ULL},
      {"apply_static_inference_fault gridworld fixed +detector",
       [] { return static_digest(false, false, true); }, 0xED9F71CAB575E5EBULL},
      {"apply_static_inference_fault gridworld int8",
       [] { return static_digest(false, true, false); }, 0xCE40C5578D801244ULL},
      {"apply_static_inference_fault gridworld int8 +detector",
       [] { return static_digest(false, true, true); }, 0x1955A53B9F4F7C47ULL},
      {"apply_static_inference_fault drone fixed",
       [] { return static_digest(true, false, false); }, 0x118F8B67A630431BULL},
      {"apply_static_inference_fault drone fixed +detector",
       [] { return static_digest(true, false, true); }, 0x943F8CD324CA9A51ULL},
      {"apply_static_inference_fault drone int8",
       [] { return static_digest(true, true, false); }, 0xA98EF06DCEDAA62ULL},
      {"apply_static_inference_fault drone int8 +detector",
       [] { return static_digest(true, true, true); }, 0xA43F474C4CCBB13EULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t got = c.run();
    EXPECT_EQ(got, c.digest) << c.name << ": got 0x" << std::hex
                             << std::uppercase << got << "ULL";
  }
}

}  // namespace
}  // namespace frlfi

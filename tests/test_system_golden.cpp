/// \file test_system_golden.cpp
/// Absolute bit lock on the two paper systems, GridWorld and DroneNav.
/// Each system trains under a server fault, §V-A mitigation and a degraded
/// participation plan (stragglers, so straggler uploads are still pending
/// when the run stops), then a hard-coded FNV-1a digest covers:
///  * the save() byte stream and every agent's parameters,
///  * the consensus_network() parameters, communication_bytes() and the
///    communication round counter,
///  * the `double` bits evaluate_inference_fault returns for Trans-M
///    through Q(1,7,8), Trans-M through int8 executed int8-natively,
///    Trans-1, and Trans-M with the range detector.
/// A digest mismatch means a change moved output bits; refactors of the
/// systems must leave every digest unchanged. The digests are those of the
/// default (portable, non-native) build.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"
#include "golden/digest.hpp"

namespace frlfi {
namespace {

using golden::Fnv1a;

// DroneNav training bits differ under the ASan+UBSan preset (the CI
// asan-ubsan job): the same code gives one digest per build,
// deterministically, so sanitized builds check their own recorded
// training digest. Every other digest is the same in both builds.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kDroneStateDigest = 0xC8D91DC4CEDBA1FBULL;
#else
constexpr std::uint64_t kDroneStateDigest = 0x9CDF4BE37C8FC9E2ULL;
#endif

TrainingFaultPlan server_fault(std::size_t episode) {
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::ServerFault;
  plan.spec.ber = 1e-2;
  plan.spec.episode = episode;
  return plan;
}

MitigationPlan mitigation() {
  MitigationPlan plan;
  plan.enabled = true;
  plan.checkpoint_interval = 2;
  return plan;
}

/// Dropouts plus lagging stragglers: the staleness buffer is non-empty at
/// the end of both runs below.
ParticipationPlan stragglers() {
  ParticipationPlan plan;
  plan.active = true;
  plan.dropout_rate = 0.1;
  plan.straggler_rate = 0.4;
  plan.straggler_lag = 3;
  plan.stale_decay = 0.5;
  plan.max_staleness = 4;
  return plan;
}

/// The four inference scenarios; `det` screens the last one.
std::vector<InferenceFaultScenario> scenarios(const RangeAnomalyDetector& det,
                                              double ber) {
  std::vector<InferenceFaultScenario> out(4);
  out[0].spec.model = FaultModel::TransientPersistent;  // Q(1,7,8)
  out[0].spec.ber = ber;
  out[1].spec.model = FaultModel::TransientPersistent;
  out[1].spec.ber = ber;
  out[1].use_int8 = true;
  out[1].mode = InferenceMode::Int8;
  out[2].spec.model = FaultModel::TransientSingleStep;
  out[2].spec.ber = ber;
  out[3].spec.model = FaultModel::TransientPersistent;
  out[3].spec.ber = ber;
  out[3].detector = &det;
  return out;
}

/// Digest of a trained system's state: save() stream, per-agent
/// parameters, consensus, channel bytes and rounds.
template <class System>
void fold_state(Fnv1a& f, const System& sys,
                const std::vector<std::vector<float>>& params) {
  std::stringstream ss;
  sys.save(ss);
  const std::string stream = ss.str();
  f.value(stream.size());
  f.bytes(stream.data(), stream.size());
  for (const std::vector<float>& p : params) f.values<float>(p);
  f.values<float>(sys.consensus_network().flat_parameters());
  f.value(sys.communication_bytes());
  f.value(sys.snapshot().round);
}

TEST(SystemGolden, GridWorldDigestsMatchRecordedBits) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  cfg.eps_span = 420;
  GridWorldFrlSystem sys(cfg, 21);
  sys.set_fault_plan(server_fault(15));
  sys.set_mitigation(mitigation());
  sys.set_participation_plan(stragglers());
  sys.train(40);

  const GridWorldFrlSystem::Snapshot snap = sys.snapshot();
  ASSERT_FALSE(snap.engine.pending_uploads.empty());
  ASSERT_TRUE(snap.engine.has_mitigation_state);
  EXPECT_GT(sys.mitigation_stats().checkpoints_taken, 0u);

  Fnv1a state;
  std::vector<std::vector<float>> params;
  for (std::size_t i = 0; i < cfg.n_agents; ++i)
    params.push_back(sys.agent_network(i).flat_parameters());
  fold_state(state, sys, params);
  EXPECT_EQ(state.digest(), 0x5FA6364E33FC20E3ULL)
      << "state: got 0x" << std::hex << state.digest();

  Network healthy = sys.consensus_network();
  const RangeAnomalyDetector det(healthy, {.margin = 0.10});
  Fnv1a infer;
  for (const InferenceFaultScenario& sc : scenarios(det, 1e-3))
    infer.value(sys.evaluate_inference_fault(sc, 3, 77));
  EXPECT_EQ(infer.digest(), 0x1D7160F64C5928A3ULL)
      << "inference: got 0x" << std::hex << infer.digest();
}

TEST(SystemGolden, DroneDigestsMatchRecordedBits) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = 2;
  cfg.comm_interval = 1;
  cfg.imitation_episodes = 20;
  DroneFrlSystem sys(cfg, 22);
  sys.set_fault_plan(server_fault(2));
  sys.set_mitigation(mitigation());
  sys.set_participation_plan(stragglers());
  sys.train(6);

  const DroneFrlSystem::Snapshot snap = sys.snapshot();
  ASSERT_FALSE(snap.engine.pending_uploads.empty());
  ASSERT_TRUE(snap.engine.has_mitigation_state);
  EXPECT_EQ(sys.communication_rounds(), snap.round);

  Fnv1a state;
  std::vector<std::vector<float>> params;
  for (std::size_t i = 0; i < cfg.n_drones; ++i)
    params.push_back(sys.drone_network(i).flat_parameters());
  fold_state(state, sys, params);
  EXPECT_EQ(state.digest(), kDroneStateDigest)
      << "state: got 0x" << std::hex << state.digest();

  Network healthy = sys.consensus_network();
  const RangeAnomalyDetector det(healthy, {.margin = 0.10});
  Fnv1a infer;
  for (const InferenceFaultScenario& sc : scenarios(det, 1e-3))
    infer.value(sys.evaluate_inference_fault(sc, 1, 78));
  EXPECT_EQ(infer.digest(), 0xDB84136EE4066364ULL)
      << "inference: got 0x" << std::hex << infer.digest();
}

}  // namespace
}  // namespace frlfi

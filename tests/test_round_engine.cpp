/// \file test_round_engine.cpp
/// The federated round engine's invariants:
///  * train() is bit-identical across thread counts (1, 2, 7) on both
///    paper systems — faults, noisy channels and mitigation included —
///    over an n_agents x threads grid;
///  * snapshot/restore composes with parallel training (restore + retrain
///    replays the same bits at any fan-out);
///  * CommChannel::transmit_rows and the synchronous server round are
///    bit-identical to the tests/golden scalar references (scalar
///    transmit, frozen_scalar_round), RNG stream position included;
///  * the engine's row-matrix server-fault hook reproduces the historical
///    per-agent-vector hook inside the frozen round;
///  * fleet rounds are server-lane-count invariant, match the serial
///    round on the burst plane, and keep round buffers O(participants).

#include "federated/round_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"
#include "federated/channel.hpp"
#include "federated/server.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"
#include "golden/golden.hpp"
#include "golden/round_util.hpp"

namespace frlfi {
namespace {

using golden::frozen_scalar_round;
using testing::pack_rows;
using testing::sync_round;

std::vector<float> random_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<std::vector<float>> random_uploads(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  std::vector<std::vector<float>> up;
  for (std::size_t i = 0; i < n; ++i) up.push_back(random_row(dim, seed + i));
  return up;
}

TEST(BatchedChannel, TransmitRowsMatchesScalarTransmit) {
  for (const double ber : {0.0, 1e-3, 0.05, 0.3}) {
    const std::size_t n = 4, dim = 97;
    const auto uploads = random_uploads(n, dim, 900);
    golden::ScalarChannel scalar_ch(ber);
    CommChannel rows_ch(ber);
    Rng scalar_rng(7), rows_rng(7);
    std::vector<std::vector<float>> scalar_out;
    for (const auto& p : uploads)
      scalar_out.push_back(scalar_ch.transmit(p, scalar_rng));
    std::vector<float> rows = pack_rows(uploads);
    rows_ch.transmit_rows(rows.data(), n, dim, rows_rng);
    EXPECT_EQ(rows, pack_rows(scalar_out)) << "ber " << ber;
    EXPECT_EQ(rows_ch.messages_sent(), scalar_ch.messages_sent());
    EXPECT_EQ(rows_ch.bytes_sent(), scalar_ch.bytes_sent());
    EXPECT_EQ(rows_ch.bits_corrupted(), scalar_ch.bits_corrupted());
    // Identical RNG consumption: the streams stay aligned afterwards.
    EXPECT_EQ(rows_rng.next_u64(), scalar_rng.next_u64()) << "ber " << ber;
  }
}

TEST(BatchedServerRound, SynchronousRoundMatchesFrozenScalarRound) {
  const std::size_t n = 3, dim = 64;
  const auto uploads = random_uploads(n, dim, 1300);
  const AlphaSchedule schedule(n, 0.6, 20.0);
  golden::ScalarChannel ref_channel(0.01);
  ParameterServer rows_server(n, dim, schedule);
  rows_server.channel().set_bit_error_rate(0.01);
  Rng ref_rng(5), rows_rng(5);
  std::vector<float> ref_consensus;
  const auto down = frozen_scalar_round(uploads, ref_channel,
                                        schedule.at(0), ref_rng,
                                        &ref_consensus);
  std::vector<float> rows = pack_rows(uploads);
  sync_round(rows_server, rows, rows_rng);
  EXPECT_EQ(rows, pack_rows(down));
  EXPECT_EQ(rows_server.consensus(), ref_consensus);
  EXPECT_EQ(rows_server.round(), 1u);
  EXPECT_EQ(rows_server.channel().bytes_sent(), ref_channel.bytes_sent());
  EXPECT_EQ(rows_server.channel().messages_sent(),
            ref_channel.messages_sent());
  EXPECT_EQ(rows_server.channel().transmit_seq(), ref_channel.transmit_seq());
  EXPECT_EQ(rows_server.channel().bits_corrupted(),
            ref_channel.bits_corrupted());
  EXPECT_EQ(rows_rng.next_u64(), ref_rng.next_u64());
}

TEST(BatchedServerRound, RowsFaultHookMatchesFrozenLegacyHookRound) {
  // The engine's server-fault injection (span-based inject_int8 over the
  // aggregate rows, one RNG stream across all rows) must reproduce the
  // historical vector-of-vectors hook inside the frozen scalar round
  // bit-for-bit.
  const std::size_t n = 4, dim = 80;
  const auto uploads = random_uploads(n, dim, 1700);
  FaultSpec spec;
  spec.ber = 0.05;
  const AlphaSchedule schedule(n, 0.5);
  golden::ScalarChannel ref_channel(0.0);
  Rng ref_rng(9);
  const auto down = frozen_scalar_round(
      uploads, ref_channel, schedule.at(0), ref_rng, nullptr,
      [&](std::vector<std::vector<float>>& agg) {
        Rng fault_rng(4242);
        for (auto& params : agg) golden::inject_int8(params, spec, fault_rng);
      });

  ParameterServer rows_srv(n, dim, schedule);
  rows_srv.set_post_aggregate_rows_hook(
      [&](std::size_t, std::span<float> rows, std::size_t row_dim) {
        Rng fault_rng(4242);
        for (std::size_t i = 0; i < n; ++i)
          inject_int8(rows.subspan(i * row_dim, row_dim), spec, fault_rng);
      });
  Rng rows_rng(9);
  std::vector<float> rows = pack_rows(uploads);
  sync_round(rows_srv, rows, rows_rng);
  EXPECT_EQ(rows, pack_rows(down));
}

/// Small-but-busy gridworld configuration: noisy channel so the comm
/// round consumes RNG, plus an eps schedule matching the test scale.
GridWorldFrlSystem::Config grid_config(std::size_t n_agents,
                                       std::size_t threads) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = n_agents;
  cfg.eps_span = 420;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

/// All agent parameters of a gridworld system, concatenated.
std::vector<std::vector<float>> grid_params(GridWorldFrlSystem& sys,
                                            std::size_t n) {
  std::vector<std::vector<float>> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(sys.agent_network(i).flat_parameters());
  return out;
}

TEST(RoundEngine, GridWorldTrainIsThreadCountInvariant) {
  // n_agents x threads grid, with a training fault and mitigation active
  // so every engine stage (episodes, injection, comm round, monitor,
  // checkpoint restore) runs under the fan-out.
  for (const std::size_t n_agents : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::vector<float>> serial;
    MitigationStats serial_stats;
    std::size_t serial_bytes = 0;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      GridWorldFrlSystem sys(grid_config(n_agents, threads), 31);
      TrainingFaultPlan plan;
      plan.active = true;
      plan.spec.site = n_agents == 1 ? FaultSite::ServerFault
                                     : FaultSite::AgentFault;
      plan.spec.ber = 0.02;
      plan.spec.episode = 10;
      sys.set_fault_plan(plan);
      MitigationPlan mit;
      mit.enabled = true;
      mit.detector.drop_percent = 25.0;
      mit.detector.consecutive_episodes = 5;
      mit.detector.warmup_episodes = 3;
      sys.set_mitigation(mit);
      sys.train(40);
      const auto params = grid_params(sys, n_agents);
      if (threads == 1) {
        serial = params;
        serial_stats = sys.mitigation_stats();
        serial_bytes = sys.communication_bytes();
      } else {
        EXPECT_EQ(params, serial) << n_agents << " agents, " << threads
                                  << " threads";
        EXPECT_EQ(sys.mitigation_stats().checkpoints_taken,
                  serial_stats.checkpoints_taken);
        EXPECT_EQ(sys.mitigation_stats().agent_recoveries,
                  serial_stats.agent_recoveries);
        EXPECT_EQ(sys.mitigation_stats().server_recoveries,
                  serial_stats.server_recoveries);
        EXPECT_EQ(sys.communication_bytes(), serial_bytes);
      }
    }
  }
}

/// Cheap fresh-key drone config so the pretraining phase stays small.
DroneFrlSystem::Config drone_config(std::size_t n_drones,
                                    std::size_t threads) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = n_drones;
  cfg.imitation_episodes = 8;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

TEST(RoundEngine, DroneTrainIsThreadCountInvariant) {
  std::vector<std::vector<float>> serial;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    DroneFrlSystem sys(drone_config(3, threads), 57);
    TrainingFaultPlan plan;
    plan.active = true;
    plan.spec.site = FaultSite::ServerFault;
    plan.spec.ber = 1e-2;
    plan.spec.episode = 3;
    sys.set_fault_plan(plan);
    sys.train(8);
    std::vector<std::vector<float>> params;
    for (std::size_t i = 0; i < 3; ++i)
      params.push_back(sys.drone_network(i).flat_parameters());
    if (threads == 1) {
      serial = params;
    } else {
      EXPECT_EQ(params, serial) << threads << " threads";
    }
  }
}

TEST(RoundEngine, SnapshotRestoreComposesWithParallelTraining) {
  // Parallel-trained snapshot == serial-trained snapshot, and restore +
  // retrain replays identically at a different fan-out.
  GridWorldFrlSystem parallel(grid_config(4, 3), 63);
  GridWorldFrlSystem serial(grid_config(4, 1), 63);
  parallel.train(20);
  serial.train(20);
  const auto snap_parallel = parallel.snapshot();
  const auto snap_serial = serial.snapshot();
  EXPECT_EQ(snap_parallel.agent_params, snap_serial.agent_params);
  EXPECT_EQ(snap_parallel.episode, snap_serial.episode);
  EXPECT_EQ(snap_parallel.round, snap_serial.round);

  parallel.train(15);
  const auto direct = grid_params(parallel, 4);
  parallel.restore(snap_parallel);
  EXPECT_EQ(parallel.episode(), 20u);
  parallel.train(15);
  EXPECT_EQ(grid_params(parallel, 4), direct);
  // And the serial twin retrains to the same place.
  serial.train(15);
  EXPECT_EQ(grid_params(serial, 4), direct);
}

TEST(RoundEngine, ValidatesHooksAndConfig) {
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = 2;
  cfg.parameter_dim = 4;
  FederatedRoundEngine::Hooks hooks;  // all empty
  EXPECT_THROW(FederatedRoundEngine(cfg, 1, 2, hooks), Error);
}

/// Synthetic fleet member for the fleet-scale engine tests: flat
/// per-agent parameter rows, an "episode" that nudges one coordinate
/// deterministically — rounds aggregate changing data at zero NN cost, so
/// the tests can afford 10^3-agent fleets.
struct FleetHarness {
  std::size_t n, dim;
  std::vector<float> params;
  FleetHarness(std::size_t n_agents, std::size_t param_dim)
      : n(n_agents), dim(param_dim), params(n_agents * param_dim) {
    Rng wrng(91);
    for (auto& v : params) v = static_cast<float>(wrng.uniform(-0.5, 0.5));
  }
  FederatedRoundEngine::Hooks hooks() {
    FederatedRoundEngine::Hooks h;
    h.run_episode = [this](std::size_t agent, std::size_t episode, Rng&) {
      params[agent * dim] += 1e-3f * static_cast<float>((agent + episode) % 7);
      return 0.0;
    };
    h.gather_params = [this](std::size_t agent, std::span<float> out) {
      std::copy(params.begin() + static_cast<std::ptrdiff_t>(agent * dim),
                params.begin() + static_cast<std::ptrdiff_t>((agent + 1) * dim),
                out.begin());
    };
    h.scatter_params = [this](std::size_t agent, std::span<const float> p) {
      std::copy(p.begin(), p.end(),
                params.begin() + static_cast<std::ptrdiff_t>(agent * dim));
    };
    h.inject_agent = [](std::size_t, const FaultSpec&, Rng&) {};
    return h;
  }
};

TEST(RoundEngine, ZeroEpisodeLanesRejected) {
  FleetHarness harness(4, 8);
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = 4;
  cfg.parameter_dim = 8;
  cfg.threads = 0;
  EXPECT_THROW(FederatedRoundEngine(cfg, 1, 2, harness.hooks()), Error);
  EXPECT_THROW(GridWorldFrlSystem(grid_config(2, 0), 1), Error);
  EXPECT_THROW(DroneFrlSystem(drone_config(2, 0), 1), Error);
}

/// Stormy Gilbert–Elliott channel: bad-state flips, chunk erasure and
/// reordering all active, so the fleet transmit fan has real work and the
/// burst-plane bit-identity (legacy vs fleet) is exercised, not vacuous.
BurstyChannelConfig stormy_channel() {
  BurstyChannelConfig bursty;
  bursty.active = true;
  bursty.ber_good = 1e-4;
  bursty.ber_bad = 0.05;
  bursty.p_good_to_bad = 0.2;
  bursty.p_bad_to_good = 0.25;
  bursty.erasure_rate = 0.05;
  bursty.reorder_rate = 0.1;
  bursty.chunk_elems = 16;
  return bursty;
}

FederatedRoundEngine::Config fleet_config(std::size_t agents, std::size_t dim,
                                          std::size_t server_threads) {
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = agents;
  cfg.parameter_dim = dim;
  cfg.comm_interval = 1;
  cfg.bursty_channel = stormy_channel();
  cfg.server_threads = server_threads;
  return cfg;
}

/// Everything degraded at once: dropout windows, stragglers, Byzantine
/// senders, L2 screening and a sparse upload cadence.
ParticipationPlan fleet_plan() {
  ParticipationPlan plan;
  plan.active = true;
  plan.dropout_rate = 0.05;
  plan.crash_rounds = 2;
  plan.straggler_rate = 0.1;
  plan.straggler_lag = 2;
  plan.stale_decay = 0.5;
  plan.max_staleness = 4;
  plan.byzantine_agents = {1, 3};
  plan.screening.l2_norm = true;
  plan.screening.l2_factor = 3.0;
  plan.cadence = 4;
  return plan;
}

void expect_stats_equal(const ParticipationStats& got,
                        const ParticipationStats& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.present, want.present);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.stragglers, want.stragglers);
  EXPECT_EQ(got.byzantine, want.byzantine);
  EXPECT_EQ(got.stale_folded, want.stale_folded);
  EXPECT_EQ(got.stale_discarded, want.stale_discarded);
  EXPECT_EQ(got.screened_out, want.screened_out);
  EXPECT_EQ(got.degenerate_rounds, want.degenerate_rounds);
  EXPECT_EQ(got.upload_attempts, want.upload_attempts);
  EXPECT_EQ(got.uploads_failed, want.uploads_failed);
}

void expect_channels_equal(const FederatedRoundEngine& got,
                           const FederatedRoundEngine& want) {
  const CommChannel& g = got.server()->channel();
  const CommChannel& w = want.server()->channel();
  EXPECT_EQ(g.transmit_seq(), w.transmit_seq());
  EXPECT_EQ(g.messages_sent(), w.messages_sent());
  EXPECT_EQ(g.bytes_sent(), w.bytes_sent());
  EXPECT_EQ(g.bits_corrupted(), w.bits_corrupted());
}

TEST(FleetRound, DegradedRoundIsServerLaneCountInvariant) {
  // The fleet determinism grid: n_agents x server_threads with every
  // degradation active at once. server_threads == 1 is the serial golden
  // path; 2 and 7 lanes must reproduce it bit for bit — parameters,
  // channel sequence numbers/counters and participation stats — and the
  // extra train() leg locks the RNG stream position too.
  const std::size_t dim = 96;
  for (const std::size_t agents : {std::size_t{256}, std::size_t{1024}}) {
    FleetHarness golden(agents, dim);
    FederatedRoundEngine ref(fleet_config(agents, dim, 1), 2024, 0xF1EE7,
                             golden.hooks());
    ref.set_participation_plan(fleet_plan());
    ref.train(6);
    const auto golden_mid = golden.params;
    ref.train(3);  // diverges here if a lane count consumed RNG differently

    for (const std::size_t lanes : {std::size_t{2}, std::size_t{7}}) {
      FleetHarness h(agents, dim);
      FederatedRoundEngine sys(fleet_config(agents, dim, lanes), 2024, 0xF1EE7,
                               h.hooks());
      sys.set_participation_plan(fleet_plan());
      sys.train(6);
      EXPECT_EQ(h.params, golden_mid)
          << agents << " agents, " << lanes << " lanes";
      sys.train(3);
      EXPECT_EQ(h.params, golden.params)
          << agents << " agents, " << lanes << " lanes (continuation)";
      expect_channels_equal(sys, ref);
      expect_stats_equal(sys.participation_stats(), ref.participation_stats());
    }
    // The plan actually degraded something at this seed.
    EXPECT_GT(ref.participation_stats().dropped, 0u);
    EXPECT_GT(ref.participation_stats().stragglers, 0u);
    EXPECT_GT(ref.participation_stats().byzantine, 0u);
  }
}

TEST(FleetRound, SerialDegradedRoundMatchesFleetOnBurstPlane) {
  // Channel-keying equivalence: on the burst plane with the retry
  // protocol unarmed, every message is keyed by the same per-sender
  // sequence numbers under both disciplines, so the fleet round
  // (server_threads = 1) must be *identical* to the serial round
  // (server_threads = 0) — parameters, channel counters, stats and the
  // staleness buffer included.
  const std::size_t agents = 64, dim = 48;
  FleetHarness legacy_h(agents, dim);
  FederatedRoundEngine legacy(fleet_config(agents, dim, 0), 7, 0xF1EE7,
                              legacy_h.hooks());
  legacy.set_participation_plan(fleet_plan());
  legacy.train(10);

  FleetHarness fleet_h(agents, dim);
  FederatedRoundEngine fleet(fleet_config(agents, dim, 1), 7, 0xF1EE7,
                             fleet_h.hooks());
  fleet.set_participation_plan(fleet_plan());
  fleet.train(10);

  EXPECT_EQ(fleet_h.params, legacy_h.params);
  expect_channels_equal(fleet, legacy);
  expect_stats_equal(fleet.participation_stats(),
                     legacy.participation_stats());
  const auto& lp = legacy.server()->pending_uploads();
  const auto& fp = fleet.server()->pending_uploads();
  ASSERT_EQ(fp.size(), lp.size());
  for (std::size_t i = 0; i < lp.size(); ++i) {
    EXPECT_EQ(fp[i].agent, lp[i].agent);
    EXPECT_EQ(fp[i].deliver_round, lp[i].deliver_round);
    EXPECT_EQ(fp[i].weight, lp[i].weight);
    EXPECT_EQ(fp[i].data, lp[i].data);
  }
}

TEST(FleetRound, PlanFreeFleetRoundMatchesLegacyOnBurstPlane) {
  // Without a participation plan the round is all-Present; burst-plane
  // bits are per-sequence derived under both channel disciplines, so
  // every lane count must match the serial round.
  const std::size_t agents = 32, dim = 40;
  FleetHarness legacy_h(agents, dim);
  FederatedRoundEngine legacy(fleet_config(agents, dim, 0), 19, 0xF1EE7,
                              legacy_h.hooks());
  legacy.train(8);

  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    FleetHarness h(agents, dim);
    FederatedRoundEngine sys(fleet_config(agents, dim, lanes), 19, 0xF1EE7,
                             h.hooks());
    sys.train(8);
    EXPECT_EQ(h.params, legacy_h.params) << lanes << " lanes";
    expect_channels_equal(sys, legacy);
  }
}

TEST(FleetRound, ZeroRetryUploadProtocolKeepsFleetRoundBits) {
  // An enabled-but-zero-retry protocol must stay on the plain fleet plan
  // path byte for byte (the reliable fan only arms with retries > 0).
  const std::size_t agents = 48, dim = 32;
  FleetHarness plain_h(agents, dim);
  FederatedRoundEngine plain(fleet_config(agents, dim, 2), 23, 0xF1EE7,
                             plain_h.hooks());
  plain.set_participation_plan(fleet_plan());
  plain.train(8);

  FleetHarness zr_h(agents, dim);
  FederatedRoundEngine zr(fleet_config(agents, dim, 2), 23, 0xF1EE7,
                          zr_h.hooks());
  ParticipationPlan plan = fleet_plan();
  plan.upload.enabled = true;
  plan.upload.max_retries = 0;
  zr.set_participation_plan(plan);
  zr.train(8);

  EXPECT_EQ(zr_h.params, plain_h.params);
  expect_channels_equal(zr, plain);
  expect_stats_equal(zr.participation_stats(), plain.participation_stats());
}

TEST(FleetRound, RoundBufferMemoryScalesWithParticipants) {
  // The O(participants) acceptance gate: at cadence 8 (~12.5%
  // participation) the engine's retained round buffers must stay under a
  // quarter of the full n x dim matrix at every server_threads setting —
  // serial and fleet rounds share the participant-compacted storage.
  const std::size_t agents = 1024, dim = 64;
  const std::size_t full_bytes = agents * dim * sizeof(float);
  ParticipationPlan plan = fleet_plan();
  plan.cadence = 8;

  for (const std::size_t server_threads : {std::size_t{0}, std::size_t{1}}) {
    FleetHarness h(agents, dim);
    FederatedRoundEngine sys(fleet_config(agents, dim, server_threads), 41,
                             0xF1EE7, h.hooks());
    sys.set_participation_plan(plan);
    sys.train(6);
    EXPECT_LT(sys.round_buffer_bytes(), full_bytes / 4)
        << "round buffers must scale with participants (server_threads "
        << server_threads << ")";
  }
}

}  // namespace
}  // namespace frlfi

/// \file test_round_golden.cpp
/// Absolute bit lock on the federated server round. Every other round
/// identity test compares one code path with another; this one compares
/// each configuration against a hard-coded FNV-1a digest of everything a
/// training run leaves behind:
///  * the final agent parameters,
///  * the channel's transmit_seq, messages_sent, bytes_sent,
///    bits_corrupted and retransmit_bytes,
///  * every ParticipationStats field,
///  * the server's pending-upload (staleness) buffer.
/// The grid is server_threads {0, 1} x {plan-free, degraded plan with the
/// retry protocol armed} x {i.i.d. BER 1e-3, stormy bursty channel} x
/// {no fault, a ServerFault training plan (the post-aggregate hook round)}.
/// A digest mismatch means a round moved output bits; refactors of the
/// round must leave every digest unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "federated/round_engine.hpp"
#include "golden/digest.hpp"

namespace frlfi {
namespace {

using golden::Fnv1a;

/// Synthetic agents: flat parameter rows and an "episode" that nudges one
/// coordinate, so rounds aggregate changing data at zero NN cost.
struct Harness {
  std::size_t n, dim;
  std::vector<float> params;
  Harness(std::size_t n_agents, std::size_t param_dim)
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

/// Every degradation at once, plus the retry protocol.
ParticipationPlan degraded_plan() {
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
  plan.upload.enabled = true;
  plan.upload.max_retries = 3;
  return plan;
}

struct Case {
  std::size_t server_threads;
  bool degraded;
  bool bursty;
  bool server_fault;
  std::uint64_t digest;
};

std::string name(const Case& c) {
  return "server_threads=" + std::to_string(c.server_threads) +
         (c.degraded ? " degraded" : " plan-free") +
         (c.bursty ? " stormy" : " iid") +
         (c.server_fault ? " server-fault" : "");
}

std::uint64_t run_digest(const Case& c) {
  const std::size_t agents = 32, dim = 40;
  Harness h(agents, dim);
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = agents;
  cfg.parameter_dim = dim;
  cfg.comm_interval = 1;
  cfg.server_threads = c.server_threads;
  if (c.bursty)
    cfg.bursty_channel = stormy_channel();
  else
    cfg.channel_ber = 1e-3;
  FederatedRoundEngine engine(cfg, 4711, 0x601DE, h.hooks());
  if (c.degraded) engine.set_participation_plan(degraded_plan());
  if (c.server_fault) {
    TrainingFaultPlan fault;
    fault.active = true;
    fault.spec.site = FaultSite::ServerFault;
    fault.spec.ber = 0.05;
    fault.spec.episode = 4;
    engine.set_fault_plan(fault);
  }
  engine.train(12);

  Fnv1a f;
  f.values<float>(h.params);
  const CommChannel& ch = engine.server()->channel();
  f.value(ch.transmit_seq());
  f.value(ch.messages_sent());
  f.value(ch.bytes_sent());
  f.value(ch.bits_corrupted());
  f.value(ch.retransmit_bytes());
  const ParticipationStats& s = engine.participation_stats();
  for (const std::size_t v :
       {s.rounds, s.present, s.dropped, s.stragglers, s.byzantine,
        s.stale_folded, s.stale_discarded, s.screened_out,
        s.degenerate_rounds, s.upload_attempts, s.uploads_failed,
        s.failed_stale, s.failed_dropped})
    f.value(v);
  f.value(s.backoff_seconds);
  if (c.degraded) {
    // The plan is not vacuous at this seed: retries, stale folds and the
    // screen fire, and on the stormy channel some uploads exhaust.
    EXPECT_GT(s.upload_attempts, s.present + s.byzantine) << name(c);
    if (c.bursty) {
      EXPECT_GT(s.uploads_failed, 0u) << name(c);
    }
    EXPECT_GT(s.stale_folded, 0u) << name(c);
    EXPECT_GT(s.screened_out, 0u) << name(c);
  }
  const auto& pending = engine.server()->pending_uploads();
  f.value(pending.size());
  for (const ParameterServer::PendingUpload& p : pending) {
    f.value(p.agent);
    f.value(p.deliver_round);
    f.value(p.weight);
    f.values<float>(p.data);
  }
  return f.digest();
}

TEST(RoundGolden, DigestsMatchRecordedBits) {
  const std::vector<Case> cases = {
      {0, false, false, false, 0x142EA853AD4F3457ULL},
      {0, false, false, true, 0x28F17617DAC624F3ULL},
      {0, false, true, false, 0x7473A74E59A1558BULL},
      {0, false, true, true, 0x7667FE243E661ADAULL},
      {0, true, false, false, 0xD17E7AC08E490D5AULL},
      {0, true, false, true, 0x9245E29B55EC66CEULL},
      {0, true, true, false, 0x2A76600FF5CCE683ULL},
      {0, true, true, true, 0xF19999E518EEBFC8ULL},
      {1, false, false, false, 0x6AC1B714D6FFB720ULL},
      {1, false, false, true, 0xE6BE7B6C31D62F3FULL},
      {1, false, true, false, 0x7473A74E59A1558BULL},
      {1, false, true, true, 0x7667FE243E661ADAULL},
      {1, true, false, false, 0x6EA743D9616FA25BULL},
      {1, true, false, true, 0xCA1D1ACF7A639DEDULL},
      {1, true, true, false, 0xBA0592D53D066E26ULL},
      {1, true, true, true, 0x757E91D2E066B0D3ULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t got = run_digest(c);
    EXPECT_EQ(got, c.digest) << name(c) << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace frlfi

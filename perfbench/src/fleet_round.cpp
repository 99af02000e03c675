/// \file fleet_round.cpp
/// Workload `fleet_round`: fleet-scale federated rounds driven through the
/// public FederatedRoundEngine over synthetic agent hooks owned by the
/// benchmark. 1024 agents, each holding the drone policy's parameter
/// count; the stormy Gilbert-Elliott channel of bench_kernels with the
/// checksum/retry upload protocol; cadence 10, 1% dropout, 5% stragglers,
/// one Byzantine agent and the L2 screen; the fleet server path
/// (server_threads = 1). The hooks cost almost nothing, so the server,
/// channel and aggregation own the round.

#include <algorithm>
#include <cmath>
#include <memory>

#include "frl/policies.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace frlfi;

constexpr std::size_t kAgents = 1024;
constexpr std::size_t kRoundsPerTrial = 100;
constexpr std::uint64_t kEngineTag = 0xF1EE;
constexpr std::uint64_t kInitTag = 0xF1E1;

std::size_t policy_dim() {
  Rng rng(1);
  return make_drone_policy(rng).parameter_count();
}

/// Synthetic fleet member state: flat per-agent rows. The "episode"
/// nudges one coordinate deterministically, so rounds aggregate changing
/// data at no NN cost.
struct Fleet {
  Fleet(std::size_t param_dim, std::uint64_t seed)
      : dim(param_dim), params(kAgents * param_dim) {
    Rng rng(seed);
    for (float& v : params) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }

  FederatedRoundEngine::Hooks hooks(Tracer* tr) {
    FederatedRoundEngine::Hooks h;
    h.run_episode = [this, tr](std::size_t agent, std::size_t episode, Rng&) {
      Tracer::Scope s(tr, "agent.run_episode", "hooks", /*record=*/false);
      params[agent * dim] += 1e-3f * static_cast<float>((agent + episode) % 7);
      return 0.0;
    };
    h.gather_params = [this, tr](std::size_t agent, std::span<float> out) {
      Tracer::Scope s(tr, "federated.gather", "hooks", /*record=*/false);
      const auto row =
          params.begin() + static_cast<std::ptrdiff_t>(agent * dim);
      std::copy(row, row + static_cast<std::ptrdiff_t>(dim), out.begin());
    };
    h.scatter_params = [this, tr](std::size_t agent,
                                  std::span<const float> p) {
      Tracer::Scope s(tr, "federated.scatter", "hooks", /*record=*/false);
      std::copy(p.begin(), p.end(),
                params.begin() + static_cast<std::ptrdiff_t>(agent * dim));
    };
    h.inject_agent = [](std::size_t, const FaultSpec&, Rng&) {};
    return h;
  }

  std::size_t dim;
  std::vector<float> params;
};

FederatedRoundEngine::Config engine_config(std::size_t dim,
                                           std::size_t server_threads) {
  BurstyChannelConfig stormy;  // bench_kernels' stormy channel
  stormy.active = true;
  stormy.ber_good = 1e-4;
  stormy.ber_bad = 0.05;
  stormy.p_good_to_bad = 0.2;
  stormy.p_bad_to_good = 0.25;
  stormy.erasure_rate = 0.05;
  stormy.reorder_rate = 0.1;
  stormy.chunk_elems = 16;
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = kAgents;
  cfg.parameter_dim = dim;
  cfg.comm_interval = 1;
  cfg.bursty_channel = stormy;
  cfg.threads = 1;
  cfg.server_threads = server_threads;
  return cfg;
}

ParticipationPlan participation_plan() {
  ParticipationPlan plan;
  plan.active = true;
  plan.cadence = 10;
  plan.dropout_rate = 0.01;
  plan.straggler_rate = 0.05;
  plan.byzantine_agents = {1};
  plan.screening.l2_norm = true;
  plan.screening.l2_factor = 3.0;
  plan.upload.enabled = true;
  plan.upload.max_retries = 2;
  return plan;
}

/// One fleet with its engine, ready to train.
struct Trial {
  Trial(std::size_t dim, std::uint64_t seed, std::size_t server_threads,
        Tracer* tr)
      : fleet(dim, seed ^ kInitTag),
        rec(tr, {"agent.run_episode", "federated.gather",
                 "federated.scatter"}) {
    FederatedRoundEngine::Hooks h = fleet.hooks(tr);
    h.on_round = rec.observer();
    engine = std::make_unique<FederatedRoundEngine>(
        engine_config(dim, server_threads), seed, kEngineTag, std::move(h));
    engine->set_participation_plan(participation_plan());
  }

  Trial(Trial&&) = delete;  // the hooks capture `this`
  Trial& operator=(Trial&&) = delete;

  double run() {
    rec.start();
    const double t0 = steady_now();
    engine->train(kRoundsPerTrial);
    return steady_now() - t0;
  }

  Fleet fleet;
  RoundRecorder rec;
  std::unique_ptr<FederatedRoundEngine> engine;
};

bool same(const Trial& a, const Trial& b) {
  const CommChannel& ca = a.engine->server()->channel();
  const CommChannel& cb = b.engine->server()->channel();
  const ParticipationStats& pa = a.engine->participation_stats();
  const ParticipationStats& pb = b.engine->participation_stats();
  return a.fleet.params == b.fleet.params &&
         ca.transmit_seq() == cb.transmit_seq() &&
         ca.bytes_sent() == cb.bytes_sent() &&
         ca.bits_corrupted() == cb.bits_corrupted() &&
         ca.retransmit_bytes() == cb.retransmit_bytes() &&
         ca.chunks_erased() == cb.chunks_erased() &&
         ca.messages_reordered() == cb.messages_reordered() &&
         pa.rounds == pb.rounds && pa.present == pb.present &&
         pa.dropped == pb.dropped && pa.stragglers == pb.stragglers &&
         pa.byzantine == pb.byzantine && pa.stale_folded == pb.stale_folded &&
         pa.stale_discarded == pb.stale_discarded &&
         pa.screened_out == pb.screened_out &&
         pa.upload_attempts == pb.upload_attempts &&
         pa.uploads_failed == pb.uploads_failed;
}

/// Share of cadence-scheduled uploads that entered an aggregate, fresh or
/// folded late: the fleet's deterministic quality output.
double aggregated_share(const Trial& t) {
  const double scheduled = static_cast<double>(t.engine->round()) *
                           static_cast<double>(kAgents) /
                           static_cast<double>(participation_plan().cadence);
  return static_cast<double>(t.rec.contributors) / scheduled;
}

}  // namespace

Outcome run_fleet_round(const RunOptions& opt) {
  Outcome out;
  const std::uint64_t seed = derived_seed(opt.seed, kEngineTag);
  const std::size_t dim = policy_dim();
  const CpuMeter cpu;

  if (!opt.trace) {
    std::unique_ptr<Trial> probe;
    const double setup_s = median_setup(5, [&](std::size_t) {
      probe = std::make_unique<Trial>(dim, seed, 1, nullptr);
    });
    probe.reset();
    RepeatTimes rt;
    std::vector<std::unique_ptr<Trial>> trials;
    RepeatClock clock(opt.seconds);
    while (clock.another(rt.reps.size())) {
      // Keep only the first trial (the reference) and the latest.
      if (trials.size() == 2) trials.pop_back();
      trials.push_back(std::make_unique<Trial>(dim, seed, 1, nullptr));
      trials.back()->run();
      rt.add(trials.back()->rec.interval_ms);
      out.attempted += kRoundsPerTrial;
      if (trials.size() == 2)
        out.check("repeated trial reproduces the first",
                  same(*trials[0], *trials[1]), kRoundsPerTrial);
    }
    const Trial& first = *trials.front();
    const double share = aggregated_share(first);
    out.check("aggregated upload share in sanity band",
              std::isfinite(share) && share >= opt.band_lo &&
                  share <= opt.band_hi,
              kRoundsPerTrial, num(share));
    out.check("rounds per trial", first.engine->round() == kRoundsPerTrial,
              kRoundsPerTrial, std::to_string(first.engine->round()));
    report_end_to_end(out, setup_s, rt, static_cast<double>(kAgents), "round",
                      "synthetic agent hooks");
    out.line("metric aggregated_share = " + num(share) +
             " (deterministic; " + std::to_string(first.rec.contributors) +
             " rows aggregated)");
    out.metric("peak_rss_mb", "MiB", peak_rss_mib());
    out.metric("quality", "fraction", share);
    return out;
  }

  Trial ref(dim, seed, 1, nullptr);
  const double ref_wall = ref.run();
  Tracer tr(steady_now);
  Trial traced(dim, seed, 1, &tr);
  tr.begin("fleet_round.trial", "untraced");
  {
    Tracer::Scope s(&tr, "federated.train", "federated");
    traced.run();
  }
  const double traced_wall = tr.end();
  Trial lane2(dim, seed, 2, nullptr);
  const double lane2_wall = lane2.run();
  // The untraced wall brackets the traced run: mean of one before, one after.
  const double untraced_wall =
      0.5 * (ref_wall + Trial(dim, seed, 1, nullptr).run());

  out.attempted = kRoundsPerTrial;
  out.check("traced replay equals the untraced run bit-for-bit",
            same(traced, ref), kRoundsPerTrial);
  out.check("1-lane and 2-lane server rounds identical", same(lane2, ref),
            kRoundsPerTrial);

  report_federated_counts(out, *traced.engine, traced.rec);
  out.metric("core.cpu_per_wall", "ratio", cpu.cpu_per_wall());
  out.metric("core.lane2_speedup", "ratio", untraced_wall / lane2_wall);
  report_trace(out, tr, traced_wall, untraced_wall,
               opt.trace_dir + "/fleet_round.json");
  return out;
}

}  // namespace perfbench

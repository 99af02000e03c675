/// \file gridworld_infer.cpp
/// Workload `gridworld_infer`: the Fig. 4 / Fig. 8a inference campaign,
/// run serially. A 500-episode GridWorld consensus policy plus a range
/// detector (margin 0.10); trials cycle over BER {0, 0.5, 1, 2}% x
/// {Trans-1, Trans-M, stuck-at-1} x {int8 float shadow, int8-native,
/// float shadow + detector}, each one evaluate_inference_fault call with
/// 8 attempts per agent. The traced run replays evaluate_inference_fault
/// outside-in (consensus_network -> apply_static_inference_fault ->
/// run_batched_inference_campaign) with the environments behind the
/// timing decorator.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "envs/gridworld.hpp"
#include "frl/gridworld_system.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace frlfi;

constexpr std::size_t kTrainEpisodes = 500;
constexpr std::size_t kAttempts = 8;
/// Passes over the 36-scenario grid in the fixed trial list. The p90
/// trial is one of the int8-native static-fault trials, whose cost follows
/// their fault draw; eight passes put 48 of them in the tail so its p90
/// does not rest on a handful of draws.
constexpr std::size_t kPasses = 8;
constexpr std::uint64_t kSystemTag = 0x61D0;
constexpr std::uint64_t kTrialTag = 0x7121;

constexpr double kBers[] = {0.0, 0.005, 0.01, 0.02};
constexpr FaultModel kModels[] = {FaultModel::TransientSingleStep,
                                  FaultModel::TransientPersistent,
                                  FaultModel::StuckAt1};
enum Plane : std::size_t { kFloat = 0, kInt8 = 1, kDetector = 2 };
constexpr const char* kPlaneNames[] = {"float", "int8", "detector"};
constexpr std::size_t kScenarios = 4 * 3 * 3;

struct Trial {
  std::size_t ber = 0, model = 0, plane = 0;
  std::uint64_t seed = 0;
};

std::vector<Trial> trial_list(std::uint64_t workload_seed) {
  std::vector<Trial> list;
  for (std::size_t k = 0; k < kPasses * kScenarios; ++k) {
    const std::size_t s = k % kScenarios;
    list.push_back({s / 9, (s / 3) % 3, s % 3,
                    derived_seed(workload_seed, (kTrialTag << 20) + k)});
  }
  return list;
}

InferenceFaultScenario scenario_of(const Trial& t,
                                   const RangeAnomalyDetector& det) {
  InferenceFaultScenario sc;
  sc.spec.model = kModels[t.model];
  sc.spec.ber = kBers[t.ber];
  sc.use_int8 = true;  // the paper's 8-bit GridWorld deployment
  if (t.plane == kInt8) sc.mode = InferenceMode::Int8;
  if (t.plane == kDetector) sc.detector = &det;
  return sc;
}

/// The trained system and its detector (the workload's set-up).
struct Setup {
  explicit Setup(std::uint64_t seed)
      : sys(GridWorldFrlSystem::Config{}, seed) {
    sys.train(kTrainEpisodes);
    Network healthy = sys.consensus_network();
    det.emplace(healthy, RangeAnomalyDetector::Options{.margin = 0.10});
  }
  GridWorldFrlSystem sys;
  std::optional<RangeAnomalyDetector> det;
};

/// One pass over the trial list on the system; per-trial success rates
/// and wall times.
struct Pass {
  std::vector<double> sr;
  std::vector<double> ms;
  double wall_s = 0.0;
};

Pass system_pass(Setup& su, const std::vector<Trial>& list,
                 std::size_t threads = 1) {
  Pass p;
  const double t0 = steady_now();
  for (const Trial& t : list) {
    const double a = steady_now();
    p.sr.push_back(su.sys.evaluate_inference_fault(
        scenario_of(t, *su.det), kAttempts, t.seed, threads));
    p.ms.push_back((steady_now() - a) * 1e3);
  }
  p.wall_s = steady_now() - t0;
  return p;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Outside-in replay of evaluate_inference_fault for one trial; the
/// per-plane time and step tallies feed the nn / mitigation metrics.
struct Tally {
  double nn_s[3] = {0, 0, 0};
  double fault_s[3] = {0, 0, 0};
  std::size_t steps[3] = {0, 0, 0};
  std::size_t bits_flipped = 0;
  bool bits_ok = true;
  std::string bits_detail;
};

double replay_trial(Setup& su, const Trial& t, Tracer& tr, Tally& tally) {
  const InferenceFaultScenario sc = scenario_of(t, *su.det);
  const GridWorldFrlSystem::Config& cfg = su.sys.config();
  Tracer::Scope trial(&tr, "frl.trial", "frl");
  std::optional<Network> policy;
  {
    Tracer::Scope s(&tr, "frl.consensus", "frl");
    policy.emplace(su.sys.consensus_network());
  }
  Rng fault_rng = Rng(t.seed).split(0xFA52);
  const bool trans1 = sc.spec.model == FaultModel::TransientSingleStep;
  if (!trans1) {
    const double before = tr.self_of("fault");
    InjectionReport rep;
    {
      Tracer::Scope s(&tr, "fault.inject", "fault");
      rep = apply_static_inference_fault(*policy, sc, fault_rng);
    }
    tally.fault_s[t.plane] += tr.self_of("fault") - before;
    tally.bits_flipped += rep.bits_flipped;
    const bool ok = sc.spec.ber == 0.0 ? rep.bits_flipped == 0
                                       : rep.bits_flipped > 0;
    if (!ok) {
      tally.bits_ok = false;
      tally.bits_detail = std::to_string(rep.bits_flipped) + " bits at BER " +
                          num(sc.spec.ber);
    }
  }
  BatchedCampaignSpec spec;
  spec.episodes = kAttempts;
  spec.agents = cfg.n_agents;
  spec.max_steps = cfg.learner.max_steps;
  spec.seed = t.seed;
  spec.rng_salt = 0xE7A1;
  spec.threads = 1;
  spec.activation_detector = sc.detector;
  spec.mode = sc.mode;
  spec.int8_headroom = sc.int8_headroom;
  if (trans1) spec.trans1 = &sc;
  std::size_t steps = 0;
  const double nn_before = tr.self_of("nn");
  std::vector<double> successes;
  {
    Tracer::Scope s(&tr, "nn.campaign", "nn");
    successes = run_batched_inference_campaign(
        *policy, spec,
        [&](std::size_t a) -> std::unique_ptr<Environment> {
          return std::make_unique<TimedEnv>(
              std::make_unique<GridWorldEnv>(su.sys.agent_env(a).layout(),
                                             cfg.env),
              &tr, "envs");
        },
        [&](std::size_t, const Environment&, const EpisodeStats& st) {
          steps += st.steps;
          return st.success ? 1.0 : 0.0;
        });
  }
  tally.nn_s[t.plane] += tr.self_of("nn") - nn_before;
  tally.steps[t.plane] += steps;
  return mean(successes);
}

/// B = 12 batched forwards of the consensus policy, float and int8-native,
/// over observations a clean pass captured; medians in microseconds.
void batch_replay(Outcome& out, Setup& su) {
  Network policy = su.sys.consensus_network();
  const std::size_t agents = su.sys.config().n_agents;
  std::vector<Tensor> obs;
  Rng rng(7);
  for (std::size_t a = 0; a < agents; ++a) {
    GridWorldEnv inner(su.sys.agent_env(a).layout(), su.sys.config().env);
    TimedEnv env(inner, nullptr, "envs", 16);
    greedy_episode(policy, env, rng, su.sys.config().learner.max_steps);
    obs.insert(obs.end(), env.captured().begin(), env.captured().end());
  }
  const std::size_t feat = obs.front().size();
  const DeployedWeights img =
      DeployedWeights::int8_image(policy.flat_parameters(), 2.0f);
  const QuantWeightView qv = img.quant_view(nullptr);
  std::vector<double> fl, q8;
  for (std::size_t rep = 0; rep < 400; ++rep) {
    Tensor batch({agents, feat});
    for (std::size_t b = 0; b < agents; ++b) {
      const Tensor& o = obs[(rep * agents + b) % obs.size()];
      std::copy(o.data().begin(), o.data().end(),
                batch.data().begin() + static_cast<std::ptrdiff_t>(b * feat));
    }
    double t0 = steady_now();
    const Tensor a = policy.forward_batch(batch, agents);
    double t1 = steady_now();
    fl.push_back((t1 - t0) * 1e6);
    t0 = steady_now();
    const Tensor b = policy.forward_batch_quant(batch, agents, qv);
    t1 = steady_now();
    q8.push_back((t1 - t0) * 1e6);
    if (a.size() != b.size()) throw std::logic_error("batch shape mismatch");
  }
  const double f = summarize(fl).median, q = summarize(q8).median;
  out.metric("nn.forward_batch_us", "us", f);
  out.metric("nn.forward_batch_quant_us", "us", q);
  out.metric("nn.int8_over_float", "ratio", q / f);
}

}  // namespace

Outcome run_gridworld_infer(const RunOptions& opt) {
  Outcome out;
  const std::uint64_t sys_seed = derived_seed(kModelSeed, kSystemTag);
  const std::vector<Trial> list = trial_list(opt.seed);
  const CpuMeter cpu;

  if (!opt.trace) {
    std::optional<Setup> su;
    const double setup_s =
        median_setup(9, [&](std::size_t) { su.emplace(sys_seed); });
    RepeatTimes rt;
    std::vector<Pass> passes;
    RepeatClock clock(opt.seconds);
    while (clock.another(passes.size())) {
      passes.push_back(system_pass(*su, list));
      rt.add(passes.back().ms);
    }
    for (std::size_t p = 1; p < passes.size(); ++p)
      out.check("pass " + std::to_string(p) + " reproduces pass 0",
                passes[p].sr == passes[0].sr, list.size());
    out.attempted = passes.size() * list.size();
    const double sr = mean(passes[0].sr);
    bool finite = true;
    for (const double v : passes[0].sr) finite = finite && std::isfinite(v);
    out.check("success_rate in sanity band",
              finite && sr >= opt.band_lo && sr <= opt.band_hi, list.size(),
              num(sr) + " in [" + num(opt.band_lo) + ", " + num(opt.band_hi) +
                  "]");
    report_end_to_end(
        out, setup_s, rt,
        static_cast<double>(kAttempts * su->sys.config().n_agents), "trial",
        "greedy eval");
    out.line("metric success_rate = " + num(sr) + " (deterministic, " +
             std::to_string(list.size()) + " trials)");
    out.metric("peak_rss_mb", "MiB", peak_rss_mib());
    out.metric("quality", "fraction", sr);
    return out;
  }

  Setup su(sys_seed);
  const Pass ref = system_pass(su, list);
  Tracer tr(steady_now);
  Tally tally;
  std::vector<double> replay_sr;
  tr.begin("gridworld_infer.pass", "untraced");
  for (const Trial& t : list)
    replay_sr.push_back(replay_trial(su, t, tr, tally));
  const double traced_wall = tr.end();
  const Pass lane2 = system_pass(su, list, /*threads=*/2);
  // The untraced wall brackets the traced pass: mean of one before, one after.
  const double untraced_wall =
      0.5 * (ref.wall_s + system_pass(su, list).wall_s);

  out.attempted = list.size();
  out.check("traced replay equals the system run bit-for-bit",
            replay_sr == ref.sr, list.size());
  out.check("1-lane and 2-lane per-trial success rates identical",
            lane2.sr == ref.sr, list.size());
  out.check("bits_flipped is 0 at BER 0 and > 0 above", tally.bits_ok,
            list.size(), tally.bits_detail);
  const double sr = mean(ref.sr);
  out.check("success_rate in sanity band",
            std::isfinite(sr) && sr >= opt.band_lo && sr <= opt.band_hi,
            list.size(), num(sr));

  for (std::size_t p = 0; p < 3; ++p)
    out.metric(std::string("nn.infer_us_per_step.") + kPlaneNames[p], "us",
               tally.nn_s[p] * 1e6 / static_cast<double>(std::max<std::size_t>(
                                         1, tally.steps[p])));
  batch_replay(out, su);
  out.metric("envs.step_us", "us", tr.mean_of("env.step") * 1e6);
  out.metric("envs.busy_share", "fraction", tr.self_of("envs") / traced_wall);
  out.metric("fault.inject_us", "us", tr.mean_of("fault.inject") * 1e6);
  {
    // make_deployed_weights of an int8 scenario (the image a Trans-1
    // campaign deploys once), timed on its own.
    Network policy = su.sys.consensus_network();
    std::vector<double> us;
    for (std::size_t r = 0; r < 50; ++r) {
      const double t0 = steady_now();
      const DeployedWeights d =
          make_deployed_weights(policy, scenario_of(Trial{}, *su.det));
      us.push_back((steady_now() - t0) * 1e6);
      if (d.size() != policy.parameter_count())
        throw std::logic_error("deployed image size mismatch");
    }
    out.metric("fault.deploy_us", "us", summarize(us).median);
  }
  out.metric("fault.bits_flipped", "count",
             static_cast<double>(tally.bits_flipped));
  const auto step_cost = [&](std::size_t p) {
    return (tally.nn_s[p] + tally.fault_s[p]) /
           static_cast<double>(std::max<std::size_t>(1, tally.steps[p]));
  };
  out.metric("mitigation.detector_overhead_pct", "%",
             100.0 * (step_cost(kDetector) / step_cost(kFloat) - 1.0));
  out.metric("frl.consensus_us", "us", tr.mean_of("frl.consensus") * 1e6);
  out.metric("core.cpu_per_wall", "ratio", cpu.cpu_per_wall());
  out.metric("core.lane2_speedup", "ratio", untraced_wall / lane2.wall_s);
  report_trace(out, tr, traced_wall, untraced_wall,
               opt.trace_dir + "/gridworld_infer.json");
  return out;
}

}  // namespace perfbench

#include "frl/evaluation.hpp"

#include <algorithm>
#include <optional>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace frlfi {

EpisodeStats greedy_episode(Network& policy, Environment& env, Rng& rng,
                            std::size_t max_steps, const WeightView* view) {
  FRLFI_CHECK(max_steps >= 1);
  EpisodeStats stats;
  Tensor obs = env.reset(rng);
  for (std::size_t t = 0; t < max_steps; ++t) {
    const std::size_t action = policy.forward(obs, view).argmax();
    StepResult r = env.step(action, rng);
    stats.total_reward += r.reward;
    ++stats.steps;
    if (r.done) {
      stats.success = r.success;
      return stats;
    }
    obs = std::move(r.observation);
  }
  stats.success = false;
  return stats;
}

namespace {

/// Trans-1 strike plan for the lockstep runner: each lane's fault step
/// plus the shared deployed image its overlay is computed against.
struct Trans1Strikes {
  const DeployedWeights& deployed;
  const InferenceFaultScenario& scenario;
  std::vector<std::size_t> fault_step;  // per lane
  // Detector precomputation (null without a detector): the base's
  // out-of-range indices, scanned once per campaign so each strike
  // screens in O(overlay entries).
  const std::vector<std::size_t>* base_hits = nullptr;
};

/// The single lockstep lane runner behind greedy_episodes_batched and
/// greedy_episodes_trans1_batched: one greedy episode per lane over
/// independent environments, all still-active lanes batched into one
/// forward per decision step. With a non-null `strikes`, lane i's weights
/// are corrupted for the single read at strikes->fault_step[i] via a
/// per-lane weight view (drawn from rngs[i] at that step, exactly where
/// the serial Trans-1 path consumes it). Keeping both paths on this one
/// loop is what keeps their lockstep machinery — batch-buffer reuse,
/// argmax rule, lane retirement — bit-aligned forever.
///
/// A non-null `base_qview` moves every forward — clean and striking — to
/// the int8-native plane: clean lanes share forward_batch_quant over the
/// base image, striking lanes ride per-lane QuantWeightViews whose word
/// overlays come from trans1_strike_overlay_quant (the identical rng
/// stream as the float strikes, recorded as words).
std::vector<EpisodeStats> lockstep_episodes(
    Network& policy, const std::vector<Environment*>& envs,
    std::vector<Rng>& rngs, std::size_t max_steps,
    const RangeAnomalyDetector* activation_detector,
    const Trans1Strikes* strikes, const QuantWeightView* base_qview) {
  const std::size_t lanes = envs.size();
  FRLFI_CHECK_MSG(lanes >= 1 && rngs.size() == lanes && max_steps >= 1,
                  "batched greedy: " << lanes << " envs, " << rngs.size()
                                     << " rngs");
  std::vector<EpisodeStats> stats(lanes);
  std::vector<Tensor> obs(lanes);
  std::vector<std::size_t> active;
  active.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    obs[i] = envs[i]->reset(rngs[i]);
    FRLFI_CHECK_MSG(obs[i].shape() == obs[0].shape(),
                    "batched greedy: lanes disagree on observation shape");
    active.push_back(i);
  }
  // Screening installs an activation hook on the shared policy; restore
  // whatever hook the caller had at every exit (exceptions included) so a
  // throwing env step cannot leave the suppressor attached, and a
  // caller-installed hook survives the batched run.
  struct HookGuard {
    Network* net = nullptr;
    std::function<void(std::size_t, Tensor&)> saved;
    ~HookGuard() {
      if (net) net->set_activation_hook(std::move(saved));
    }
  } hook_guard;
  if (activation_detector != nullptr &&
      activation_detector->has_activation_calibration()) {
    hook_guard.saved = policy.activation_hook();
    policy.set_activation_hook(
        [activation_detector](std::size_t layer, Tensor& act) {
          activation_detector->suppress_activations(layer, act);
        });
    hook_guard.net = &policy;
  }
  const std::size_t sample = obs[0].size();
  Tensor batch;
  // Per-step strike state; overlays and views are reserved before any
  // pointer into them is taken, so a striking lane's view stays valid for
  // the whole forward.
  std::vector<WeightOverlay> step_overlays;
  std::vector<WeightView> step_views;
  std::vector<const WeightView*> lane_views;
  std::vector<QuantOverlay> step_qoverlays;
  std::vector<QuantWeightView> step_qviews;
  std::vector<const QuantWeightView*> lane_qviews;
  for (std::size_t t = 0; t < max_steps && !active.empty(); ++t) {
    const std::size_t nb = active.size();
    // The lane count only shrinks as episodes finish, so most steps reuse
    // the previous step's batch buffer unchanged.
    if (batch.empty() || batch.dim(0) != nb) {
      std::vector<std::size_t> bshape{nb};
      bshape.insert(bshape.end(), obs[active[0]].shape().begin(),
                    obs[active[0]].shape().end());
      batch = Tensor(std::move(bshape));
    }
    std::size_t striking = 0;
    for (std::size_t a = 0; a < nb; ++a) {
      std::copy_n(obs[active[a]].data().begin(), sample,
                  batch.data().begin() + static_cast<std::ptrdiff_t>(a * sample));
      if (strikes != nullptr && strikes->fault_step[active[a]] == t)
        ++striking;
    }
    Tensor logits;
    if (striking > 0 && base_qview != nullptr) {
      // Int8-native strikes: same per-lane draw order as the float branch
      // below, with the corruption recorded as int8 words and the forward
      // executing the struck image directly.
      step_qoverlays.clear();
      step_qviews.clear();
      step_qoverlays.reserve(striking);
      step_qviews.reserve(striking);
      lane_qviews.assign(nb, nullptr);
      for (std::size_t a = 0; a < nb; ++a) {
        const std::size_t i = active[a];
        if (strikes->fault_step[i] != t) continue;
        step_qoverlays.emplace_back();
        trans1_strike_overlay_quant(strikes->deployed, strikes->scenario,
                                    rngs[i], step_qoverlays.back(),
                                    strikes->base_hits);
        step_qviews.push_back(
            strikes->deployed.quant_view(&step_qoverlays.back()));
        lane_qviews[a] = &step_qviews.back();
      }
      logits = policy.forward_batch_quant(batch, nb, *base_qview, lane_qviews);
    } else if (striking > 0) {
      // Each striking lane draws its own corruption from its own stream
      // (exactly what the serial path consumes at this step) and rides a
      // private weight view; the other lanes share the clean forward.
      step_overlays.clear();
      step_views.clear();
      step_overlays.reserve(striking);
      step_views.reserve(striking);
      lane_views.assign(nb, nullptr);
      for (std::size_t a = 0; a < nb; ++a) {
        const std::size_t i = active[a];
        if (strikes->fault_step[i] != t) continue;
        step_overlays.emplace_back();
        trans1_strike_overlay(strikes->deployed, strikes->scenario, rngs[i],
                              step_overlays.back(), strikes->base_hits);
        step_views.push_back(strikes->deployed.view(&step_overlays.back()));
        lane_views[a] = &step_views.back();
      }
      logits = policy.forward_batch(batch, nb, lane_views);
    } else if (base_qview != nullptr) {
      logits = policy.forward_batch_quant(batch, nb, *base_qview);
    } else {
      logits = policy.forward_batch(batch, nb);
    }
    const std::size_t width = logits.size() / nb;
    std::vector<std::size_t> still_active;
    still_active.reserve(nb);
    for (std::size_t a = 0; a < nb; ++a) {
      const std::size_t i = active[a];
      // Shared row argmax: the single action-selection rule (ties and NaN
      // -> lowest index), exactly Tensor::argmax, so a fault-corrupted
      // policy's NaN/Inf logits pick the same action as the serial path.
      const std::size_t action =
          argmax_row(logits.data().data() + a * width, width);
      StepResult r = envs[i]->step(action, rngs[i]);
      stats[i].total_reward += r.reward;
      ++stats[i].steps;
      if (r.done) {
        stats[i].success = r.success;
      } else {
        obs[i] = std::move(r.observation);
        still_active.push_back(i);
      }
    }
    active = std::move(still_active);
  }
  return stats;
}

}  // namespace

std::vector<EpisodeStats> greedy_episodes_batched(
    Network& policy, const std::vector<Environment*>& envs,
    std::vector<Rng>& rngs, std::size_t max_steps,
    const RangeAnomalyDetector* activation_detector,
    const QuantWeightView* qview) {
  return lockstep_episodes(policy, envs, rngs, max_steps, activation_detector,
                           nullptr, qview);
}

DeployedWeights make_deployed_weights(const Network& policy,
                                      const InferenceFaultScenario& scenario) {
  const std::vector<float> flat = policy.flat_parameters();
  if (scenario.use_int8)
    return DeployedWeights::int8_image(flat, scenario.int8_headroom);
  return DeployedWeights::fixed_point_image(flat, scenario.fixed_format);
}

InjectionReport trans1_strike_overlay(
    const DeployedWeights& deployed, const InferenceFaultScenario& scenario,
    Rng& rng, WeightOverlay& out,
    const std::vector<std::size_t>* base_hits) {
  const InjectionReport report = deployed.inject(scenario.spec, rng, out);
  if (scenario.detector != nullptr)
    scenario.detector->scan_and_suppress(
        std::span<const float>(deployed.base()), out, base_hits);
  return report;
}

InjectionReport trans1_strike_overlay_quant(
    const DeployedWeights& deployed, const InferenceFaultScenario& scenario,
    Rng& rng, QuantOverlay& out,
    const std::vector<std::size_t>* base_hits) {
  const InjectionReport report = deployed.inject_quant(scenario.spec, rng, out);
  if (scenario.detector != nullptr)
    scenario.detector->scan_and_suppress(
        std::span<const float>(deployed.base()), deployed.int8_scale(), out,
        base_hits);
  return report;
}

std::vector<EpisodeStats> greedy_episodes_trans1_batched(
    Network& policy, const DeployedWeights& deployed,
    const InferenceFaultScenario& scenario,
    const std::vector<Environment*>& envs, std::vector<Rng>& rngs,
    std::size_t max_steps, const std::vector<std::size_t>* base_hits) {
  const std::size_t lanes = envs.size();
  FRLFI_CHECK_MSG(lanes >= 1 && rngs.size() == lanes && max_steps >= 1,
                  "batched trans1: " << lanes << " envs, " << rngs.size()
                                     << " rngs");
  Trans1Strikes strikes{deployed, scenario, {}, nullptr};
  strikes.fault_step.reserve(lanes);
  // Per-lane stream order matches the serial runner exactly: the
  // fault-step draw precedes the environment reset (which the shared
  // lockstep core performs next).
  for (std::size_t i = 0; i < lanes; ++i)
    strikes.fault_step.push_back(
        static_cast<std::size_t>(rngs[i].uniform_index(max_steps)));
  std::vector<std::size_t> local_hits;
  if (scenario.detector != nullptr) {
    if (base_hits == nullptr) {
      local_hits = scenario.detector->base_out_of_range(
          std::span<const float>(deployed.base()));
      base_hits = &local_hits;
    }
    strikes.base_hits = base_hits;
  }
  std::optional<QuantWeightView> base_qview;
  if (scenario.mode == InferenceMode::Int8) {
    FRLFI_CHECK_MSG(scenario.use_int8,
                    "InferenceMode::Int8 requires an int8 deployment "
                    "(scenario.use_int8)");
    base_qview.emplace(deployed.quant_view(nullptr));
  }
  // The scenario's detector screens the strike overlays (weight scan,
  // inside trans1_strike_overlay); activation screening does not apply.
  return lockstep_episodes(policy, envs, rngs, max_steps,
                           /*activation_detector=*/nullptr, &strikes,
                           base_qview ? &*base_qview : nullptr);
}

InjectionReport apply_static_inference_fault(
    Network& policy, const InferenceFaultScenario& scenario, Rng& rng) {
  const DeployedWeights deployed = make_deployed_weights(policy, scenario);
  WeightOverlay overlay;
  const InjectionReport report =
      trans1_strike_overlay(deployed, scenario, rng, overlay);
  std::vector<float> flat = deployed.base();
  overlay.apply_to(flat);
  policy.set_flat_parameters(flat);
  return report;
}

std::vector<double> run_batched_inference_campaign(
    const Network& policy, const BatchedCampaignSpec& spec,
    const std::function<std::unique_ptr<Environment>(std::size_t)>& make_env,
    const std::function<double(std::size_t, const Environment&,
                               const EpisodeStats&)>& metric) {
  FRLFI_CHECK_MSG(spec.episodes >= 1 && spec.agents >= 1 && spec.max_steps >= 1,
                  "batched campaign: " << spec.episodes << " episodes, "
                                       << spec.agents << " agents");
  FRLFI_CHECK(static_cast<bool>(make_env) && static_cast<bool>(metric));
  std::vector<double> metrics(spec.episodes * spec.agents);
  const Rng base(spec.seed);

  // Nothing in the batched runners mutates parameters — Trans-1 corruption
  // rides per-lane weight views over one shared deployed image — so every
  // worker lane shares a single read-only working copy of the policy. The
  // one exception is the batched activation screen, which installs a hook
  // (per-network mutable state): those campaigns still clone per lane.
  const bool hook_lanes = spec.trans1 == nullptr &&
                          spec.activation_detector != nullptr &&
                          spec.activation_detector->has_activation_calibration();
  std::optional<Network> shared_policy;
  if (!hook_lanes) shared_policy.emplace(policy.clone());
  std::optional<DeployedWeights> deployed;
  std::vector<std::size_t> base_hits;
  if (spec.trans1 != nullptr) {
    deployed.emplace(make_deployed_weights(policy, *spec.trans1));
    // Detector precomputation, once per campaign: the deployed base and
    // its out-of-range set are fixed across all trials and lanes.
    if (spec.trans1->detector != nullptr)
      base_hits = spec.trans1->detector->base_out_of_range(
          std::span<const float>(deployed->base()));
  }
  // Clean-trial int8 plane: deploy the policy once; every trial's batched
  // forwards then execute this shared read-only image natively.
  std::optional<DeployedWeights> clean_deployed;
  std::optional<QuantWeightView> clean_qview;
  if (spec.trans1 == nullptr && spec.mode == InferenceMode::Int8) {
    clean_deployed.emplace(DeployedWeights::int8_image(
        policy.flat_parameters(), spec.int8_headroom));
    clean_qview.emplace(clean_deployed->quant_view(nullptr));
  }

  // One worker lane: private environments (stateful), built once and
  // reused across the lane's whole trial range. Trial streams depend only
  // on (seed, salt, agent, trial), so any partition of trials over lanes
  // produces identical bits.
  const auto run_trials = [&](std::size_t t_begin, std::size_t t_end) {
    std::optional<Network> private_policy;
    if (hook_lanes) private_policy.emplace(policy.clone());
    Network& lane_policy = hook_lanes ? *private_policy : *shared_policy;
    std::vector<std::unique_ptr<Environment>> lane_envs;
    std::vector<Environment*> lanes;
    lane_envs.reserve(spec.agents);
    for (std::size_t a = 0; a < spec.agents; ++a) {
      lane_envs.push_back(make_env(a));
      FRLFI_CHECK_MSG(lane_envs.back() != nullptr, "make_env returned null");
      lanes.push_back(lane_envs.back().get());
    }
    std::vector<Rng> rngs(spec.agents, Rng(0));
    for (std::size_t t = t_begin; t < t_end; ++t) {
      for (std::size_t a = 0; a < spec.agents; ++a)
        rngs[a] = base.derive_stream({spec.rng_salt + a, t});
      const std::vector<EpisodeStats> stats =
          spec.trans1 != nullptr
              ? greedy_episodes_trans1_batched(lane_policy, *deployed,
                                               *spec.trans1, lanes, rngs,
                                               spec.max_steps, &base_hits)
              : greedy_episodes_batched(lane_policy, lanes, rngs,
                                        spec.max_steps,
                                        spec.activation_detector,
                                        clean_qview ? &*clean_qview : nullptr);
      for (std::size_t a = 0; a < spec.agents; ++a)
        metrics[t * spec.agents + a] = metric(a, *lanes[a], stats[a]);
    }
  };

  // Same lane rule as run_campaign (dispatch_lanes).
  dispatch_lanes(spec.threads, spec.episodes, run_trials);
  return metrics;
}

}  // namespace frlfi

#include "frl/federated_system.hpp"

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"
#include "frl/persist.hpp"

namespace frlfi {

void FederatedSystem::start_engine(
    FederatedRoundEngine::Config cfg, std::uint64_t seed,
    std::uint64_t stream_tag,
    std::function<double(std::size_t, std::size_t, Rng&)> run_episode) {
  FRLFI_CHECK_MSG(!nets_.empty(), "need at least one agent");
  cfg.n_agents = nets_.size();
  cfg.parameter_dim = nets_[0]->parameter_count();
  engine_ = std::make_unique<FederatedRoundEngine>(
      cfg, seed, stream_tag,
      FederatedRoundEngine::Hooks{
          std::move(run_episode),
          [this](std::size_t i, std::span<float> out) {
            nets_[i]->copy_flat_parameters(out);
          },
          [this](std::size_t i, std::span<const float> params) {
            nets_[i]->set_flat_parameters(params);
          },
          [this](std::size_t victim, const FaultSpec& spec, Rng& rng) {
            inject_network_weights(*nets_[victim], spec, rng);
          },
          /*on_round=*/nullptr});
}

Network& FederatedSystem::network(std::size_t agent) {
  FRLFI_CHECK(agent < nets_.size());
  return *nets_[agent];
}

Network FederatedSystem::consensus_network() const {
  std::vector<std::vector<float>> all;
  all.reserve(nets_.size());
  for (const auto& n : nets_) all.push_back(n->flat_parameters());
  Network net = nets_[0]->clone();
  net.set_flat_parameters(mean_parameters(all));
  return net;
}

double FederatedSystem::run_inference_campaign(
    const InferenceFaultScenario& scenario, std::size_t episodes_per_agent,
    std::uint64_t seed, std::size_t threads,
    const InferenceCampaign& campaign) const {
  Network policy = consensus_network();
  Rng fault_rng = Rng(seed).split(campaign.fault_salt);
  const bool trans1 = scenario.spec.model == FaultModel::TransientSingleStep;
  if (!trans1) apply_static_inference_fault(policy, scenario, fault_rng);

  // Each trial batches all agents' decision steps into one forward over
  // the shared policy (Trans-1 strikes ride per-agent weight views).
  // scenario.mode governs both timings, so an Int8 scenario executes its
  // deployed image int8-natively either way.
  const BatchedCampaignSpec spec{
      .episodes = episodes_per_agent, .agents = nets_.size(),
      .max_steps = campaign.max_steps, .seed = seed,
      .rng_salt = campaign.rng_salt, .threads = threads,
      .activation_detector = scenario.detector, .mode = scenario.mode,
      .int8_headroom = scenario.int8_headroom,
      .trans1 = trans1 ? &scenario : nullptr};
  const std::vector<double> metrics = run_batched_inference_campaign(
      policy, spec, campaign.make_env, campaign.metric);
  double total = 0.0;
  for (const double m : metrics) total += m;
  return total / static_cast<double>(metrics.size());
}

FederatedSystem::Snapshot FederatedSystem::snapshot() const {
  Snapshot snap;
  snap.engine = engine_->training_state();
  snap.episode = snap.engine.episode;
  snap.round = snap.engine.round;
  for (const auto& n : nets_) snap.agent_params.push_back(n->flat_parameters());
  snap.baselines = learner_state();
  return snap;
}

void FederatedSystem::restore(const Snapshot& snap) {
  // All-or-nothing: every check runs before the first write, so a
  // rejected snapshot (or state stream) leaves the system as it was.
  FRLFI_CHECK_MSG(snap.agent_params.size() == nets_.size(),
                  "snapshot agent count " << snap.agent_params.size());
  for (const std::vector<float>& p : snap.agent_params)
    FRLFI_CHECK_MSG(p.size() == nets_[0]->parameter_count(),
                    "snapshot parameter count " << p.size());
  FRLFI_CHECK_MSG(snap.baselines.size() == learner_state().size(),
                  "snapshot baseline count " << snap.baselines.size());
  // Top-level counters win over the engine block so hand-built snapshots
  // (engine state default-empty) keep their position-only semantics. The
  // engine validates its block before it changes anything.
  FederatedRoundEngine::TrainingState state = snap.engine;
  state.episode = snap.episode;
  state.round = snap.round;
  engine_->restore_training_state(state);
  for (std::size_t i = 0; i < nets_.size(); ++i)
    nets_[i]->set_flat_parameters(snap.agent_params[i]);
  set_learner_state(snap.baselines);
}

void FederatedSystem::save(std::ostream& os) const {
  persist::write_header(os, 3);
  const Snapshot snap = snapshot();
  persist::write_u64(os, snap.episode);
  persist::write_u64(os, snap.round);
  persist::write_u64(os, snap.agent_params.size());
  for (const auto& p : snap.agent_params) persist::write_floats(os, p);
  for (const auto& b : snap.baselines) {
    persist::write_floats(os, {b.value});
    persist::write_u64(os, b.initialized ? 1 : 0);
  }
  persist::write_training_state(os, snap.engine);
}

void FederatedSystem::load(std::istream& is) {
  const std::uint32_t version = persist::read_header(is);
  FRLFI_CHECK_MSG(version >= 1 && version <= 3,
                  "unsupported state version " << version);
  Snapshot snap;
  snap.episode = static_cast<std::size_t>(persist::read_u64(is));
  snap.round = static_cast<std::size_t>(persist::read_u64(is));
  const std::uint64_t n = persist::read_u64(is);
  FRLFI_CHECK_MSG(n == nets_.size(), "state holds " << n << " agents, system has "
                                                    << nets_.size());
  for (std::uint64_t i = 0; i < n; ++i)
    snap.agent_params.push_back(persist::read_floats(is));
  snap.baselines.resize(learner_state().size());
  for (auto& b : snap.baselines) {
    const std::vector<float> v = persist::read_floats(is);
    FRLFI_CHECK_MSG(v.size() == 1, "baseline holds " << v.size() << " floats");
    b.value = v[0];
    b.initialized = persist::read_u64(is) != 0;
  }
  // Version-1 files carry no engine block: restore() falls back to the
  // position-only semantics.
  if (version >= 2)
    snap.engine = persist::read_training_state(is, nets_.size(), version);
  restore(snap);
}

}  // namespace frlfi

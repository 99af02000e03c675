#pragma once

/// \file federated_system.hpp
/// The core both paper systems (GridWorldFrlSystem, DroneFrlSystem) build
/// on: it owns the agent networks and the FederatedRoundEngine and is the
/// one implementation of the engine wiring (the gather, scatter and
/// inject hooks; a system adds its episode hook) and forwards, the
/// consensus policy, the inference-fault campaign body, and snapshot /
/// restore / save / load. A system keeps its Config, environments,
/// learners and its own metrics.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "federated/round_engine.hpp"
#include "frl/evaluation.hpp"
#include "frl/plans.hpp"
#include "rl/reinforce.hpp"

namespace frlfi {

/// Shared federated-system core: agent networks, engine, consensus,
/// inference-fault campaign and training-state persistence.
class FederatedSystem {
 public:
  /// Per-agent learner state beside the parameters: DroneNav's REINFORCE
  /// reward baselines; empty for GridWorld's Q-learners.
  using Baselines = std::vector<ReinforceTrainer::BaselineState>;

  /// Training-state snapshot for shared-prefix sweeps. The engine block
  /// (staleness buffer, pending server fault, mitigation history) makes a
  /// restored run replay the uninterrupted one bit-for-bit; the top-level
  /// episode/round win for hand-built snapshots that never filled it.
  struct Snapshot {
    std::vector<std::vector<float>> agent_params;
    Baselines baselines;
    std::size_t episode = 0;
    std::size_t round = 0;
    FederatedRoundEngine::TrainingState engine;
  };

  // Not movable: the round engine's hooks capture `this`.
  FederatedSystem(FederatedSystem&&) = delete;
  FederatedSystem& operator=(FederatedSystem&&) = delete;
  virtual ~FederatedSystem() = default;

  // Engine forwards; see FederatedRoundEngine. train() continues from the
  // current episode counter; without a server (one agent) there are no
  // rounds, bytes or channel.
  void set_fault_plan(const TrainingFaultPlan& plan) {
    engine_->set_fault_plan(plan);
  }
  void set_mitigation(const MitigationPlan& plan) {
    engine_->set_mitigation(plan);
  }
  void set_participation_plan(const ParticipationPlan& plan) {
    engine_->set_participation_plan(plan);
  }
  const ParticipationStats& participation_stats() const {
    return engine_->participation_stats();
  }
  void set_round_observer(
      std::function<void(const RoundParticipationReport&)> observer) {
    engine_->set_round_observer(std::move(observer));
  }
  void train(std::size_t episodes) { engine_->train(episodes); }
  std::size_t episode() const { return engine_->episode(); }
  const MitigationStats& mitigation_stats() const {
    return engine_->mitigation_stats();
  }
  std::size_t communication_bytes() const {
    return engine_->communication_bytes();
  }
  std::size_t communication_rounds() const { return engine_->round(); }
  const CommChannel* comm_channel() const {
    return engine_->server() ? &engine_->server()->channel() : nullptr;
  }

  /// A fresh network holding the consensus (mean) policy parameters.
  Network consensus_network() const;

  /// Capture / restore training state (keeps config; RNG stream positions
  /// are re-derived from the episode counter). restore() checks the whole
  /// snapshot — agent count, parameter lengths, learner state, the engine
  /// block — and throws Error before changing anything.
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Persist / reload the training state (binary). The loading system
  /// must have been constructed with the same configuration; a rejected
  /// stream throws Error and leaves the system as it was.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 protected:
  FederatedSystem() = default;

  /// Build the engine over nets_ (filled by the system's constructor);
  /// n_agents and parameter_dim come from the networks.
  void start_engine(
      FederatedRoundEngine::Config cfg, std::uint64_t seed,
      std::uint64_t stream_tag,
      std::function<double(std::size_t agent, std::size_t episode, Rng& rng)>
          run_episode);

  /// What distinguishes one system's inference-fault campaign: the
  /// static-fault stream Rng(seed).split(fault_salt), the per-agent trial
  /// stream salt (BatchedCampaignSpec::rng_salt), the step cap, and the
  /// environment factory and metric of run_batched_inference_campaign.
  struct InferenceCampaign {
    std::uint64_t fault_salt;
    std::uint64_t rng_salt;
    std::size_t max_steps;
    std::function<std::unique_ptr<Environment>(std::size_t agent)> make_env;
    std::function<double(std::size_t agent, const Environment& env,
                         const EpisodeStats& stats)>
        metric;
  };

  /// The evaluate_inference_fault body: corrupt a copy of the consensus
  /// policy (static faults; Trans-1 strikes per episode inside the
  /// runner), run `episodes_per_agent` batched trials across `threads`
  /// lanes and return the mean metric — bit-identical for every
  /// `threads` value (see run_batched_inference_campaign).
  double run_inference_campaign(const InferenceFaultScenario& scenario,
                                std::size_t episodes_per_agent,
                                std::uint64_t seed, std::size_t threads,
                                const InferenceCampaign& campaign) const;

  /// Agent network with a bounds check.
  Network& network(std::size_t agent);

  /// Extension point for the per-agent learner state carried in
  /// Snapshot::baselines; the defaults carry none.
  virtual Baselines learner_state() const { return {}; }
  virtual void set_learner_state(const Baselines& /*state*/) {}

  std::vector<std::unique_ptr<Network>> nets_;

 private:
  // Owns the training plane (server, fault plan, mitigation, episode
  // counter); its hooks capture `this`, hence the deleted moves above.
  std::unique_ptr<FederatedRoundEngine> engine_;
};

}  // namespace frlfi

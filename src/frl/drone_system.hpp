#pragma once

/// \file drone_system.hpp
/// The paper's DroneNav FRL system (§IV-B): n drones (paper: 4) flying
/// independent procedurally-generated worlds, each fine-tuning a shared
/// conv policy online with REINFORCE after an offline pretraining phase,
/// and periodically synchronizing through the smoothing-average server.
///
/// Engine wiring, consensus, the inference-fault campaign and state
/// persistence live in the shared FederatedSystem core; this class
/// supplies the REINFORCE episode, the offline pretraining and the
/// flight-distance metric.
///
/// Offline pretraining substitution (documented in DESIGN.md): PEDRA
/// pretrains with a long offline REINFORCE run on Unreal environments;
/// here the offline phase is imitation of a depth-greedy reference pilot
/// followed by a short REINFORCE polish. The resulting policy plays the
/// same role — a competent initial policy that online FRL fine-tunes —
/// at a laptop-compatible cost. Pretrained parameters are cached
/// per-seed within the process so campaign cells share the (deterministic)
/// offline phase, exactly as the paper shares one pretrained model.

#include <memory>

#include "dronesim/drone_env.hpp"
#include "frl/federated_system.hpp"
#include "rl/reinforce.hpp"

namespace frlfi {

/// End-to-end DroneNav FRL system.
class DroneFrlSystem : public FederatedSystem {
 public:
  /// System configuration. `fine_tune_episodes` at paper scale is 6000;
  /// benches scale it down and say so in EXPERIMENTS.md.
  struct Config {
    /// Number of drones; 1 selects the single-drone system of Fig. 5c.
    std::size_t n_drones = 4;
    /// Episodes between communication rounds.
    std::size_t comm_interval = 2;
    /// Fig. 6b: after this episode the interval multiplies by
    /// `comm_interval_boost` (paper boosts 2x/3x after episode 2000).
    std::size_t boost_after_episode = std::size_t(-1);
    std::size_t comm_interval_boost = 1;
    /// Smoothing-average schedule.
    double alpha0 = 0.5;
    double alpha_tau = 40.0;
    /// Channel BER (0 = clean links) and the bursty plane that replaces
    /// it when active; worker lanes for the per-drone local episodes (>= 1;
    /// 1 = serial, N = min(N, agents)) and for the server round (0 =
    /// legacy serial round, N >= 1 = fleet path). train() is bit-identical
    /// for every `threads` and every `server_threads` >= 1; see
    /// FederatedRoundEngine::Config.
    double channel_ber = 0.0;
    BurstyChannelConfig channel_bursty;
    std::size_t threads = 1;
    std::size_t server_threads = 0;
    /// REINFORCE hyperparameters for online fine-tuning.
    ReinforceTrainer::Options learner;
    /// Environment/task parameters.
    DroneNavEnv::Options env;
    /// Offline phase: DAgger imitation episodes and REINFORCE polish
    /// episodes (polish off by default; fine-tuning continues online).
    std::size_t imitation_episodes = 120;
    std::size_t pretrain_reinforce_episodes = 0;
    float imitation_lr = 5e-3f;

    Config();
  };

  /// Build the system (runs or reuses the cached offline pretraining).
  DroneFrlSystem(Config cfg, std::uint64_t seed);

  /// Average greedy safe flight distance [m] over all drones,
  /// `episodes_per_drone` each — the paper's DroneNav metric.
  double evaluate_flight_distance(std::size_t episodes_per_drone,
                                  std::uint64_t seed);

  /// Evaluate inference under a fault scenario on the consensus policy
  /// (FederatedSystem::run_inference_campaign; `threads` >= 1: 1 = serial,
  /// N = min(N, trials) lanes, bit-identical for every value);
  /// returns the average safe flight distance [m].
  double evaluate_inference_fault(const InferenceFaultScenario& scenario,
                                  std::size_t episodes_per_drone,
                                  std::uint64_t seed, std::size_t threads = 1);

  /// Direct access to a drone's network.
  Network& drone_network(std::size_t drone) { return network(drone); }

  /// Direct access to a drone's environment.
  DroneNavEnv& drone_env(std::size_t drone);

  /// The configuration in force.
  const Config& config() const { return cfg_; }

  /// The (deterministic) pretrained offline parameters for a seed/config;
  /// computed once per process and cached. Thread-safe: concurrent
  /// campaign cells asking for one key block on a single computation
  /// (std::call_once per cache slot) while distinct keys pretrain
  /// concurrently — which is what lets training-phase heatmap campaigns
  /// run pool-parallel over cells.
  static const std::vector<float>& pretrained_parameters(const Config& cfg,
                                                         std::uint64_t seed);

 private:
  /// Run the offline phase (imitation + REINFORCE polish) from scratch.
  static std::vector<float> pretrain(const Config& cfg, std::uint64_t seed);

  // The REINFORCE reward baselines ride in Snapshot::baselines.
  Baselines learner_state() const override {
    Baselines state;
    for (const auto& l : learners_) state.push_back(l->baseline_state());
    return state;
  }
  void set_learner_state(const Baselines& state) override {
    for (std::size_t i = 0; i < learners_.size(); ++i)
      learners_[i]->set_baseline_state(state[i]);
  }

  Config cfg_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<DroneNavEnv>> envs_;
  std::vector<std::unique_ptr<ReinforceTrainer>> learners_;
};

}  // namespace frlfi

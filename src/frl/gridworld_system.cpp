#include "frl/gridworld_system.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "frl/policies.hpp"

namespace frlfi {

GridWorldFrlSystem::GridWorldFrlSystem(Config cfg, std::uint64_t seed)
    : cfg_(cfg), eps_(cfg.eps_start, cfg.eps_end, cfg.eps_span) {
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  // All agents start from one shared initialization: parameter-space
  // averaging across independently-initialized networks is destructive
  // (weight-permutation symmetry), and federated training conventionally
  // broadcasts a common initial model.
  Rng init_rng = Rng(seed).split(0x1717);
  const Network shared_init = make_gridworld_policy(init_rng);
  for (std::size_t i = 0; i < cfg_.n_agents; ++i) {
    envs_.push_back(std::make_unique<GridWorldEnv>(suite[i % suite.size()],
                                                   cfg_.env));
    nets_.push_back(std::make_unique<Network>(shared_init.clone()));
    learners_.push_back(std::make_unique<QLearner>(*nets_.back(), cfg_.learner));
  }

  start_engine({.comm_interval = cfg_.comm_interval,
                .alpha0 = cfg_.alpha0,
                .alpha_tau = cfg_.alpha_tau,
                .channel_ber = cfg_.channel_ber,
                .bursty_channel = cfg_.channel_bursty,
                .threads = cfg_.threads,
                .server_threads = cfg_.server_threads},
               seed, /*stream_tag=*/0x7121A1,
               [this](std::size_t i, std::size_t episode, Rng& rng) {
                 return learners_[i]
                     ->run_episode(*envs_[i], rng, eps_.at(episode),
                                   /*learn=*/true)
                     .total_reward;
               });
}

double GridWorldFrlSystem::evaluate_agent(std::size_t agent,
                                          std::size_t attempts,
                                          std::uint64_t seed) {
  FRLFI_CHECK(agent < cfg_.n_agents);
  FRLFI_CHECK(attempts >= 1);
  Rng eval_rng = Rng(seed).split(0xE7A1 + agent);
  std::size_t successes = 0;
  for (std::size_t a = 0; a < attempts; ++a) {
    const EpisodeStats stats = greedy_episode(*nets_[agent], *envs_[agent],
                                              eval_rng, cfg_.learner.max_steps);
    successes += stats.success ? 1 : 0;
  }
  return static_cast<double>(successes) / static_cast<double>(attempts);
}

double GridWorldFrlSystem::evaluate_success_rate(std::size_t attempts_per_agent,
                                                 std::uint64_t seed) {
  double total = 0.0;
  for (std::size_t i = 0; i < cfg_.n_agents; ++i)
    total += evaluate_agent(i, attempts_per_agent, seed);
  return total / static_cast<double>(cfg_.n_agents);
}

std::size_t GridWorldFrlSystem::episodes_to_recover(
    double sr_threshold, std::size_t check_every,
    std::size_t attempts_per_agent, std::size_t max_extra_episodes,
    std::uint64_t eval_seed) {
  FRLFI_CHECK(check_every >= 1);
  std::size_t extra = 0;
  while (extra < max_extra_episodes) {
    const std::size_t chunk =
        std::min(check_every, max_extra_episodes - extra);
    train(chunk);
    extra += chunk;
    if (evaluate_success_rate(attempts_per_agent, eval_seed + extra) >=
        sr_threshold)
      return extra;
  }
  return max_extra_episodes;
}

double GridWorldFrlSystem::consensus_action_stddev() const {
  Network net = consensus_network();
  // Enumerate the full observation lattice (each of the 10 features takes
  // one of 3 codes — the paper's |S| = 3^4 space extended by diagonals and
  // goal-direction features) with a base-3 counter, and average the
  // per-state spread of the 4 action values.
  constexpr std::size_t kFeatures = GridWorldEnv::kObservationSize;
  constexpr std::array<float, 3> kCodes{-1.0f, 0.0f, 1.0f};
  RunningStats per_state_std;
  std::array<std::size_t, kFeatures> digits{};
  Tensor obs({kFeatures});
  bool done = false;
  while (!done) {
    for (std::size_t f = 0; f < kFeatures; ++f) obs[f] = kCodes[digits[f]];
    const Tensor q = net.forward(obs);
    std::vector<double> vals(q.data().begin(), q.data().end());
    per_state_std.add(population_stddev_of(vals));
    // Increment the base-3 counter.
    std::size_t f = 0;
    while (true) {
      if (f == kFeatures) {
        done = true;
        break;
      }
      if (++digits[f] < kCodes.size()) break;
      digits[f] = 0;
      ++f;
    }
  }
  return per_state_std.mean();
}

double GridWorldFrlSystem::evaluate_inference_fault(
    const InferenceFaultScenario& scenario, std::size_t attempts_per_agent,
    std::uint64_t seed, std::size_t threads) {
  // Fault salt, trial-stream salt, step cap, env factory, metric.
  return run_inference_campaign(
      scenario, attempts_per_agent, seed, threads,
      {0xFA52, 0xE7A1, cfg_.learner.max_steps,
       [this](std::size_t a) {
         return std::make_unique<GridWorldEnv>(envs_[a]->layout(), cfg_.env);
       },
       [](std::size_t, const Environment&, const EpisodeStats& stats) {
         return stats.success ? 1.0 : 0.0;
       }});
}

GridWorldEnv& GridWorldFrlSystem::agent_env(std::size_t agent) {
  FRLFI_CHECK(agent < envs_.size());
  return *envs_[agent];
}

}  // namespace frlfi

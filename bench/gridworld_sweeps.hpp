#pragma once

/// \file gridworld_sweeps.hpp
/// Reusable GridWorld campaign sweeps shared by the Fig. 3 / Fig. 7
/// benches: the (fault episode) x (BER) success-rate heatmaps of the
/// paper, with optional §V-A mitigation.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/table.hpp"
#include "fault/model.hpp"
#include "frl/gridworld_system.hpp"

namespace frlfi::bench {

/// Configuration of one GridWorld training-fault heatmap campaign.
struct GridSweepConfig {
  /// Fault location (AgentFault / ServerFault).
  FaultSite site = FaultSite::ServerFault;
  /// 1 => the single-agent (no server) system of Fig. 3c.
  std::size_t n_agents = 12;
  /// Total training episodes (the paper's panels span 1000).
  std::size_t episodes = 1000;
  /// Fault-injection episodes (columns). Empty => 0,100,...,900.
  std::vector<std::size_t> columns;
  /// BER rows in percent. Empty => 0.2..2.0 in 10 steps (paper rows).
  std::vector<double> bers_percent;
  /// Greedy evaluation attempts per agent per cell.
  std::size_t eval_attempts = 8;
  /// Repetitions per cell.
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  /// Worker lanes for the (BER x episode) cell grid — cells build and
  /// train independent systems, so the sweep is pool-parallel over them
  /// (run_cell_campaign, >= 1: 1 serial, N lanes; metrics are
  /// bit-identical for every value).
  std::size_t threads = 1;
  /// Worker lanes for the per-agent episodes inside each cell's train()
  /// (GridWorldFrlSystem::Config::threads — the federated round engine).
  /// Composes with `threads` and is likewise bit-identical for every
  /// value; avoid stacking lane counts above 1 at both levels on small
  /// machines (real extra threads, see campaign.hpp).
  std::size_t train_threads = 1;
  /// Enable server checkpointing + reward-drop detection (Fig. 7a);
  /// paper parameters p=25, k=50 (k scaled to the episode budget).
  bool mitigation = false;
};

/// Run the campaign and return the success-rate heatmap (percent).
Heatmap run_gridworld_training_sweep(const GridSweepConfig& cfg);

}  // namespace frlfi::bench

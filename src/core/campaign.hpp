#pragma once

/// \file campaign.hpp
/// Repeated-trial campaign runner: the outer loop of every fault-injection
/// experiment. Each trial receives an independent RNG stream derived from
/// the campaign seed and its trial index, so campaigns are reproducible and
/// trials are exchangeable — which also makes them embarrassingly parallel.
///
/// The parallel runner farms trials across a fixed thread pool and then
/// folds the per-trial metrics into RunningStats in trial order, so a
/// parallel campaign produces bit-identical results to a serial one for
/// the same (seed, trials) regardless of thread count or scheduling.

#include <cstdint>
#include <functional>

#include "core/rng.hpp"
#include "core/stats.hpp"

namespace frlfi {

/// Configuration for a repeated-trial campaign.
struct CampaignConfig {
  /// Base seed; trial t uses stream split(seed, t).
  std::uint64_t seed = 42;
  /// Number of trials actually run (already scaled by the caller).
  std::size_t trials = 1;
  /// Worker lanes for trial execution, >= 1 (0 throws frlfi::Error). 1
  /// (default) runs strictly serial on the calling thread; N runs on a
  /// pool of min(N, trials) lanes made for this call. With more than one
  /// lane `trial_fn` is invoked concurrently and must not mutate shared
  /// state. Nested use — trial_fn itself calling run_campaign — never
  /// deadlocks, but each nested multi-lane call spins its own short-lived
  /// pool: real extra threads, so avoid stacking lane counts above 1 at
  /// both levels (see parallel.hpp).
  std::size_t threads = 1;
};

/// Result summary of a campaign: streaming stats over the per-trial metric.
struct CampaignResult {
  RunningStats stats;
  /// 95% CI of the mean metric.
  ConfidenceInterval ci() const { return ci95(stats); }
};

/// Run `cfg.trials` independent trials of `trial_fn`, which maps a
/// per-trial RNG to a scalar metric (success rate, flight distance, ...).
/// Parallel runs (cfg.threads != 1) reproduce the serial stats
/// bit-for-bit; see the file comment.
CampaignResult run_campaign(const CampaignConfig& cfg,
                            const std::function<double(Rng&)>& trial_fn);

/// Parallel map over an indexed grid of independent cells — the outer
/// loop of the training-phase heatmap sweeps, where each cell builds and
/// trains whole FRL systems. `cell_fn(c)` must depend only on its index
/// (plus thread-safe shared state: the drone pretraining cache is), so
/// the returned cell-order metrics are bit-identical for every lane
/// count. `threads` follows the campaign rule (dispatch_lanes): 1 =
/// strictly serial on the calling thread, N = a pool of min(N, cells)
/// lanes, 0 = frlfi::Error.
std::vector<double> run_cell_campaign(
    std::size_t cells, std::size_t threads,
    const std::function<double(std::size_t)>& cell_fn);

}  // namespace frlfi

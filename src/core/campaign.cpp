#include "core/campaign.hpp"

#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace frlfi {

CampaignResult run_campaign(const CampaignConfig& cfg,
                            const std::function<double(Rng&)>& trial_fn) {
  FRLFI_CHECK(cfg.trials >= 1);
  FRLFI_CHECK(static_cast<bool>(trial_fn));
  CampaignResult result;
  const Rng base(cfg.seed);
  // Trial t's stream depends only on (seed, t) and the metrics are folded
  // in trial order below, so the reduction is deterministic — parallel
  // runs are bit-identical to serial ones. Serial-vs-pool choice (never
  // more lanes than trials) is dispatch_lanes's single shared rule.
  std::vector<double> metrics(cfg.trials);
  dispatch_lanes(cfg.threads, cfg.trials,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t t = begin; t < end; ++t) {
                     Rng trial_rng = base.split(t);
                     metrics[t] = trial_fn(trial_rng);
                   }
                 });
  for (double m : metrics) result.stats.add(m);
  return result;
}

std::vector<double> run_cell_campaign(
    std::size_t cells, std::size_t threads,
    const std::function<double(std::size_t)>& cell_fn) {
  FRLFI_CHECK(cells >= 1);
  FRLFI_CHECK(static_cast<bool>(cell_fn));
  std::vector<double> metrics(cells);
  dispatch_lanes(threads, cells, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) metrics[c] = cell_fn(c);
  });
  return metrics;
}

}  // namespace frlfi

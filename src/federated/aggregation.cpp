#include "federated/aggregation.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace frlfi {

AlphaSchedule::AlphaSchedule(std::size_t n_agents, double alpha0, double tau)
    : n_(n_agents), alpha0_(alpha0), tau_(tau) {
  FRLFI_CHECK_MSG(n_agents >= 2, "AlphaSchedule needs >= 2 agents");
  FRLFI_CHECK_MSG(alpha0 >= limit() && alpha0 < 1.0,
                  "alpha0 " << alpha0 << " outside [1/n, 1)");
  FRLFI_CHECK(tau > 0.0);
}

double AlphaSchedule::at(std::size_t round) const {
  const double l = limit();
  return l + (alpha0_ - l) * std::exp(-static_cast<double>(round) / tau_);
}

std::vector<float> mean_parameters(
    const std::vector<std::vector<float>>& uploads) {
  FRLFI_CHECK(!uploads.empty());
  const std::size_t dim = uploads[0].size();
  std::vector<float> mean(dim, 0.0f);
  for (const auto& u : uploads) {
    FRLFI_CHECK(u.size() == dim);
    for (std::size_t d = 0; d < dim; ++d) mean[d] += u[d];
  }
  const auto inv = static_cast<float>(1.0 / static_cast<double>(uploads.size()));
  for (auto& v : mean) v *= inv;
  return mean;
}

namespace {

// The per-coordinate gather/sort/trim/sum body, over coordinates
// [d0, d1): self-contained per coordinate, so any coordinate partition
// (serial, or one slice per pool lane) produces identical bits.
void trimmed_mean_span(const float* const* rows, std::size_t m,
                       std::size_t trim_k, float* scratch, float* out,
                       std::size_t d0, std::size_t d1) {
  // Non-finite values (NaN from a corrupted row breaks std::sort's strict
  // weak ordering) rank above every finite value, landing in the trimmed
  // upper tail.
  const auto less = [](float a, float b) {
    const bool fa = std::isfinite(a), fb = std::isfinite(b);
    if (fa != fb) return fa;
    if (!fa) return false;
    return a < b;
  };
  const auto inv =
      static_cast<float>(1.0 / static_cast<double>(m - 2 * trim_k));
  for (std::size_t d = d0; d < d1; ++d) {
    for (std::size_t j = 0; j < m; ++j) scratch[j] = rows[j][d];
    std::sort(scratch, scratch + m, less);
    float acc = 0.0f;
    for (std::size_t j = trim_k; j < m - trim_k; ++j) acc += scratch[j];
    out[d] = acc * inv;
  }
}

}  // namespace

void trimmed_mean_rows(const float* const* rows, std::size_t m,
                       std::size_t dim, std::size_t trim_k,
                       float* lane_scratch, std::size_t lanes, float* out,
                       ThreadPool* pool) {
  FRLFI_CHECK_MSG(m > 2 * trim_k,
                  "trimmed mean needs > 2k rows, got " << m << " for k "
                                                       << trim_k);
  const std::size_t fan =
      pool != nullptr ? std::min({lanes, pool->size(), dim}) : 1;
  if (fan <= 1) {
    trimmed_mean_span(rows, m, trim_k, lane_scratch, out, 0, dim);
    return;
  }
  // Lane-indexed fan so each lane owns a private m-float gather buffer.
  pool->parallel_for(fan, [&](std::size_t l0, std::size_t l1) {
    for (std::size_t lane = l0; lane < l1; ++lane) {
      std::size_t d0 = 0, d1 = 0;
      shard_range(dim, fan, lane, d0, d1);
      trimmed_mean_span(rows, m, trim_k, lane_scratch + lane * m, out, d0,
                        d1);
    }
  });
}

}  // namespace frlfi

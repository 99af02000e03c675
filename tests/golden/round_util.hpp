#pragma once

/// \file round_util.hpp
/// Adapters onto ParameterServer::communicate_round for the tests and
/// bench_kernels. The round's operands are participant-compacted; these
/// take a full n x dim matrix (row i = agent i), compact the sending
/// agents' rows in ascending order, run the round, and write the sender
/// rows back. Rows of non-sending agents are never touched.

#include <span>
#include <vector>

#include "federated/server.hpp"

namespace frlfi::testing {

inline RoundParticipationReport round_over_matrix(
    ParameterServer& srv, std::span<float> rows,
    std::span<const AgentRoundStatus> status,
    const ParameterServer::RobustRoundOptions& opts, Rng& rng,
    ThreadPool* pool = nullptr, bool run_post_hook = true) {
  const std::size_t dim = srv.parameter_dim();
  std::vector<std::size_t> agents;
  std::vector<float> senders;
  for (std::size_t i = 0; i < status.size(); ++i) {
    if (!sends_upload(status[i])) continue;
    agents.push_back(i);
    senders.insert(senders.end(), rows.begin() + static_cast<std::ptrdiff_t>(i * dim),
                   rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim));
  }
  const RoundParticipationReport rep = srv.communicate_round(
      senders, agents, status, opts, rng, pool, run_post_hook);
  for (std::size_t j = 0; j < agents.size(); ++j)
    std::copy(senders.begin() + static_cast<std::ptrdiff_t>(j * dim),
              senders.begin() + static_cast<std::ptrdiff_t>((j + 1) * dim),
              rows.begin() + static_cast<std::ptrdiff_t>(agents[j] * dim));
  return rep;
}

/// A synchronous round: every agent Present, default options.
inline RoundParticipationReport sync_round(ParameterServer& srv,
                                           std::span<float> rows, Rng& rng,
                                           ThreadPool* pool = nullptr) {
  const std::vector<AgentRoundStatus> status(srv.agent_count(),
                                             AgentRoundStatus::Present);
  return round_over_matrix(srv, rows, status,
                           ParameterServer::RobustRoundOptions{}, rng, pool);
}

/// Row-major packing of per-agent vectors.
inline std::vector<float> pack_rows(const std::vector<std::vector<float>>& vov) {
  std::vector<float> rows;
  for (const auto& v : vov) rows.insert(rows.end(), v.begin(), v.end());
  return rows;
}

/// The inverse of pack_rows for rows of width dim.
inline std::vector<std::vector<float>> unpack_rows(const std::vector<float>& rows,
                                                   std::size_t dim) {
  std::vector<std::vector<float>> vov;
  for (std::size_t off = 0; off < rows.size(); off += dim)
    vov.emplace_back(rows.begin() + static_cast<std::ptrdiff_t>(off),
                     rows.begin() + static_cast<std::ptrdiff_t>(off + dim));
  return vov;
}

}  // namespace frlfi::testing

#include "federated/server.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "tensor/gemm.hpp"

namespace frlfi {

ParameterServer::ParameterServer(std::size_t n_agents, std::size_t parameter_dim,
                                 AlphaSchedule schedule)
    : n_(n_agents), dim_(parameter_dim), schedule_(schedule) {
  FRLFI_CHECK_MSG(n_ >= 2, "ParameterServer needs >= 2 agents");
  FRLFI_CHECK(dim_ > 0);
  // The n x dim aggregate matrix is grown lazily by hook rounds only — a
  // fleet of 10^4 agents at partial participation pays for its
  // participants, not its roster.
  total_.resize(dim_);
}

RoundParticipationReport ParameterServer::communicate_round(
    std::span<float> sender_rows, std::span<const std::size_t> sender_agents,
    std::span<const AgentRoundStatus> status, const RobustRoundOptions& opts,
    Rng& rng, ThreadPool* pool, bool run_post_hook) {
  FRLFI_CHECK_MSG(status.size() == n_,
                  "got " << status.size() << " statuses for " << n_
                         << " agents");
  FRLFI_CHECK(opts.straggler_lag >= 1);
  FRLFI_CHECK(opts.stale_decay > 0.0 && opts.stale_decay <= 1.0);
  const std::size_t m_send = sender_agents.size();
  FRLFI_CHECK_MSG(sender_rows.size() == m_send * dim_,
                  "sender matrix holds " << sender_rows.size()
                                         << " floats for " << m_send << " x "
                                         << dim_);

  RoundParticipationReport rep;
  rep.round = round_;
  rep.status.assign(status.begin(), status.end());
  for (AgentRoundStatus s : status) {
    switch (s) {
      case AgentRoundStatus::Present: ++rep.present; break;
      case AgentRoundStatus::Dropped: ++rep.dropped; break;
      case AgentRoundStatus::Straggler: ++rep.stragglers; break;
      case AgentRoundStatus::Byzantine: ++rep.byzantine; break;
    }
  }

  // The compaction contract: row j is the upload of the j-th sending
  // agent in ascending agent order, nothing missing, nothing extra.
  {
    std::size_t j = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!sends_upload(status[i])) continue;
      FRLFI_CHECK_MSG(j < m_send && sender_agents[j] == i,
                      "sender compaction mismatch at agent " << i);
      ++j;
    }
    FRLFI_CHECK_MSG(j == m_send,
                    "sender compaction holds " << m_send << " rows for " << j
                                               << " senders");
  }

  // Uplink: senders in agent order — one sequence number each (per
  // attempt on the serial stream). With the protocol armed, on-time
  // uploads retry; one that exhausts its retry/deadline budget degrades
  // into the participation plane right here — its clean payload (what
  // the eventual late retransmission delivers) enters the staleness
  // buffer with the straggler fold weight, or is dropped past
  // max_staleness.
  const bool reliable = reliable_upload_armed(opts.upload);
  // Sender row j enters the staleness buffer, due straggler_lag rounds
  // from now at weight stale_decay^lag.
  const auto park = [&](std::size_t j) {
    PendingUpload p;
    p.agent = sender_agents[j];
    p.deliver_round = round_ + opts.straggler_lag;
    p.weight = static_cast<float>(
        std::pow(opts.stale_decay, static_cast<double>(opts.straggler_lag)));
    p.data.assign(
        sender_rows.begin() + static_cast<std::ptrdiff_t>(j * dim_),
        sender_rows.begin() + static_cast<std::ptrdiff_t>((j + 1) * dim_));
    pending_.push_back(std::move(p));
  };
  upload_failed_.assign(n_, 0);
  row_ptrs_.resize(m_send);
  for (std::size_t j = 0; j < m_send; ++j)
    row_ptrs_[j] = sender_rows.data() + j * dim_;
  if (reliable) {
    reliable_mask_.assign(m_send, 0);
    for (std::size_t j = 0; j < m_send; ++j)
      reliable_mask_[j] =
          status[sender_agents[j]] != AgentRoundStatus::Straggler ? 1 : 0;
    outcomes_.assign(m_send, CommChannel::UploadOutcome{});
    channel_.transmit_uploads(row_ptrs_.data(), m_send, dim_, rng, pool,
                              &opts.upload, reliable_mask_.data(),
                              outcomes_.data());
    // Outcome bookkeeping folds in agent order, independent of the fan.
    for (std::size_t j = 0; j < m_send; ++j) {
      if (!reliable_mask_[j]) continue;
      const CommChannel::UploadOutcome& out = outcomes_[j];
      rep.upload_attempts += out.attempts;
      rep.backoff_seconds += out.backoff;
      if (out.delivered) continue;
      upload_failed_[sender_agents[j]] = 1;
      ++rep.uploads_failed;
      if (opts.upload.exhausted_to_stale &&
          opts.straggler_lag <= opts.max_staleness) {
        park(j);
        ++rep.failed_stale;
      } else {
        ++rep.failed_dropped;
      }
    }
    rep.upload_failed.assign(upload_failed_.begin(), upload_failed_.end());
  } else {
    channel_.transmit_uploads(row_ptrs_.data(), m_send, dim_, rng, pool);
  }

  // Stragglers: the post-channel payload enters the staleness buffer, to
  // be folded `straggler_lag` rounds from now with weight
  // stale_decay^lag — or discarded outright past max_staleness.
  // (Exhausted uploads were parked first, then stragglers — the buffer
  // order is the stale rows' summation order.)
  for (std::size_t j = 0; j < m_send; ++j) {
    if (status[sender_agents[j]] != AgentRoundStatus::Straggler) continue;
    if (opts.straggler_lag > opts.max_staleness)
      ++rep.stale_discarded;
    else
      park(j);
  }

  // Contributor set: on-time uploads in agent order, then due stale rows
  // in buffer order (deterministic — insertion is (round, agent) sorted).
  // A stale row counts as a peer even for its own agent: it is a past
  // self, not this round's upload.
  cand_rows_.clear();
  cand_weights_.clear();
  cand_agents_.clear();
  ontime_.assign(n_, 0);
  constexpr std::size_t kStaleRow = static_cast<std::size_t>(-1);
  for (std::size_t j = 0; j < m_send; ++j) {
    const std::size_t i = sender_agents[j];
    if (status[i] != AgentRoundStatus::Present &&
        status[i] != AgentRoundStatus::Byzantine)
      continue;
    if (upload_failed_[i]) continue;  // checksum never passed: no upload
    cand_rows_.push_back(sender_rows.data() + j * dim_);
    cand_weights_.push_back(1.0f);
    cand_agents_.push_back(i);
    ontime_[i] = 1;
  }
  for (const PendingUpload& p : pending_) {
    if (p.deliver_round > round_) continue;
    cand_rows_.push_back(p.data.data());
    cand_weights_.push_back(p.weight);
    cand_agents_.push_back(kStaleRow);
    ++rep.stale_folded;
  }

  // L2-norm screen: exclude rows whose norm is off the (lower-)median
  // contributor norm by more than l2_factor in either direction, plus any
  // non-finite row. The median row itself always survives, so the screen
  // can never empty a finite candidate set. The per-row norms fan across
  // the pool (each norm is self-contained); the median sort and the
  // filter stay serial.
  if (opts.screening.l2_norm && !cand_rows_.empty()) {
    const std::size_t m = cand_rows_.size();
    norms_.resize(m);
    parallel_for(pool, m, [&](std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; ++j) {
        double s = 0.0;
        const float* row = cand_rows_[j];
        for (std::size_t d = 0; d < dim_; ++d)
          s += static_cast<double>(row[d]) * static_cast<double>(row[d]);
        norms_[j] = std::sqrt(s);
      }
    });
    norms_sorted_ = norms_;
    std::sort(norms_sorted_.begin(), norms_sorted_.end(),
              [](double a, double b) {
                const bool fa = std::isfinite(a), fb = std::isfinite(b);
                if (fa != fb) return fa;
                if (!fa) return false;
                return a < b;
              });
    const double median = norms_sorted_[(m - 1) / 2];
    const double f = opts.screening.l2_factor;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const bool excluded =
          !std::isfinite(norms_[j]) ||
          (std::isfinite(median) && median > 0.0 &&
           (norms_[j] > f * median || norms_[j] * f < median));
      if (excluded) {
        ++rep.screened_out;
        // Clear the on-time flag so the agent's receiver combine no
        // longer self-excludes a row that is not in the total.
        if (cand_agents_[j] != kStaleRow) ontime_[cand_agents_[j]] = 0;
        continue;
      }
      cand_rows_[kept] = cand_rows_[j];
      cand_weights_[kept] = cand_weights_[j];
      cand_agents_[kept] = cand_agents_[j];
      ++kept;
    }
    cand_rows_.resize(kept);
    cand_weights_.resize(kept);
    cand_agents_.resize(kept);
  }

  rep.contributors = cand_rows_.size();
  rep.aggregated = rep.contributors > 0;
  const double alpha = schedule_.at(round_);
  const auto alpha_f = static_cast<float>(alpha);

  double weight_sum = 0.0;
  for (float w : cand_weights_) weight_sum += static_cast<double>(w);
  // Column-partitioned weighted contributor sum: every coordinate sees
  // the serial candidate-order chain at any lane count (weights are
  // exactly 1.0f for on-time rows, so the all-contributing chain is the
  // synchronous smoothing sum).
  parallel_for(pool, dim_, [&](std::size_t d0, std::size_t d1) {
    std::fill(total_.begin() + static_cast<std::ptrdiff_t>(d0),
              total_.begin() + static_cast<std::ptrdiff_t>(d1), 0.0f);
    for (std::size_t j = 0; j < cand_rows_.size(); ++j)
      axpy(cand_weights_[j], cand_rows_[j] + d0, total_.data() + d0, d1 - d0);
  });

  const bool trim = opts.screening.trimmed_mean &&
                    cand_rows_.size() > 2 * opts.screening.trim_k;
  if (trim) {
    trim_out_.resize(dim_);
    const std::size_t lanes = pool != nullptr ? pool->size() : 1;
    trim_scratch_.resize(lanes * cand_rows_.size());
    trimmed_mean_rows(cand_rows_.data(), cand_rows_.size(), dim_,
                      opts.screening.trim_k, trim_scratch_.data(), lanes,
                      trim_out_.data(), pool);
  }

  // Receivers (a subset of senders), in agent order.
  recv_idx_.clear();
  for (std::size_t j = 0; j < m_send; ++j) {
    const std::size_t i = sender_agents[j];
    if (receives_downlink(status[i]) && !upload_failed_[i])
      recv_idx_.push_back(j);
  }

  // Aggregate storage: the combine for a row reads only that row's own
  // elements and the precomputed totals, element-wise — so outside hook
  // rounds it runs IN PLACE over the caller's compact sender rows and the
  // round retains no aggregate matrix at all. Only when the hook must
  // observe the full matrix does the zero-filled n x dim layout
  // materialize (rare, fault-bearing rounds; grown lazily).
  if (run_post_hook) agg_.assign(n_ * dim_, 0.0f);
  const auto agg_row = [&](std::size_t j) {
    return run_post_hook ? agg_.data() + sender_agents[j] * dim_
                         : sender_rows.data() + j * dim_;
  };

  // Row-partitioned per-receiver combine. `dst` may alias `self` (the
  // in-place case); each element depends only on its own index, so the
  // element-wise loops are alias-safe.
  parallel_for(pool, recv_idx_.size(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t j = recv_idx_[r];
      const std::size_t i = sender_agents[j];
      const float* self = sender_rows.data() + j * dim_;
      float* dst = agg_row(j);
      if (trim) {
        // Robust peer estimate: the self term keeps its alpha weight, the
        // peer mass goes to the coordinate-wise trimmed mean (self
        // included — rank statistics have no self-exclusion).
        const auto om = static_cast<float>(1.0 - alpha);
        const float* FRLFI_RESTRICT tm = trim_out_.data();
#pragma omp simd
        for (std::size_t d = 0; d < dim_; ++d)
          dst[d] = alpha_f * self[d] + om * tm[d];
      } else {
        // Partial-participation smoothing average: peers are the weighted
        // contributors minus the receiver's own on-time row. With every
        // agent contributing at weight 1 this is byte-for-byte the
        // synchronous combine (1.0f * self is exact; the peer count
        // double is exact for any agent count).
        const float wi = ontime_[i] ? 1.0f : 0.0f;
        const double peers = weight_sum - static_cast<double>(wi);
        if (peers > 0.0) {
          const auto beta = static_cast<float>((1.0 - alpha) / peers);
          const float* FRLFI_RESTRICT tot = total_.data();
#pragma omp simd
          for (std::size_t d = 0; d < dim_; ++d)
            dst[d] = alpha_f * self[d] + beta * (tot[d] - wi * self[d]);
        } else if (dst != self) {
          // No peer mass at all: the receiver keeps its own upload.
          std::copy(self, self + dim_, dst);
        }
      }
    }
  });

  // Consensus over the receiving rows only, column-partitioned (serial
  // receiver-order chain per coordinate). It stays at its last value on a
  // round with no receivers.
  if (!recv_idx_.empty()) {
    consensus_.resize(dim_);
    const auto inv =
        static_cast<float>(1.0 / static_cast<double>(recv_idx_.size()));
    parallel_for(pool, dim_, [&](std::size_t d0, std::size_t d1) {
      std::fill(consensus_.begin() + static_cast<std::ptrdiff_t>(d0),
                consensus_.begin() + static_cast<std::ptrdiff_t>(d1), 0.0f);
      for (std::size_t r = 0; r < recv_idx_.size(); ++r)
        axpy(1.0f, agg_row(recv_idx_[r]) + d0, consensus_.data() + d0,
             d1 - d0);
      float* FRLFI_RESTRICT c = consensus_.data();
#pragma omp simd
      for (std::size_t d = d0; d < d1; ++d) c[d] *= inv;
    });
  }

  if (run_post_hook && rows_hook_) rows_hook_(round_, agg_, dim_);

  // Downlink to the receivers, in agent order. A failed uploader's link
  // is the thing that failed: it gets no downlink this round either (the
  // Dropped semantics it degraded into). In the in-place case the
  // delivered payloads already sit in the caller's sender rows; after a
  // hook round they copy back from the full aggregate matrix.
  if (!recv_idx_.empty()) {
    row_ptrs_.resize(recv_idx_.size());
    for (std::size_t r = 0; r < recv_idx_.size(); ++r)
      row_ptrs_[r] = agg_row(recv_idx_[r]);
    channel_.transmit_uploads(row_ptrs_.data(), recv_idx_.size(), dim_, rng,
                              pool);
    if (run_post_hook) {
      parallel_for(pool, recv_idx_.size(),
                        [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t j = recv_idx_[r];
          const float* src = agg_row(j);
          std::copy(src, src + dim_,
                    sender_rows.begin() +
                        static_cast<std::ptrdiff_t>(j * dim_));
        }
      });
    }
  }

  // Folded stale rows leave the buffer (their storage outlived the
  // aggregation above).
  std::erase_if(pending_, [this](const PendingUpload& p) {
    return p.deliver_round <= round_;
  });

  ++round_;
  return rep;
}

std::size_t ParameterServer::round_buffer_bytes() const {
  return (agg_.capacity() + total_.capacity() + trim_out_.capacity() +
          trim_scratch_.capacity() + consensus_.capacity()) *
         sizeof(float);
}

void ParameterServer::set_pending_uploads(std::vector<PendingUpload> pending) {
  for (const PendingUpload& p : pending) {
    FRLFI_CHECK_MSG(p.agent < n_, "pending upload agent " << p.agent);
    FRLFI_CHECK_MSG(p.data.size() == dim_,
                    "pending upload dim " << p.data.size());
  }
  pending_ = std::move(pending);
}

void ParameterServer::set_post_aggregate_rows_hook(
    std::function<void(std::size_t, std::span<float>, std::size_t)> hook) {
  rows_hook_ = std::move(hook);
}

}  // namespace frlfi

#pragma once

/// \file server.hpp
/// The designated-agent parameter server of the FRL system: collects
/// per-agent uploads over a CommChannel, runs the smoothing average, and
/// broadcasts the per-agent results back. A post-aggregation rows hook
/// lets the round engine corrupt the aggregated state (the paper's
/// "server faults").
///
/// There is one round, communicate_round, over participant-compacted
/// sender rows. A synchronous round is the all-Present case with the
/// identity index map; degraded rounds (dropouts, stragglers, Byzantine
/// senders, screening, the retry protocol) are the general case. A null
/// ThreadPool runs every step inline on the legacy serial channel stream;
/// a pool fans the channel and the aggregation kernels across its lanes
/// with bit-identical results at every lane count (see channel.hpp for
/// the one difference between the two: the i.i.d. noise realization).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "federated/aggregation.hpp"
#include "federated/channel.hpp"
#include "federated/participation.hpp"

namespace frlfi {

/// Smoothing-average parameter server over n agents.
class ParameterServer {
 public:
  /// \param n_agents       number of federated agents (>= 2).
  /// \param parameter_dim  flat parameter vector length.
  /// \param schedule       alpha_k consensus schedule.
  ParameterServer(std::size_t n_agents, std::size_t parameter_dim,
                  AlphaSchedule schedule);

  /// Number of agents.
  std::size_t agent_count() const { return n_; }

  /// Flat parameter length.
  std::size_t parameter_dim() const { return dim_; }

  /// Communication rounds completed.
  std::size_t round() const { return round_; }

  /// Reset the round counter (used when restoring a training snapshot so
  /// the alpha_k schedule resumes from the right point).
  void set_round(std::size_t round) { round_ = round; }

  /// The uplink/downlink channel (shared by all agents; cost counters
  /// accumulate across the whole swarm).
  CommChannel& channel() { return channel_; }
  const CommChannel& channel() const { return channel_; }

  /// Server-side knobs of one degraded round (engine-derived from the
  /// ParticipationPlan; the server never sees schedule probabilities,
  /// only resolved statuses).
  struct RobustRoundOptions {
    /// Rounds a straggler upload spends in flight (>= 1).
    std::size_t straggler_lag = 1;
    /// Stale fold weight is stale_decay^lag, stale_decay in (0, 1].
    double stale_decay = 0.5;
    /// Straggler uploads later than this are discarded, bounding the
    /// staleness buffer.
    std::size_t max_staleness = 4;
    ScreeningConfig screening;
    /// Checksum/retry/backoff protocol applied to on-time uploads
    /// (Present/Byzantine rows; stragglers are already late and keep the
    /// single plain transmit). Disabled or zero-retry configurations
    /// leave the round byte-for-byte on the plain plan path.
    UploadProtocolConfig upload;
  };

  /// A straggler upload in flight: the post-channel payload of `agent`'s
  /// round-r upload, folded into round `deliver_round`'s aggregate with
  /// `weight` = stale_decay^lag. Part of the server's training state —
  /// the engine captures/restores it across snapshots.
  struct PendingUpload {
    std::size_t agent = 0;
    std::size_t deliver_round = 0;
    float weight = 1.0f;
    std::vector<float> data;
  };

  /// One communication round. `sender_rows` is a row-major
  /// n_senders x dim matrix holding, in ascending agent order, the upload
  /// of every agent whose status sends (Present / Straggler / Byzantine;
  /// `sender_agents[j]` is row j's agent index). A synchronous round
  /// passes all-Present statuses and the identity map.
  ///
  /// Steps: senders transmit uplink (on-time senders under the retry
  /// protocol when opts.upload is armed; stragglers keep the single
  /// plain transmit); straggler payloads and exhausted uploads detour
  /// through the staleness buffer; the smoothing average runs over the
  /// weighted contributor set (on-time survivors + due stale rows) with
  /// optional Byzantine screening; consensus is the mean of the
  /// receivers' aggregates; receivers get the downlink. An upload that
  /// exhausts its retry budget is excluded from the aggregate and the
  /// downlink, and its clean payload degrades into the staleness buffer
  /// (or is dropped). With every weight 1 the combine is byte-for-byte
  /// the synchronous smoothing average of aggregation.hpp.
  ///
  /// On return, row j holds agent sender_agents[j]'s downlink payload
  /// when that agent receives, its clean payload after a failed reliable
  /// upload, and its post-channel upload otherwise (callers must scatter
  /// only receiving, non-failed rows).
  ///
  /// `pool` null keeps the legacy serial round: the channel stream
  /// advances `rng`, every retry attempt claims a new sequence number,
  /// and the aggregation loops run inline. A pool fans the channel on
  /// derived streams (rng is never advanced) and the aggregation kernels
  /// across its lanes; results are bit-identical at every pool size.
  /// Burst-plane bits of rounds without retries match between the two.
  ///
  /// `run_post_hook` gates the rows hook. When false the combine runs IN
  /// PLACE over the caller's sender rows and the round retains no
  /// aggregate matrix at all — the caller asserts the installed hook
  /// would not observe or mutate anything this round (the round engine
  /// passes its server-fault-pending flag). When true the zero-filled
  /// n x dim aggregate matrix (receiver rows populated) is built and the
  /// hook runs on it before the downlink.
  RoundParticipationReport communicate_round(
      std::span<float> sender_rows, std::span<const std::size_t> sender_agents,
      std::span<const AgentRoundStatus> status, const RobustRoundOptions& opts,
      Rng& rng, ThreadPool* pool, bool run_post_hook);

  /// Bytes currently retained by the round-scratch buffers (aggregate
  /// matrices, row sums, trim/candidate scratch). The fleet acceptance
  /// gate: at partial participation with compact rounds this scales with
  /// participants, not fleet size.
  std::size_t round_buffer_bytes() const;

  /// Staleness-buffer state (straggler uploads still in flight), exposed
  /// for snapshot capture; set_pending_uploads restores it.
  const std::vector<PendingUpload>& pending_uploads() const {
    return pending_;
  }
  void set_pending_uploads(std::vector<PendingUpload> pending);

  /// Post-aggregation hook, invoked (on rounds run with run_post_hook)
  /// with the mutable row-major n x dim aggregate matrix and the round
  /// index — what the round engine's in-place server-fault injection
  /// attaches to.
  void set_post_aggregate_rows_hook(
      std::function<void(std::size_t round, std::span<float> rows,
                         std::size_t dim)>
          hook);

  /// Mean of the last aggregated parameters (the consensus policy); empty
  /// before the first round.
  const std::vector<float>& consensus() const { return consensus_; }

 private:
  std::size_t n_;
  std::size_t dim_;
  AlphaSchedule schedule_;
  CommChannel channel_;
  std::size_t round_ = 0;
  std::vector<float> consensus_;
  std::function<void(std::size_t, std::span<float>, std::size_t)> rows_hook_;
  // Round scratch, lazily grown and pooled across rounds: the n x dim
  // aggregate matrix (materialized only by hook rounds — other rounds
  // combine in place over the caller's sender rows) and the smoothing
  // row-sum (dim).
  std::vector<float> agg_;
  std::vector<float> total_;
  // Straggler uploads in flight plus the contributor bookkeeping (row
  // pointers / weights / agents, per-agent on-time and failed-upload
  // flags, trimmed-mean buffers).
  std::vector<PendingUpload> pending_;
  std::vector<const float*> cand_rows_;
  std::vector<float> cand_weights_;
  std::vector<std::size_t> cand_agents_;
  std::vector<std::uint8_t> ontime_;
  std::vector<std::uint8_t> upload_failed_;
  std::vector<float> trim_out_;
  std::vector<float> trim_scratch_;
  // Channel call tables (row pointers, reliable mask, outcomes), the
  // receiver row list, and the screening norm buffers.
  std::vector<float*> row_ptrs_;
  std::vector<std::uint8_t> reliable_mask_;
  std::vector<CommChannel::UploadOutcome> outcomes_;
  std::vector<std::size_t> recv_idx_;
  std::vector<double> norms_;
  std::vector<double> norms_sorted_;
};

}  // namespace frlfi

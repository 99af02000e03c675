#pragma once

/// \file golden.hpp
/// Frozen scalar references for the federated round, built as the
/// test-only library frlfi_golden (linked by the tests and bench_kernels,
/// never by libfrlfi). Each is a deliberately naive, vector-of-vectors
/// implementation of what the library's row kernels compute; the
/// bit-identity tests and bench gates compare the library against these
/// (round_util.hpp adapts full matrices onto the library's round).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/rng.hpp"
#include "federated/channel.hpp"

namespace frlfi::golden {

/// The scalar channel: one payload per call, quantize to int8, flip every
/// bit of every word i.i.d. at the BER on the caller's advancing stream
/// (8 draws per element, in element order), dequantize the touched words.
/// Clean channels still round-trip the codec losslessly. Counters follow
/// CommChannel's accounting (one message and one sequence number per call;
/// dim + 4 wire bytes for non-empty payloads).
class ScalarChannel {
 public:
  explicit ScalarChannel(double bit_error_rate = 0.0);

  /// Arm a *degenerate* bursty config (equal-state BERs, no erasure or
  /// reordering), which is the i.i.d. channel at ber_good. Non-degenerate
  /// configs have no scalar reference and are rejected.
  void set_bursty(const BurstyChannelConfig& cfg);

  std::vector<float> transmit(const std::vector<float>& payload, Rng& rng);

  std::size_t messages_sent() const { return messages_; }
  std::size_t bytes_sent() const { return bytes_; }
  std::size_t bits_corrupted() const { return corrupted_; }
  std::uint64_t transmit_seq() const { return seq_; }

 private:
  double ber_;
  std::size_t messages_ = 0;
  std::size_t bytes_ = 0;
  std::size_t corrupted_ = 0;
  std::uint64_t seq_ = 0;
};

/// One smoothing-average round (§III-A) over per-agent vectors:
/// theta_i^+ = alpha * theta_i + beta * (sum_j theta_j - theta_i) with
/// beta = (1 - alpha) / (n - 1). n >= 2, alpha in (0, 1), equal lengths.
std::vector<std::vector<float>> smoothing_average(
    const std::vector<std::vector<float>>& uploads, double alpha);

/// The frozen synchronous server round: transmit every upload, smooth,
/// record the consensus (mean of the aggregates) in `consensus_out` when
/// non-null, run `hook` over the aggregates, transmit every aggregate
/// back. Returns the per-agent downlinks.
std::vector<std::vector<float>> frozen_scalar_round(
    const std::vector<std::vector<float>>& uploads, ScalarChannel& channel,
    double alpha, Rng& rng, std::vector<float>* consensus_out,
    const std::function<void(std::vector<std::vector<float>>&)>& hook =
        nullptr);

}  // namespace frlfi::golden

#pragma once

/// \file golden.hpp
/// Frozen scalar references for the federated round, the weight-fault
/// plane and the serial greedy evaluators, built as the test-only library
/// frlfi_golden (linked by the
/// tests and the kernel benches, never by libfrlfi). Each is a
/// deliberately naive implementation of what a library kernel computes;
/// the bit-identity tests and bench gates compare the library against
/// these (round_util.hpp adapts full matrices onto the library's round).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "federated/channel.hpp"
#include "fault/model.hpp"
#include "fault/overlay.hpp"
#include "frl/evaluation.hpp"
#include "numeric/fixed_point.hpp"

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

// ------------------------------------------------------ weight faults ----

/// Single-bit transient flips: one Bernoulli draw per bit in flat bit
/// order; a hit flips the bit unless `direction` forbids it for the bit's
/// current value. Returns bits flipped. The reference corrupt_bits_burst
/// reproduces at burst length 1.
std::size_t flip_bits_ber(std::span<std::uint8_t> bytes, double ber, Rng& rng,
                          FlipDirection direction = FlipDirection::Any);

/// Single-bit stuck-at: one Bernoulli draw per bit; a hit forces the bit
/// to `value`. Returns bits whose value changed.
std::size_t stick_bits_ber(std::span<std::uint8_t> bytes, double ber,
                           bool value, Rng& rng);

/// The in-place int8 injector as it was before every injector became a
/// DeployedWeights strike: calibrate, widen by `headroom`, quantize,
/// corrupt the words (single-bit specs through flip_bits_ber /
/// stick_bits_ber above, bursts through the library's corrupt_bits_burst),
/// dequantize every word back into `weights`.
InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom = 1.0f);

/// The in-place fixed-point injector: encode every weight, corrupt the
/// codewords (single-bit specs with per-bit FixedPointCodec::flip_bit
/// calls, word-major and bit-ascending; bursts through the library's
/// corrupt_fixed_words_burst), decode every word back into `weights`.
InjectionReport inject_fixed_point_reference(std::vector<float>& weights,
                                             const FixedPointFormat& format,
                                             const FaultSpec& spec, Rng& rng);

/// The in-place static inference fault: flatten, corrupt through the
/// scenario's representation with the two injectors above, write back,
/// then let the scenario's detector (if any) zero the out-of-range weights
/// of the network with RangeAnomalyDetector::scan_and_suppress(Network&).
InjectionReport apply_static_inference_fault(
    Network& policy, const InferenceFaultScenario& scenario, Rng& rng);

// ------------------------------------------------ serial evaluators ----

/// One greedy episode on the int8-native plane: every action read executes
/// the deployed int8 words through `qview` (Network::forward_quant). The
/// lockstep runner's quant lanes reproduce it bit-for-bit at every fleet
/// size and thread count.
EpisodeStats greedy_episode_quant(Network& policy, Environment& env, Rng& rng,
                                  std::size_t max_steps,
                                  const QuantWeightView& qview);

/// One greedy episode with a Trans-1 fault: at one uniformly chosen step
/// the weights are corrupted (golden::apply_static_inference_fault above,
/// detector screen included) for that single action read, then restored
/// by a WeightRestoreGuard; InferenceMode::Int8 scenarios run the whole
/// episode on the deployed int8 image with the strike as a word overlay.
/// The serial mutate-and-restore loop greedy_episodes_trans1_batched
/// reproduces through per-lane weight views.
EpisodeStats greedy_episode_trans1(Network& policy, Environment& env, Rng& rng,
                                   std::size_t max_steps,
                                   const InferenceFaultScenario& scenario);

}  // namespace frlfi::golden

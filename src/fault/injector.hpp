#pragma once

/// \file injector.hpp
/// Bit-flip injection primitives. All weight-domain injection happens in a
/// deployed representation: int8 (the paper's 8-bit quantized policies) or
/// a Q(s,i,f) fixed-point word (the §IV-B.3 data-type study). Floats are
/// quantized, bits are corrupted in the integer domain, and the result is
/// dequantized back into the float weights the network executes with —
/// "fault models as native tensor operations" (§III-D). Each word format
/// has exactly one bit kernel below, and every weight injector is a
/// DeployedWeights strike (overlay.hpp); the in-place forms here write the
/// strike's base()+overlay back.

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/model.hpp"
#include "fault/overlay.hpp"  // InjectionReport + the non-mutating plane
#include "nn/network.hpp"
#include "numeric/fixed_point.hpp"

namespace frlfi {

/// The byte-word bit kernel: correlated multi-bit upsets over a byte
/// buffer, of which the classic independent single-bit model is the
/// length-1 case. One Bernoulli *event* draw per bit in flat bit order;
/// an event at bit i corrupts the run of spec.burst.length bits starting
/// there — stride 1 for BurstAxis::Row, stride `word_bits` for
/// BurstAxis::Column (same bit position of consecutive words), truncated
/// at the buffer end. Each corrupted bit applies the spec's temporal model
/// to the live buffer: a transient flip (unless spec.direction forbids it
/// for the bit's current value) or a forced 0/1 for stuck-at. The temporal
/// scope (one read vs. until overwritten) is the caller's business. Throws
/// frlfi::Error on a BER outside [0, 1] (NaN included), burst length 0 or
/// word_bits 0. Returns the number of bits changed.
std::size_t corrupt_bits_burst(std::span<std::uint8_t> bytes,
                               const FaultSpec& spec, Rng& rng,
                               std::size_t word_bits = 8);

/// The fixed-point-word bit kernel: corrupt_bits_burst over live
/// Q(s,i,f) codewords of `word_bits` bits each (1..32), events drawn
/// word-major / bit-ascending. Same validation (plus word_bits outside
/// [1, 32]); returns bits changed.
std::size_t corrupt_fixed_words_burst(std::span<std::uint32_t> words,
                                      int word_bits, const FaultSpec& spec,
                                      Rng& rng);

/// Corrupt a float buffer through its int8-quantized representation
/// according to the spec's model/BER/direction/burst: a
/// DeployedWeights::int8_image strike whose base()+overlay is written back
/// into `weights` (every weight passes through the deployed
/// representation, touched or not). The span form is the core — it lets
/// the federated round engine inject server faults directly into rows of
/// the round matrix without materializing per-agent vectors.
///
/// `headroom` scales the quantization range beyond max|w| (default 1 =
/// tight calibration). Online-fine-tuned deployments use a fixed scale
/// with headroom so growing weights stay representable; flips into the
/// high bits of such words produce values up to headroom * max|w| — the
/// out-of-range outliers the §V-B range detector exists to catch.
InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom = 1.0f);
InjectionReport inject_int8(std::vector<float>& weights, const FaultSpec& spec,
                            Rng& rng, float headroom = 1.0f);

/// Corrupt a float buffer through a fixed-point representation (data-type
/// resilience study): a DeployedWeights::fixed_point_image strike written
/// back into `weights`.
InjectionReport inject_fixed_point(std::vector<float>& weights,
                                   const FixedPointFormat& format,
                                   const FaultSpec& spec, Rng& rng);

/// Corrupt every parameter tensor of a network in the int8 domain: one
/// int8 DeployedWeights strike over the flat parameters, written back into
/// the network (training faults persist).
InjectionReport inject_network_weights(Network& net, const FaultSpec& spec,
                                       Rng& rng);

/// Layer-scoped deployment image for the per-layer vulnerability ablation
/// (§IV-C): the network's clean flat parameters with layer `layer_index`'s
/// span replaced by its per-tensor int8 quantize→dequantize images (one
/// DeployedWeights::int8_image per parameter tensor, in layer parameter
/// order). Immutable after construction; inject() is const and strikes the
/// tensor images in order on one stream, producing a WeightOverlay
/// confined to the layer's flat span — so one trained snapshot can replay
/// many per-layer fault plans read-only through view() instead of being
/// cloned per trial (bench_ablation_layers).
class LayerDeployedWeights {
 public:
  LayerDeployedWeights(Network& net, std::size_t layer_index);

  /// The effective clean parameters: original floats everywhere except
  /// the target layer, which reads its deployed (dequantized) image.
  const std::vector<float>& base() const { return base_; }

  /// Flat index range [begin, end) of the target layer's parameters.
  std::size_t layer_begin() const { return layer_begin_; }
  std::size_t layer_end() const { return layer_end_; }

  /// A WeightView of base() with `overlay` on top (overlay may be null).
  WeightView view(const WeightOverlay* overlay) const {
    return WeightView{base_.data(), base_.size(), overlay};
  }

  /// One fault through the layer's deployed words, recorded into `out`
  /// (cleared first) in flat parameter indices.
  InjectionReport inject(const FaultSpec& spec, Rng& rng,
                         WeightOverlay& out) const;

 private:
  std::vector<float> base_;
  std::vector<std::size_t> offsets_;      // flat index of each tensor
  std::vector<DeployedWeights> tensors_;  // per-tensor int8 images
  std::size_t layer_begin_ = 0;
  std::size_t layer_end_ = 0;
};

/// Corrupt only the parameters of layer `layer_index` (per-layer
/// vulnerability ablation): a LayerDeployedWeights strike materialized
/// back into the network.
InjectionReport inject_layer_weights(Network& net, std::size_t layer_index,
                                     const FaultSpec& spec, Rng& rng);

/// RAII guard that snapshots a network's parameters and restores them on
/// destruction — the mechanism behind Trans-1 (single-read) faults.
class WeightRestoreGuard {
 public:
  /// Snapshot now; restore at scope exit.
  explicit WeightRestoreGuard(Network& net);
  ~WeightRestoreGuard();
  WeightRestoreGuard(const WeightRestoreGuard&) = delete;
  WeightRestoreGuard& operator=(const WeightRestoreGuard&) = delete;

 private:
  Network* net_;
  std::vector<float> saved_;
};

}  // namespace frlfi

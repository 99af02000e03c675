#pragma once

/// \file overlay.hpp
/// The non-mutating fault-overlay plane.
///
/// Writing a fault into a network's float weights would force every
/// parallel evaluation lane that wants its *own* corruption to hold its own
/// copy of the whole policy. The overlay plane splits one injection into
/// the two parts that actually differ between lanes:
///
///  * DeployedWeights — the quantize→dequantize round-trip of the *clean*
///    parameters. Deterministic (no RNG), so it is computed once per
///    policy and shared read-only by every lane.
///  * WeightOverlay — the sparse set of parameters whose deployed words a
///    particular fault actually flipped (flat parameter index → corrupted
///    float). Per lane and tiny; the effective weights are
///        effective(i) = overlay(i) if present else base(i),
///    which is exactly what the in-place injectors of injector.hpp write.
///
/// A WeightView bundles base + overlay for the forward plane: Network and
/// the parameterized layers accept an optional view and read effective
/// weights through it without mutating anything — which is what lets one
/// batched forward serve N lanes with N different corrupted weight sets
/// (see Network::forward_batch) and lets parallel campaigns share a single
/// read-only policy.
///
/// This header is deliberately free of nn/ includes so the layer stack can
/// depend on it without a cycle.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/model.hpp"
#include "numeric/fixed_point.hpp"

namespace frlfi {

/// Statistics of one injection.
struct InjectionReport {
  /// Bits actually flipped (or forced, for stuck-at).
  std::size_t bits_flipped = 0;
  /// Total bits in the target buffer.
  std::size_t bits_total = 0;
};

/// Sparse corruption record: ascending flat parameter indices and the
/// corrupted float value at each. Entries are only the parameters whose
/// deployed word a fault changed — untouched parameters read the shared
/// deployed base instead.
struct WeightOverlay {
  std::vector<std::size_t> indices;
  std::vector<float> values;

  std::size_t size() const { return indices.size(); }
  bool empty() const { return indices.empty(); }

  void clear() {
    indices.clear();
    values.clear();
  }

  /// Append an entry; indices must arrive in strictly ascending order
  /// (the injectors and the detector merge both walk the flat space
  /// front to back).
  void add(std::size_t index, float value);

  /// Write every entry into `weights` (weights[index] = value) — how an
  /// in-place injector materializes a strike over the deployed base.
  void apply_to(std::span<float> weights) const;
};

/// Read-only effective-parameter view: a full flat base vector plus an
/// optional sparse overlay. Copyable by value (two pointers and a size);
/// the referenced base and overlay must outlive the view.
struct WeightView {
  /// Flat parameter vector (layer order), length `params`.
  const float* base = nullptr;
  std::size_t params = 0;
  /// Sparse corrections on top of base; null for a clean lane.
  const WeightOverlay* overlay = nullptr;

  /// Effective value at flat index i.
  float at(std::size_t i) const;

  /// Contiguous effective values for the span [offset, offset+count) —
  /// how a layer reads its parameters. When the overlay has no entry in
  /// the span this is a zero-copy pointer into base; otherwise the span
  /// is copied into `scratch` and patched there.
  const float* span(std::size_t offset, std::size_t count,
                    std::vector<float>& scratch) const;

  /// Resolved pointers for the ubiquitous two-parameter layer layout:
  /// weights at `offset` (weight_count values) with the bias immediately
  /// after (bias_count values). The single home of that offset
  /// arithmetic, shared by every parameterized layer's view overrides.
  struct WeightBias {
    const float* weight;
    const float* bias;
  };
  WeightBias weight_bias(std::size_t offset, std::size_t weight_count,
                         std::size_t bias_count,
                         std::vector<float>& weight_scratch,
                         std::vector<float>& bias_scratch) const;
};

/// Sparse word-level corruption record for the int8-native inference
/// plane: ascending flat parameter indices and the corrupted *deployed
/// word* at each. The quantized twin of WeightOverlay — same index space,
/// but the value is the int8 word itself, so applying a fault never
/// requires dequantizing into float at all.
struct QuantOverlay {
  std::vector<std::size_t> indices;
  std::vector<std::int8_t> words;

  std::size_t size() const { return indices.size(); }
  bool empty() const { return indices.empty(); }

  void clear() {
    indices.clear();
    words.clear();
  }

  /// Append an entry; indices must arrive in strictly ascending order
  /// (same contract as WeightOverlay::add).
  void add(std::size_t index, std::int8_t word);

  /// Write every entry into `words` (words[index] = word) — the
  /// materialization the word-level equivalence tests flip against.
  void apply_to(std::vector<std::int8_t>& words_out) const;
};

/// Read-only effective-*word* view for the quantized forward plane: the
/// clean deployed int8 words plus an optional sparse word overlay, with
/// the image's dequantization scale riding along (the layers' quant
/// kernels need it to fold the int32 accumulator back to float).
/// Copyable by value; the referenced words and overlay must outlive it.
struct QuantWeightView {
  /// Clean deployed words (flat layer order), length `params`.
  const std::int8_t* base = nullptr;
  std::size_t params = 0;
  /// Dequantization step of the image (DeployedWeights::int8_scale).
  float scale = 1.0f;
  /// Sparse word corrections on top of base; null for a clean lane.
  const QuantOverlay* overlay = nullptr;

  /// Effective word at flat index i.
  std::int8_t at(std::size_t i) const;

  /// Contiguous effective words for [offset, offset+count): zero-copy
  /// into base when the overlay misses the span, else patched into
  /// `scratch` — the int8 mirror of WeightView::span.
  const std::int8_t* span(std::size_t offset, std::size_t count,
                          std::vector<std::int8_t>& scratch) const;
};

/// The deployed-domain image of one clean parameter vector: the integer
/// words the fault model acts on and the dequantized base every lane
/// shares. The only weight injector: the in-place injectors of
/// injector.hpp write a strike's base()+overlay back. Immutable after
/// construction; inject() is const and thread-safe, so concurrent lanes
/// can strike the same image at once.
class DeployedWeights {
 public:
  /// Int8 deployment: calibrate on `weights`, widen the scale by
  /// `headroom`, quantize.
  static DeployedWeights int8_image(std::span<const float> weights,
                                    float headroom = 1.0f);

  /// Fixed-point deployment: encode every weight in `format`.
  static DeployedWeights fixed_point_image(std::span<const float> weights,
                                           const FixedPointFormat& format);

  /// The dequantized clean parameters — what every untouched weight reads
  /// as once the policy is deployed (quantization noise included).
  const std::vector<float>& base() const { return base_; }

  /// Parameter count.
  std::size_t size() const { return base_.size(); }

  /// A WeightView of the base with `overlay` on top (overlay may be null).
  WeightView view(const WeightOverlay* overlay) const {
    return WeightView{base_.data(), base_.size(), overlay};
  }

  /// True for images built by int8_image — the only representation the
  /// int8-native view below exists for.
  bool is_int8() const { return repr_ == Repr::Int8; }

  /// The raw clean int8 words (int8 images only).
  const std::vector<std::int8_t>& int8_words() const;

  /// The image's dequantization step (int8 images only):
  /// base()[i] == float(int8_words()[i]) * int8_scale().
  float int8_scale() const;

  /// A QuantWeightView of the raw words with `overlay` on top (overlay may
  /// be null) — the int8-native twin of view(). Int8 images only.
  QuantWeightView quant_view(const QuantOverlay* overlay) const;

  /// Run one fault through the deployed words, recording the corrupted
  /// parameters into `out` (cleared first): copy the clean words, corrupt
  /// the copy with the format's bit kernel (corrupt_bits_burst /
  /// corrupt_fixed_words_burst), record the words that changed. base()+out
  /// is bit-identical to the frozen in-place injectors of tests/golden —
  /// the property tests/test_fault_overlay.cpp locks. Throws frlfi::Error
  /// on a BER outside [0, 1] (NaN included) or burst length 0.
  InjectionReport inject(const FaultSpec& spec, Rng& rng,
                         WeightOverlay& out) const;

  /// Word-level twin of inject() for int8 images: the identical strike
  /// (same RNG consumption, same flip sites), recorded as corrupted
  /// *words* instead of dequantized floats. Dequantizing every entry of
  /// `out` with int8_scale() reproduces inject()'s WeightOverlay exactly —
  /// the lock tests/test_quant_forward.cpp pins.
  InjectionReport inject_quant(const FaultSpec& spec, Rng& rng,
                               QuantOverlay& out) const;

 private:
  DeployedWeights() = default;

  enum class Repr { Int8, Fixed };
  Repr repr_ = Repr::Int8;
  float int8_scale_ = 1.0f;                  // Int8: dequantization step
  FixedPointFormat format_;                  // Fixed: word format
  std::vector<std::int8_t> int8_words_;      // Int8: clean quantized words
  std::vector<std::uint32_t> fixed_words_;   // Fixed: clean encoded words
  std::vector<float> base_;
};

}  // namespace frlfi

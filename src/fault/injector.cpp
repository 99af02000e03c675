#include "fault/injector.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "numeric/bitutil.hpp"

namespace frlfi {

namespace {

/// The input rule every weight injector shares (it runs inside both bit
/// kernels, so no injection path can skip it).
void check_spec(const FaultSpec& spec) {
  FRLFI_CHECK_MSG(spec.ber >= 0.0 && spec.ber <= 1.0, "BER " << spec.ber);
  FRLFI_CHECK_MSG(spec.burst.length >= 1,
                  "burst length " << spec.burst.length);
}

/// The event walk both kernels share: one Bernoulli draw per bit in flat
/// order; an event at bit g hands the burst's bits to `corrupt`, which
/// returns whether the bit changed.
template <class Corrupt>
std::size_t burst_events(std::size_t nbits, std::size_t word_bits,
                         const FaultSpec& spec, Rng& rng, Corrupt&& corrupt) {
  if (spec.ber == 0.0) return 0;
  const std::size_t stride =
      spec.burst.axis == BurstAxis::Row ? std::size_t{1} : word_bits;
  std::size_t changed = 0;
  for (std::size_t g = 0; g < nbits; ++g) {
    if (!rng.bernoulli(spec.ber)) continue;
    for (std::size_t k = 0; k < spec.burst.length; ++k) {
      const std::size_t j = g + k * stride;
      if (j >= nbits) break;
      changed += corrupt(j);
    }
  }
  return changed;
}

/// The spec's temporal model applied to one bit whose value is `current`:
/// true when the bit must change.
bool changes(const FaultSpec& spec, bool current) {
  switch (spec.model) {
    case FaultModel::TransientSingleStep:
    case FaultModel::TransientPersistent:
      if (spec.direction == FlipDirection::ZeroToOne) return !current;
      if (spec.direction == FlipDirection::OneToZero) return current;
      return true;
    case FaultModel::StuckAt0:
      return current;
    case FaultModel::StuckAt1:
      return !current;
  }
  return false;
}

/// Deploy → strike → write base()+overlay back: the in-place form of every
/// weight injector.
template <class Deployed>
InjectionReport strike_in_place(const Deployed& deployed,
                                const FaultSpec& spec, Rng& rng,
                                std::span<float> weights) {
  WeightOverlay overlay;
  const InjectionReport report = deployed.inject(spec, rng, overlay);
  std::copy(deployed.base().begin(), deployed.base().end(), weights.begin());
  overlay.apply_to(weights);
  return report;
}

}  // namespace

std::size_t corrupt_bits_burst(std::span<std::uint8_t> bytes,
                               const FaultSpec& spec, Rng& rng,
                               std::size_t word_bits) {
  check_spec(spec);
  FRLFI_CHECK_MSG(word_bits >= 1, "word_bits " << word_bits);
  return burst_events(bit_count(bytes), word_bits, spec, rng,
                      [&](std::size_t i) -> std::size_t {
                        if (!changes(spec, get_bit(bytes, i))) return 0;
                        flip_bit(bytes, i);
                        return 1;
                      });
}

std::size_t corrupt_fixed_words_burst(std::span<std::uint32_t> words,
                                      int word_bits, const FaultSpec& spec,
                                      Rng& rng) {
  check_spec(spec);
  FRLFI_CHECK_MSG(word_bits >= 1 && word_bits <= 32,
                  "word_bits " << word_bits);
  const auto wb = static_cast<std::size_t>(word_bits);
  // Word-major, bit-ascending global order: bit g lives at bit (g % wb)
  // of word (g / wb).
  return burst_events(words.size() * wb, wb, spec, rng,
                      [&](std::size_t g) -> std::size_t {
                        std::uint32_t& raw = words[g / wb];
                        const std::uint32_t bit = 1u << (g % wb);
                        if (!changes(spec, (raw & bit) != 0)) return 0;
                        raw ^= bit;
                        return 1;
                      });
}

InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  return strike_in_place(DeployedWeights::int8_image(weights, headroom), spec,
                         rng, weights);
}

InjectionReport inject_int8(std::vector<float>& weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  return inject_int8(std::span<float>(weights), spec, rng, headroom);
}

InjectionReport inject_fixed_point(std::vector<float>& weights,
                                   const FixedPointFormat& format,
                                   const FaultSpec& spec, Rng& rng) {
  return strike_in_place(DeployedWeights::fixed_point_image(weights, format),
                         spec, rng, weights);
}

InjectionReport inject_network_weights(Network& net, const FaultSpec& spec,
                                       Rng& rng) {
  std::vector<float> flat = net.flat_parameters();
  const InjectionReport report =
      strike_in_place(DeployedWeights::int8_image(flat), spec, rng, flat);
  net.set_flat_parameters(flat);
  return report;
}

LayerDeployedWeights::LayerDeployedWeights(Network& net,
                                           std::size_t layer_index)
    : base_(net.flat_parameters()) {
  layer_begin_ = net.layer_offset(layer_index);
  std::size_t offset = layer_begin_;
  for (Parameter* p : net.layer(layer_index).parameters()) {
    DeployedWeights img = DeployedWeights::int8_image(p->value.data());
    std::copy(img.base().begin(), img.base().end(),
              base_.begin() + static_cast<std::ptrdiff_t>(offset));
    offsets_.push_back(offset);
    offset += img.size();
    tensors_.push_back(std::move(img));
  }
  layer_end_ = offset;
}

InjectionReport LayerDeployedWeights::inject(const FaultSpec& spec, Rng& rng,
                                             WeightOverlay& out) const {
  out.clear();
  InjectionReport report;
  WeightOverlay tensor_overlay;
  for (std::size_t t = 0; t < tensors_.size(); ++t) {
    const InjectionReport r = tensors_[t].inject(spec, rng, tensor_overlay);
    report.bits_flipped += r.bits_flipped;
    report.bits_total += r.bits_total;
    for (std::size_t e = 0; e < tensor_overlay.size(); ++e)
      out.add(offsets_[t] + tensor_overlay.indices[e],
              tensor_overlay.values[e]);
  }
  return report;
}

InjectionReport inject_layer_weights(Network& net, std::size_t layer_index,
                                     const FaultSpec& spec, Rng& rng) {
  const LayerDeployedWeights deployed(net, layer_index);
  std::vector<float> flat(deployed.base().size());
  const InjectionReport report = strike_in_place(deployed, spec, rng, flat);
  net.set_flat_parameters(flat);
  return report;
}

WeightRestoreGuard::WeightRestoreGuard(Network& net)
    : net_(&net), saved_(net.flat_parameters()) {}

WeightRestoreGuard::~WeightRestoreGuard() { net_->set_flat_parameters(saved_); }

}  // namespace frlfi

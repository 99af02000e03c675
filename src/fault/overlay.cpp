#include "fault/overlay.hpp"

#include <algorithm>
#include <span>
#include <type_traits>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "numeric/quantize.hpp"

namespace frlfi {

namespace {

/// The one injection step behind every weight injector: copy the clean
/// words, corrupt the copy with the word format's bit kernel, then hand
/// each changed word to `record(index, word)` in ascending index order.
template <class Word, class Record>
InjectionReport strike_words(const std::vector<Word>& clean, int word_bits,
                             const FaultSpec& spec, Rng& rng,
                             Record&& record) {
  InjectionReport report;
  report.bits_total = clean.size() * static_cast<std::size_t>(word_bits);
  std::vector<Word> words = clean;
  if constexpr (std::is_same_v<Word, std::int8_t>) {
    report.bits_flipped = corrupt_bits_burst(
        std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(words.data()),
                                words.size()),
        spec, rng);
  } else {
    report.bits_flipped =
        corrupt_fixed_words_burst(words, word_bits, spec, rng);
  }
  for (std::size_t i = 0; i < words.size(); ++i)
    if (words[i] != clean[i]) record(i, words[i]);
  return report;
}

}  // namespace

void WeightOverlay::add(std::size_t index, float value) {
  FRLFI_CHECK_MSG(indices.empty() || index > indices.back(),
                  "overlay index " << index << " after " << indices.back());
  indices.push_back(index);
  values.push_back(value);
}

void WeightOverlay::apply_to(std::span<float> weights) const {
  for (std::size_t e = 0; e < indices.size(); ++e) {
    FRLFI_CHECK_MSG(indices[e] < weights.size(),
                    "overlay index " << indices[e] << " in " << weights.size());
    weights[indices[e]] = values[e];
  }
}

void QuantOverlay::add(std::size_t index, std::int8_t word) {
  FRLFI_CHECK_MSG(indices.empty() || index > indices.back(),
                  "quant overlay index " << index << " after " << indices.back());
  indices.push_back(index);
  words.push_back(word);
}

void QuantOverlay::apply_to(std::vector<std::int8_t>& words_out) const {
  for (std::size_t e = 0; e < indices.size(); ++e) {
    FRLFI_CHECK_MSG(indices[e] < words_out.size(),
                    "quant overlay index " << indices[e] << " in "
                                           << words_out.size());
    words_out[indices[e]] = words[e];
  }
}

std::int8_t QuantWeightView::at(std::size_t i) const {
  FRLFI_CHECK_MSG(i < params, "quant view index " << i << " in " << params);
  if (overlay != nullptr) {
    const auto it =
        std::lower_bound(overlay->indices.begin(), overlay->indices.end(), i);
    if (it != overlay->indices.end() && *it == i)
      return overlay->words[static_cast<std::size_t>(
          it - overlay->indices.begin())];
  }
  return base[i];
}

const std::int8_t* QuantWeightView::span(
    std::size_t offset, std::size_t count,
    std::vector<std::int8_t>& scratch) const {
  FRLFI_CHECK_MSG(offset + count <= params,
                  "quant view span [" << offset << ", " << offset + count
                                      << ") in " << params);
  if (overlay == nullptr || overlay->empty()) return base + offset;
  const auto lo = std::lower_bound(overlay->indices.begin(),
                                   overlay->indices.end(), offset);
  if (lo == overlay->indices.end() || *lo >= offset + count)
    return base + offset;
  scratch.assign(base + offset, base + offset + count);
  for (auto it = lo; it != overlay->indices.end() && *it < offset + count; ++it)
    scratch[*it - offset] =
        overlay->words[static_cast<std::size_t>(it - overlay->indices.begin())];
  return scratch.data();
}

float WeightView::at(std::size_t i) const {
  FRLFI_CHECK_MSG(i < params, "view index " << i << " in " << params);
  if (overlay != nullptr) {
    const auto it =
        std::lower_bound(overlay->indices.begin(), overlay->indices.end(), i);
    if (it != overlay->indices.end() && *it == i)
      return overlay->values[static_cast<std::size_t>(
          it - overlay->indices.begin())];
  }
  return base[i];
}

const float* WeightView::span(std::size_t offset, std::size_t count,
                              std::vector<float>& scratch) const {
  FRLFI_CHECK_MSG(offset + count <= params,
                  "view span [" << offset << ", " << offset + count << ") in "
                                << params);
  if (overlay == nullptr || overlay->empty()) return base + offset;
  const auto lo = std::lower_bound(overlay->indices.begin(),
                                   overlay->indices.end(), offset);
  if (lo == overlay->indices.end() || *lo >= offset + count)
    return base + offset;
  scratch.assign(base + offset, base + offset + count);
  for (auto it = lo; it != overlay->indices.end() && *it < offset + count; ++it)
    scratch[*it - offset] =
        overlay->values[static_cast<std::size_t>(it - overlay->indices.begin())];
  return scratch.data();
}

WeightView::WeightBias WeightView::weight_bias(
    std::size_t offset, std::size_t weight_count, std::size_t bias_count,
    std::vector<float>& weight_scratch, std::vector<float>& bias_scratch) const {
  return {span(offset, weight_count, weight_scratch),
          span(offset + weight_count, bias_count, bias_scratch)};
}

DeployedWeights DeployedWeights::int8_image(std::span<const float> weights,
                                            float headroom) {
  FRLFI_CHECK_MSG(headroom >= 1.0f, "headroom " << headroom);
  DeployedWeights d;
  d.repr_ = Repr::Int8;
  if (weights.empty()) return d;
  // Calibrate on the clean weights, widen by headroom, quantize once.
  d.int8_scale_ = Int8Quantizer::calibrate(weights).scale() * headroom;
  const Int8Quantizer q(d.int8_scale_);
  d.int8_words_.reserve(weights.size());
  d.base_.reserve(weights.size());
  for (const float w : weights) {
    const std::int8_t word = q.quantize(w);
    d.int8_words_.push_back(word);
    d.base_.push_back(q.dequantize(word));
  }
  return d;
}

DeployedWeights DeployedWeights::fixed_point_image(
    std::span<const float> weights, const FixedPointFormat& format) {
  DeployedWeights d;
  d.repr_ = Repr::Fixed;
  d.format_ = format;
  if (weights.empty()) return d;
  const FixedPointCodec codec(format);
  d.fixed_words_.reserve(weights.size());
  d.base_.reserve(weights.size());
  for (const float w : weights) {
    const std::uint32_t raw = codec.encode(w);
    d.fixed_words_.push_back(raw);
    d.base_.push_back(static_cast<float>(codec.decode(raw)));
  }
  return d;
}

const std::vector<std::int8_t>& DeployedWeights::int8_words() const {
  FRLFI_CHECK_MSG(repr_ == Repr::Int8, "int8_words on a fixed-point image");
  return int8_words_;
}

float DeployedWeights::int8_scale() const {
  FRLFI_CHECK_MSG(repr_ == Repr::Int8, "int8_scale on a fixed-point image");
  return int8_scale_;
}

QuantWeightView DeployedWeights::quant_view(const QuantOverlay* overlay) const {
  FRLFI_CHECK_MSG(repr_ == Repr::Int8, "quant_view on a fixed-point image");
  return QuantWeightView{int8_words_.data(), int8_words_.size(), int8_scale_,
                         overlay};
}

InjectionReport DeployedWeights::inject_quant(const FaultSpec& spec, Rng& rng,
                                              QuantOverlay& out) const {
  FRLFI_CHECK_MSG(repr_ == Repr::Int8, "inject_quant on a fixed-point image");
  out.clear();
  return strike_words(int8_words_, 8, spec, rng,
                      [&](std::size_t i, std::int8_t w) { out.add(i, w); });
}

InjectionReport DeployedWeights::inject(const FaultSpec& spec, Rng& rng,
                                        WeightOverlay& out) const {
  out.clear();
  if (repr_ == Repr::Int8) {
    const Int8Quantizer q(int8_scale_);
    return strike_words(int8_words_, 8, spec, rng,
                        [&](std::size_t i, std::int8_t w) {
                          out.add(i, q.dequantize(w));
                        });
  }
  const FixedPointCodec codec(format_);
  return strike_words(fixed_words_, format_.word_bits(), spec, rng,
                      [&](std::size_t i, std::uint32_t w) {
                        out.add(i, static_cast<float>(codec.decode(w)));
                      });
}

}  // namespace frlfi

#include "mitigation/range_detector.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace frlfi {
namespace {

/// Widen a bound away from zero by `margin` (a 10% margin on a negative
/// minimum must move it more negative).
float widen(float bound, double margin, bool is_low) {
  const auto m = static_cast<float>(margin);
  if (is_low) return bound <= 0.0f ? bound * (1.0f + m) : bound * (1.0f - m);
  return bound >= 0.0f ? bound * (1.0f + m) : bound * (1.0f - m);
}

}  // namespace

RangeAnomalyDetector::RangeAnomalyDetector(Network& healthy_network,
                                           Options opts)
    : margin_(opts.margin) {
  FRLFI_CHECK(opts.margin >= 0.0);
  for (Parameter* p : healthy_network.parameters()) {
    const auto& w = p->value.data();
    FRLFI_CHECK(!w.empty());
    const auto [mn, mx] = std::minmax_element(w.begin(), w.end());
    ranges_.push_back({widen(*mn, opts.margin, true),
                       widen(*mx, opts.margin, false)});
    sizes_.push_back(w.size());
  }
  FRLFI_CHECK_MSG(!ranges_.empty(), "network has no parameters to calibrate");
}

template <typename Fn>
std::size_t RangeAnomalyDetector::for_each_out_of_range(Network& net,
                                                        Fn&& fn) const {
  auto params = net.parameters();
  FRLFI_CHECK_MSG(params.size() == ranges_.size(),
                  "topology mismatch: " << params.size() << " tensors vs "
                                        << ranges_.size() << " calibrated");
  std::size_t hits = 0;
  for (std::size_t t = 0; t < params.size(); ++t) {
    const Range r = ranges_[t];
    for (float& w : params[t]->value.data()) {
      if (w < r.lo || w > r.hi) {
        ++hits;
        fn(w);
      }
    }
  }
  return hits;
}

std::size_t RangeAnomalyDetector::scan_and_suppress(Network& net) const {
  return for_each_out_of_range(net, [](float& w) { w = 0.0f; });
}

std::size_t RangeAnomalyDetector::scan(Network& net) const {
  return for_each_out_of_range(net, [](float&) {});
}

namespace {

/// Effective float value of overlay entry e (int8 words dequantize with
/// the image scale) and the entry's recorded payload.
float effective(const WeightOverlay& o, std::size_t e, float) {
  return o.values[e];
}
float effective(const QuantOverlay& o, std::size_t e, float scale) {
  return static_cast<float>(o.words[e]) * scale;
}
float payload(const WeightOverlay& o, std::size_t e) { return o.values[e]; }
std::int8_t payload(const QuantOverlay& o, std::size_t e) { return o.words[e]; }

}  // namespace

template <class Overlay>
std::size_t RangeAnomalyDetector::screen_overlay(
    std::span<const float> base, float scale, Overlay& overlay,
    const std::vector<std::size_t>* base_hits) const {
  std::vector<std::size_t> local_hits;
  if (base_hits == nullptr) {
    local_hits = base_out_of_range(base);
    base_hits = &local_hits;
  } else {
    check_flat_size(base.size());
  }
  // Base indices outside the overlay can only be hits where the base list
  // says so; only overlay entries need a range check. Merge the two
  // ascending sequences, suppressions recorded as a zero payload (word 0
  // dequantizes to exactly 0.0f). NaNs compare false on both sides, so
  // they stay — as scan_and_suppress(net) keeps them.
  const std::vector<std::size_t>& hits_in = *base_hits;
  std::size_t tensor = 0, tensor_end = sizes_.empty() ? 0 : sizes_[0];
  const auto range_for = [&](std::size_t i) {
    while (i >= tensor_end) {
      FRLFI_CHECK_MSG(tensor + 1 < sizes_.size(),
                      "overlay index " << i << " past the calibrated scalars");
      tensor_end += sizes_[++tensor];
    }
    return ranges_[tensor];
  };
  Overlay merged;
  std::size_t hits = 0, e = 0, h = 0;
  while (e < overlay.size() || h < hits_in.size()) {
    const bool take_overlay =
        e < overlay.size() &&
        (h >= hits_in.size() || overlay.indices[e] <= hits_in[h]);
    if (!take_overlay) {
      merged.add(hits_in[h++], {});
      ++hits;
      continue;
    }
    const std::size_t i = overlay.indices[e];
    if (h < hits_in.size() && hits_in[h] == i) ++h;  // superseded
    const float v = effective(overlay, e, scale);
    const Range r = range_for(i);
    if (v < r.lo || v > r.hi) {
      merged.add(i, {});
      ++hits;
    } else {
      merged.add(i, payload(overlay, e));
    }
    ++e;
  }
  overlay = std::move(merged);
  return hits;
}

std::size_t RangeAnomalyDetector::scan_and_suppress(
    std::span<const float> base, WeightOverlay& overlay,
    const std::vector<std::size_t>* base_hits) const {
  return screen_overlay(base, 1.0f, overlay, base_hits);
}

std::size_t RangeAnomalyDetector::scan_and_suppress(
    std::span<const float> base, float scale, QuantOverlay& overlay,
    const std::vector<std::size_t>* base_hits) const {
  return screen_overlay(base, scale, overlay, base_hits);
}

void RangeAnomalyDetector::check_flat_size(std::size_t n) const {
  std::size_t total = 0;
  for (const std::size_t s : sizes_) total += s;
  FRLFI_CHECK_MSG(n == total,
                  "flat size " << n << " vs " << total << " calibrated scalars");
}

std::vector<std::size_t> RangeAnomalyDetector::base_out_of_range(
    std::span<const float> base) const {
  check_flat_size(base.size());
  std::vector<std::size_t> hits;
  std::size_t i = 0;
  for (std::size_t t = 0; t < sizes_.size(); ++t) {
    const Range r = ranges_[t];
    for (const std::size_t end = i + sizes_[t]; i < end; ++i)
      if (base[i] < r.lo || base[i] > r.hi) hits.push_back(i);
  }
  return hits;
}

std::pair<float, float> RangeAnomalyDetector::bounds(std::size_t t) const {
  FRLFI_CHECK(t < ranges_.size());
  return {ranges_[t].lo, ranges_[t].hi};
}

void RangeAnomalyDetector::calibrate_activations(
    Network& healthy_network, const std::vector<Tensor>& sample_inputs) {
  FRLFI_CHECK_MSG(!sample_inputs.empty(),
                  "activation calibration needs sample observations");
  std::vector<Range> raw(healthy_network.layer_count(),
                         {3.4e38f, -3.4e38f});
  healthy_network.set_activation_hook([&raw](std::size_t i, Tensor& act) {
    for (const float v : act.data()) {
      raw[i].lo = std::min(raw[i].lo, v);
      raw[i].hi = std::max(raw[i].hi, v);
    }
  });
  for (const Tensor& obs : sample_inputs) healthy_network.forward(obs);
  healthy_network.set_activation_hook(nullptr);
  act_ranges_.clear();
  for (const Range& r : raw)
    act_ranges_.push_back(
        {widen(r.lo, margin_, true), widen(r.hi, margin_, false)});
}

std::pair<float, float> RangeAnomalyDetector::activation_bounds(
    std::size_t layer) const {
  FRLFI_CHECK(layer < act_ranges_.size());
  return {act_ranges_[layer].lo, act_ranges_[layer].hi};
}

std::size_t RangeAnomalyDetector::suppress_activations(std::size_t layer,
                                                       Tensor& act) const {
  FRLFI_CHECK_MSG(layer < act_ranges_.size(),
                  "layer " << layer << " not activation-calibrated");
  const Range r = act_ranges_[layer];
  std::size_t hits = 0;
  for (float& v : act.data()) {
    if (v < r.lo || v > r.hi) {
      v = 0.0f;
      ++hits;
    }
  }
  return hits;
}

std::size_t RangeAnomalyDetector::scan_activations(std::size_t layer,
                                                   const Tensor& act) const {
  FRLFI_CHECK_MSG(layer < act_ranges_.size(),
                  "layer " << layer << " not activation-calibrated");
  const Range r = act_ranges_[layer];
  std::size_t hits = 0;
  for (const float v : act.data())
    if (v < r.lo || v > r.hi) ++hits;
  return hits;
}

}  // namespace frlfi

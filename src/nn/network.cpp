#include "nn/network.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "core/error.hpp"
#include "fault/overlay.hpp"

namespace frlfi {
namespace {

template <typename View>
void check_view(const View& view, std::size_t params) {
  FRLFI_CHECK_MSG(view.params == params, "view holds " << view.params
                                             << " params, network " << params);
}

}  // namespace

Network& Network::add(std::unique_ptr<Layer> layer) {
  FRLFI_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  layer_offsets_.push_back(param_total_);
  for (Parameter* p : layers_.back()->parameters())
    param_total_ += p->value.size();
  param_cache_valid_ = false;
  return *this;
}

Layer& Network::layer(std::size_t i) {
  FRLFI_CHECK_MSG(i < layers_.size(), "layer index " << i);
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  FRLFI_CHECK_MSG(i < layers_.size(), "layer index " << i);
  return *layers_[i];
}

std::size_t Network::layer_offset(std::size_t i) const {
  FRLFI_CHECK_MSG(i < layer_offsets_.size(), "layer index " << i);
  return layer_offsets_[i];
}

void Network::set_activation_hook(
    std::function<void(std::size_t, Tensor&)> hook) {
  activation_hook_ = std::move(hook);
}

Tensor Network::forward(const Tensor& input, const WeightView* view) {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward on empty network");
  if (view != nullptr) {
    check_view(*view, param_total_);
    return forward_one(input, WeightSource(view, 0));
  }
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x);
    if (activation_hook_) activation_hook_(i, x);
  }
  return x;
}

Tensor Network::forward_inner(Tensor x, std::size_t batch,
                              WeightSource plane) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    plane.offset = layer_offsets_[i];
    x = layers_[i]->forward_batch_inner(std::move(x), batch, plane);
    if (activation_hook_) activation_hook_(i, x);
  }
  return x;
}

Tensor Network::forward_one(const Tensor& input, WeightSource plane) const {
  std::vector<std::size_t> shape = input.shape();
  shape.push_back(1);
  Tensor y = forward_inner(input.reshaped(shape), 1, plane);
  shape.assign(y.shape().begin(), y.shape().end() - 1);
  return std::move(y).reshaped(shape);
}

template <typename View>
Tensor Network::forward_rows(const Tensor& input, std::size_t batch,
                             std::span<const View* const> lane_views,
                             const View* shared) const {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward_batch on empty network");
  FRLFI_CHECK_MSG(batch >= 1 && input.dim(0) == batch,
                  "bad batch input " << input.shape_string());
  if (shared != nullptr) check_view(*shared, param_total_);
  bool any_override = false;
  if (!lane_views.empty()) {
    FRLFI_CHECK_MSG(lane_views.size() == batch,
                    "lane_views " << lane_views.size() << " for batch "
                                  << batch);
    for (const View* v : lane_views) {
      if (v == nullptr) continue;
      check_view(*v, param_total_);
      any_override = true;
    }
  }
  if (!any_override) {
    // One transpose into batch-innermost layout, the whole stack on the
    // fast batch-inner kernels, one transpose back.
    return batch_to_major(forward_inner(batch_to_inner(input, batch), batch,
                                        WeightSource(shared, 0)),
                          batch);
  }
  // Each contiguous run of rows sharing one view goes through the stack as
  // its own sub-batch; its rows land straight in the output.
  const std::size_t sample = input.size() / batch;
  std::vector<std::size_t> sub_shape = input.shape();
  Tensor out;
  std::size_t run0 = 0;
  for (std::size_t b = 1; b <= batch; ++b) {
    if (b < batch && lane_views[b] == lane_views[run0]) continue;
    const std::size_t nb = b - run0;
    sub_shape[0] = nb;
    Tensor sub(sub_shape);
    std::copy_n(
        input.data().begin() + static_cast<std::ptrdiff_t>(run0 * sample),
        nb * sample, sub.data().begin());
    const View* view = lane_views[run0] != nullptr ? lane_views[run0] : shared;
    const Tensor y = batch_to_major(
        forward_inner(batch_to_inner(sub, nb), nb, WeightSource(view, 0)), nb);
    if (out.empty()) {
      std::vector<std::size_t> out_shape = y.shape();
      out_shape[0] = batch;
      out = Tensor(std::move(out_shape));
    }
    std::copy_n(y.data().begin(), y.size(),
                out.data().begin() +
                    static_cast<std::ptrdiff_t>(run0 * (y.size() / nb)));
    run0 = b;
  }
  return out;
}

Tensor Network::forward_batch(const Tensor& input, std::size_t batch,
                              std::span<const WeightView* const> lane_views) {
  return forward_rows<WeightView>(input, batch, lane_views, nullptr);
}

Tensor Network::forward_quant(const Tensor& input,
                              const QuantWeightView& qview) {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward_quant on empty network");
  check_view(qview, param_total_);
  return forward_one(input, WeightSource(&qview, 0));
}

Tensor Network::forward_batch_quant(
    const Tensor& input, std::size_t batch, const QuantWeightView& qview,
    std::span<const QuantWeightView* const> lane_views) {
  return forward_rows<QuantWeightView>(input, batch, lane_views, &qview);
}

Tensor Network::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!layers_.empty(), "backward on empty network");
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
  return g;
}

std::vector<Parameter*> Network::parameters() {
  if (!param_cache_valid_) {
    param_cache_.clear();
    for (auto& l : layers_)
      for (Parameter* p : l->parameters()) param_cache_.push_back(p);
    param_cache_valid_ = true;
  }
  return param_cache_;
}

void Network::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

std::vector<float> Network::flat_parameters() const {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& l : layers_)
    for (Parameter* p : const_cast<Layer&>(*l).parameters())
      flat.insert(flat.end(), p->value.data().begin(), p->value.data().end());
  return flat;
}

void Network::copy_flat_parameters(std::span<float> out) const {
  FRLFI_CHECK_MSG(out.size() == parameter_count(),
                  "flat size " << out.size() << " != " << parameter_count());
  std::size_t off = 0;
  for (const auto& l : layers_) {
    for (Parameter* p : const_cast<Layer&>(*l).parameters()) {
      const auto& src = p->value.data();
      std::copy(src.begin(), src.end(),
                out.begin() + static_cast<std::ptrdiff_t>(off));
      off += src.size();
    }
  }
}

void Network::set_flat_parameters(std::span<const float> flat) {
  FRLFI_CHECK_MSG(flat.size() == parameter_count(),
                  "flat size " << flat.size() << " != " << parameter_count());
  std::size_t off = 0;
  for (auto& l : layers_) {
    for (Parameter* p : l->parameters()) {
      auto& dst = p->value.data();
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
                flat.begin() + static_cast<std::ptrdiff_t>(off + dst.size()),
                dst.begin());
      off += dst.size();
    }
  }
}

Network Network::clone() const {
  Network copy;
  for (const auto& l : layers_) copy.add(l->clone());
  return copy;
}

void Network::save_parameters(std::ostream& os) const {
  const std::uint32_t magic = 0x464E4554u;  // "FNET"
  const std::uint64_t n = parameter_count();
  os.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  const std::vector<float> flat = flat_parameters();
  os.write(reinterpret_cast<const char*>(flat.data()),
           static_cast<std::streamsize>(flat.size() * sizeof(float)));
}

void Network::load_parameters(std::istream& is) {
  std::uint32_t magic = 0;
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof magic);
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  FRLFI_CHECK_MSG(is.good() && magic == 0x464E4554u, "bad network header");
  FRLFI_CHECK_MSG(n == parameter_count(),
                  "saved parameter count " << n << " != " << parameter_count());
  std::vector<float> flat(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(flat.data()),
          static_cast<std::streamsize>(flat.size() * sizeof(float)));
  FRLFI_CHECK_MSG(is.good(), "truncated network payload");
  set_flat_parameters(flat);
}

}  // namespace frlfi

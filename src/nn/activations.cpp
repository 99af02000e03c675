#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "tensor/gemm.hpp"  // FRLFI_TARGET_CLONES

namespace frlfi {
namespace {

// Branchless in-place clamp for the batched path: the per-sample loop's
// `if (v < 0)` store-under-branch mispredicts on random activations, while
// the ternary compiles to a vector max. Elementwise, so the AVX2 clone is
// bit-identical (see gemm.hpp).
FRLFI_TARGET_CLONES
void relu_inplace(float* FRLFI_RESTRICT v, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] < 0.0f ? 0.0f : v[i];
}

}  // namespace

ReLU::ReLU(std::string layer_name) : label_(std::move(layer_name)) {}

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  for (auto& v : out.data())
    if (v < 0.0f) v = 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!cached_input_.empty(), label_ << ": backward before forward");
  FRLFI_CHECK(grad_output.size() == cached_input_.size());
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i)
    if (cached_input_[i] <= 0.0f) grad_input[i] = 0.0f;
  return grad_input;
}

Tensor ReLU::forward_batch_inner(Tensor input, std::size_t batch,
                                 WeightSource /*w*/) const {
  FRLFI_CHECK(batch >= 1 && input.size() % batch == 0);
  relu_inplace(input.data().data(), input.size());
  return input;
}

std::string ReLU::name() const { return label_ + "(ReLU)"; }

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(label_);
}

Tanh::Tanh(std::string layer_name) : label_(std::move(layer_name)) {}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  for (auto& v : out.data()) v = std::tanh(v);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!cached_output_.empty(), label_ << ": backward before forward");
  FRLFI_CHECK(grad_output.size() == cached_output_.size());
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= (1.0f - y * y);
  }
  return grad_input;
}

Tensor Tanh::forward_batch_inner(Tensor input, std::size_t batch,
                                 WeightSource /*w*/) const {
  FRLFI_CHECK(batch >= 1 && input.size() % batch == 0);
  for (auto& v : input.data()) v = std::tanh(v);
  return input;
}

std::string Tanh::name() const { return label_ + "(Tanh)"; }

std::unique_ptr<Layer> Tanh::clone() const {
  return std::make_unique<Tanh>(label_);
}

Tensor softmax(const Tensor& logits) {
  FRLFI_CHECK(!logits.empty());
  Tensor out = logits;
  const float m = logits.max();
  float total = 0.0f;
  for (auto& v : out.data()) {
    v = std::exp(v - m);
    total += v;
  }
  // total >= 1 because the max element contributes exp(0) = 1.
  for (auto& v : out.data()) v /= total;
  return out;
}

Tensor softmax_batch(const Tensor& logits, std::size_t batch) {
  FRLFI_CHECK(batch >= 1 && logits.rank() >= 2 && logits.dim(0) == batch);
  const std::size_t width = logits.size() / batch;
  FRLFI_CHECK(width >= 1);
  Tensor out = logits;
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = out.data().data() + b * width;
    float m = row[0];
    for (std::size_t j = 1; j < width; ++j) m = std::max(m, row[j]);
    float total = 0.0f;
    for (std::size_t j = 0; j < width; ++j) {
      row[j] = std::exp(row[j] - m);
      total += row[j];
    }
    for (std::size_t j = 0; j < width; ++j) row[j] /= total;
  }
  return out;
}

float log_softmax_at(const Tensor& logits, std::size_t index) {
  FRLFI_CHECK(index < logits.size());
  const float m = logits.max();
  float total = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i)
    total += std::exp(logits[i] - m);
  return (logits[index] - m) - std::log(total);
}

}  // namespace frlfi

#pragma once

/// \file dense.hpp
/// Fully-connected layer: y = W x + b over flat input vectors.

#include "nn/layer.hpp"

namespace frlfi {

/// Fully-connected (affine) layer. Input: rank-1 tensor of `in_features`;
/// output: rank-1 tensor of `out_features`. Weights are Xavier-uniform
/// initialized; biases start at zero.
class Dense final : public Layer {
 public:
  /// Construct with explicit dimensions and an RNG for initialization.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
        std::string layer_name = "dense");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batch-inner forward: the (in, B) input IS the Xᵀ operand, so the
  /// bias-seeded GEMM consumes and produces the transposed layout with no
  /// repacking. On the float planes (own tensors, or weight/bias read
  /// through the view, zero-copy when the overlay misses this layer) every
  /// output element accumulates bias-first then the in-features in
  /// increasing order, the exact gemv_bias chain of forward(), so the
  /// result is bit-identical to forward() at every batch size.
  ///
  /// On the int8 plane: y = bias_f + (Wq · xq) * (w_scale * x_scale),
  /// with Wq the deployed words, xq each sample's requantized input and
  /// the product accumulated in int32 (tensor/gemm_s8.hpp). Integer
  /// accumulation is exact, so every width gives the same bits. It
  /// matches the float-shadow view within the quantization tolerance of
  /// one activation rounding per input feature.
  Tensor forward_batch_inner(Tensor input, std::size_t batch,
                             WeightSource w) const override;

  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  /// Input feature count.
  std::size_t in_features() const { return in_; }

  /// Output feature count.
  std::size_t out_features() const { return out_; }

  /// Direct access to the weight parameter (FI and tests).
  Parameter& weight() { return weight_; }

  /// Direct access to the bias parameter.
  Parameter& bias() { return bias_; }

 private:
  std::size_t in_, out_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  Tensor cached_input_;
  std::string label_;
};

}  // namespace frlfi

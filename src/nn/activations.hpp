#pragma once

/// \file activations.hpp
/// Elementwise activations and the softmax helper used by the policy heads.

#include "nn/layer.hpp"

namespace frlfi {

/// Rectified linear unit, y = max(0, x), any tensor shape.
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string layer_name = "relu");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Elementwise, in place on the moved-in buffer (layout-agnostic);
  /// bit-identical to forward(). Ignores the weight source.
  Tensor forward_batch_inner(Tensor input, std::size_t batch,
                             WeightSource w) const override;

  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_input_;
  std::string label_;
};

/// Hyperbolic tangent activation, any tensor shape.
class Tanh final : public Layer {
 public:
  explicit Tanh(std::string layer_name = "tanh");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Elementwise, in place on the moved-in buffer (layout-agnostic);
  /// bit-identical to forward(). Ignores the weight source.
  Tensor forward_batch_inner(Tensor input, std::size_t batch,
                             WeightSource w) const override;

  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_output_;
  std::string label_;
};

/// Numerically-stable softmax over a rank-1 tensor (free function; the
/// policy losses differentiate through it analytically, so it is not a
/// Layer).
Tensor softmax(const Tensor& logits);

/// log(softmax(logits)[index]) computed stably.
float log_softmax_at(const Tensor& logits, std::size_t index);

/// Row-wise softmax over a batched (batch x features) logits tensor: row b
/// of the result is softmax() of row b, computed with the identical
/// max/exp/normalize sequence so batched rows are bit-identical to the
/// single-sample helper.
Tensor softmax_batch(const Tensor& logits, std::size_t batch);

}  // namespace frlfi

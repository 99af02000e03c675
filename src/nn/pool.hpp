#pragma once

/// \file pool.hpp
/// Max pooling over CHW tensors.

#include "nn/layer.hpp"

namespace frlfi {

/// Non-overlapping (stride == window) max pooling. Input (C, H, W) ->
/// output (C, H/window, W/window), truncating ragged edges.
class MaxPool2D final : public Layer {
 public:
  /// \param window pooling window edge (>= 1).
  explicit MaxPool2D(std::size_t window, std::string layer_name = "pool");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batch-innermost pooling over (C, H, W, B): each window tap is a
  /// unit-stride vector max across the batch. Bit-identical to forward();
  /// no argmax cache written. Ignores the weight source.
  Tensor forward_batch_inner(Tensor input, std::size_t batch,
                             WeightSource w) const override;

  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> input_shape_;
  std::string label_;
};

}  // namespace frlfi

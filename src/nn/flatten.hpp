#pragma once

/// \file flatten.hpp
/// Shape adapter between convolutional and dense stages.

#include "nn/layer.hpp"

namespace frlfi {

/// Flattens any input tensor to rank-1; backward restores the input shape.
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string layer_name = "flatten");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// (..., B) -> (prod(...), B): in batch-inner layout flattening is a
  /// zero-copy reshape of the moved-in tensor. Ignores the weight source.
  Tensor forward_batch_inner(Tensor input, std::size_t batch,
                             WeightSource w) const override;

  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::vector<std::size_t> input_shape_;
  std::string label_;
};

}  // namespace frlfi

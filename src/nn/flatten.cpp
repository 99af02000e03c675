#include "nn/flatten.hpp"

#include "core/error.hpp"

namespace frlfi {

Flatten::Flatten(std::string layer_name) : label_(std::move(layer_name)) {}

Tensor Flatten::forward(const Tensor& input) {
  FRLFI_CHECK(!input.empty());
  input_shape_ = input.shape();
  return input.reshaped({input.size()});
}

Tensor Flatten::forward_batch_inner(Tensor input, std::size_t batch,
                                    WeightSource /*w*/) const {
  FRLFI_CHECK_MSG(batch >= 1 && input.rank() >= 2 &&
                      input.dim(input.rank() - 1) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string());
  const std::size_t features = input.size() / batch;
  return std::move(input).reshaped({features, batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!input_shape_.empty(), label_ << ": backward before forward");
  return grad_output.reshaped(input_shape_);
}

std::string Flatten::name() const { return label_ + "(Flatten)"; }

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(label_);
}

}  // namespace frlfi

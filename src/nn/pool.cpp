#include "nn/pool.hpp"

#include <sstream>

#include "core/error.hpp"

namespace frlfi {

MaxPool2D::MaxPool2D(std::size_t window, std::string layer_name)
    : window_(window), label_(std::move(layer_name)) {
  FRLFI_CHECK(window_ >= 1);
}

Tensor MaxPool2D::forward(const Tensor& input) {
  FRLFI_CHECK_MSG(input.rank() == 3, label_ << ": bad input rank");
  const std::size_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::size_t oh = h / window_, ow = w / window_;
  FRLFI_CHECK_MSG(oh > 0 && ow > 0, label_ << ": input smaller than window");
  input_shape_ = input.shape();
  Tensor out({c, oh, ow});
  argmax_.assign(c * oh * ow, 0);
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        // Seed the argmax with the window's first tap, so a window with
        // nothing above the seed value (all -inf or NaN after a fault)
        // still routes its gradient inside the window.
        float best = -3.4e38f;
        std::size_t best_idx = (ch * h + oy * window_) * w + ox * window_;
        for (std::size_t ky = 0; ky < window_; ++ky) {
          for (std::size_t kx = 0; kx < window_; ++kx) {
            const std::size_t iy = oy * window_ + ky;
            const std::size_t ix = ox * window_ + kx;
            const std::size_t idx = (ch * h + iy) * w + ix;
            if (input[idx] > best) {
              best = input[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t oidx = (ch * oh + oy) * ow + ox;
        out[oidx] = best;
        argmax_[oidx] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2D::forward_batch_inner(Tensor input, std::size_t batch,
                                      WeightSource /*w*/) const {
  FRLFI_CHECK_MSG(batch >= 1 && input.rank() == 4 && input.dim(3) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string());
  const std::size_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::size_t oh = h / window_, ow = w / window_;
  FRLFI_CHECK_MSG(oh > 0 && ow > 0, label_ << ": input smaller than window");
  Tensor out({c, oh, ow, batch});
  const float* x = input.data().data();
  float* y = out.data().data();
  for (std::size_t ch = 0; ch < c; ++ch) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* dst = y + ((ch * oh + oy) * ow + ox) * batch;
        for (std::size_t b = 0; b < batch; ++b) dst[b] = -3.4e38f;
        for (std::size_t ky = 0; ky < window_; ++ky) {
          for (std::size_t kx = 0; kx < window_; ++kx) {
            const float* src =
                x + ((ch * h + oy * window_ + ky) * w + ox * window_ + kx) *
                        batch;
#pragma omp simd
            for (std::size_t b = 0; b < batch; ++b)
              dst[b] = src[b] > dst[b] ? src[b] : dst[b];
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!argmax_.empty(), label_ << ": backward before forward");
  FRLFI_CHECK(grad_output.size() == argmax_.size());
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

std::string MaxPool2D::name() const {
  std::ostringstream os;
  os << label_ << "(MaxPool2D " << window_ << "x" << window_ << ")";
  return os.str();
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  auto copy = std::make_unique<MaxPool2D>(window_, label_);
  return copy;
}

}  // namespace frlfi

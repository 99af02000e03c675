#include "nn/dense.hpp"

#include <cmath>
#include <sstream>

#include "core/error.hpp"
#include "fault/overlay.hpp"
#include "numeric/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_s8.hpp"

namespace frlfi {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
             std::string layer_name)
    : in_(in_features), out_(out_features), label_(std::move(layer_name)) {
  FRLFI_CHECK(in_ > 0 && out_ > 0);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_ + out_));  // Xavier uniform
  weight_ = Parameter(label_ + ".weight",
                      Tensor::random_uniform({out_, in_}, rng, -bound, bound));
  bias_ = Parameter(label_ + ".bias", Tensor({out_}));
}

Tensor Dense::forward(const Tensor& input) {
  FRLFI_CHECK_MSG(input.size() == in_, label_ << ": input size " << input.size()
                                              << " != " << in_);
  cached_input_ = input.reshaped({in_});
  Tensor out({out_});
  gemv_bias(weight_.value.data().data(), cached_input_.data().data(),
            bias_.value.data().data(), out.data().data(), out_, in_);
  return out;
}

Tensor Dense::forward_batch_inner(Tensor input, std::size_t batch,
                                  WeightSource w) const {
  FRLFI_CHECK_MSG(batch >= 1 && input.size() == batch * in_ &&
                      input.dim(input.rank() - 1) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string()
                         << " for batch " << batch);
  if (w.qview == nullptr) {
    const float* wt = weight_.value.data().data();
    const float* bias = bias_.value.data().data();
    if (w.view != nullptr) {
      thread_local std::vector<float> wbuf, bbuf;
      const auto wb = w.view->weight_bias(w.offset, weight_.value.size(),
                                          bias_.value.size(), wbuf, bbuf);
      wt = wb.weight;
      bias = wb.bias;
    }
    Tensor out({out_, batch});
    if (batch < kBatchInnerWideKernelMin) {
      // Keep the exact gemv chain below the wide-GEMM threshold: gather
      // each sample's strided column, run the per-sample kernel, scatter
      // back. Reused scratch: this path runs per decision step in
      // small-fleet evaluation loops.
      thread_local std::vector<float> xs, ys;
      xs.resize(in_);
      ys.resize(out_);
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t j = 0; j < in_; ++j) xs[j] = input[j * batch + b];
        gemv_bias(wt, xs.data(), bias, ys.data(), out_, in_);
        for (std::size_t o = 0; o < out_; ++o) out[o * batch + b] = ys[o];
      }
      return out;
    }
    gemm_bias_rows_ordered(wt, input.data().data(), bias, out.data().data(),
                           out_, in_, batch);
    return out;
  }
  const QuantWeightView& qview = *w.qview;
  thread_local std::vector<std::int8_t> wqbuf, bqbuf, xq;
  thread_local std::vector<float> sx, bias_f;
  thread_local std::vector<std::int32_t> acc;
  const std::int8_t* wq = qview.span(w.offset, out_ * in_, wqbuf);
  const std::int8_t* bq = qview.span(w.offset + out_ * in_, out_, bqbuf);
  // The bias executes in float, dequantized from its deployed words with
  // the image's scale — the exact value the float-shadow base holds.
  bias_f.resize(out_);
  for (std::size_t o = 0; o < out_; ++o)
    bias_f[o] = static_cast<float>(bq[o]) * qview.scale;
  sx.resize(batch);
  xq.resize(in_ * batch);
  acc.resize(out_ * batch);
  const float* x = input.data().data();
  activation_scales_inner(x, in_, batch, sx.data());
  quantize_activations_inner(x, in_, batch, sx.data(), xq.data());
  if (batch == 1) {
    gemv_s8(wq, xq.data(), acc.data(), out_, in_);
  } else {
    // The (in, B) block IS the quantized Xᵀ operand — no repacking.
    gemm_s8(wq, xq.data(), acc.data(), out_, in_, batch);
  }
  Tensor out({out_, batch});
  dequantize_outputs_inner(acc.data(), out_, batch, bias_f.data(), 1,
                           qview.scale, sx.data(), out.data().data());
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(grad_output.size() == out_, label_ << ": grad size mismatch");
  FRLFI_CHECK_MSG(!cached_input_.empty(), label_ << ": backward before forward");
  Tensor grad_input({in_});
  const auto& g = grad_output.data();
  for (std::size_t o = 0; o < out_; ++o) bias_.grad[o] += g[o];
  // dW += g · xᵀ (rank-1 GEMM-accumulate); dx += Wᵀ · g. Both kernels keep
  // the reference accumulation order, so results match the old loops.
  ger_accumulate(g.data(), cached_input_.data().data(),
                 weight_.grad.data().data(), out_, in_);
  gemv_t_accumulate(weight_.value.data().data(), g.data(),
                    grad_input.data().data(), out_, in_);
  return grad_input;
}

std::string Dense::name() const {
  std::ostringstream os;
  os << label_ << "(Dense " << in_ << "->" << out_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(*this);
  copy->cached_input_ = Tensor();
  return copy;
}

}  // namespace frlfi

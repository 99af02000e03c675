#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/error.hpp"
#include "fault/overlay.hpp"
#include "numeric/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_s8.hpp"

namespace frlfi {
namespace {

// One valid kernel tap for a fixed output row oy: weight index, the
// x pointer at (ic, iy, 0), the (possibly negative) kx - pad column
// offset so the ox'th output reads row + (ox*stride + off)*B, and the ox
// range where that read stays in bounds.
struct ConvTap {
  std::size_t r;
  const float* row;
  std::ptrdiff_t off;
  std::size_t ox_lo, ox_hi;
};

// Direct batch-inner convolution kernel: x is (in_c, h, w, B), y is
// (out_c, oh, ow, B) — no im2col, no patch matrix. For each output
// (oc, oy, ox) the batch is processed in fixed 16-float chunks whose
// accumulator lives in registers across the whole tap loop, so y is
// written exactly once and each tap costs one x-vector load plus one
// mul/add — instead of a load+store of y per tap. Per output element the
// accumulation runs bias-first then taps in increasing (ic, ky, kx)
// order, the same chain as the per-sample GEMM forward, so results match
// it bit-for-bit wherever that path runs the ordered wide kernel;
// out-of-bounds taps are skipped (they contribute exact zeros there).
// Reduction-free, so the wider-vector clones are bit-identical (gemm.hpp).
FRLFI_TARGET_CLONES
void conv_batch_inner(const float* FRLFI_RESTRICT x,
                      const float* FRLFI_RESTRICT wt,
                      const float* FRLFI_RESTRICT bias, const ConvShape& s,
                      std::size_t out_c, std::size_t batch,
                      float* FRLFI_RESTRICT y) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t taps = s.in_c * s.k * s.k;
  constexpr std::size_t kChunk = 16;
  std::vector<ConvTap> row_taps;
  row_taps.reserve(taps);
  for (std::size_t oy = 0; oy < oh; ++oy) {
    // Collect this output row's in-bounds taps once (ascending r).
    row_taps.clear();
    std::size_t lo_all = 0, hi_all = ow;
    std::size_t r = 0;
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
      for (std::size_t ky = 0; ky < s.k; ++ky) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
            static_cast<std::ptrdiff_t>(s.pad);
        const bool iy_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(s.h);
        for (std::size_t kx = 0; kx < s.k; ++kx, ++r) {
          if (!iy_ok) continue;
          std::size_t ox_lo, ox_hi;
          conv_valid_ox_range(s, kx, ow, ox_lo, ox_hi);
          if (ox_lo >= ox_hi) continue;
          const float* row =
              x + (ic * s.h + static_cast<std::size_t>(iy)) * s.w * batch;
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(s.pad);
          row_taps.push_back({r, row, off, ox_lo, ox_hi});
          lo_all = std::max(lo_all, ox_lo);
          hi_all = std::min(hi_all, ox_hi);
        }
      }
    }
    if (lo_all > hi_all) hi_all = lo_all;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      const float* FRLFI_RESTRICT wrow = wt + oc * taps;
      const float bv = bias[oc];
      float* FRLFI_RESTRICT yrow = y + (oc * oh + oy) * ow * batch;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float* FRLFI_RESTRICT yv = yrow + ox * batch;
        const std::ptrdiff_t xox =
            static_cast<std::ptrdiff_t>(ox * s.stride);
        const bool interior = ox >= lo_all && ox < hi_all;
        for (std::size_t b0 = 0; b0 < batch; b0 += kChunk) {
          const std::size_t blen = std::min(kChunk, batch - b0);
          if (blen == kChunk) {
            float acc[kChunk];
            for (std::size_t l = 0; l < kChunk; ++l) acc[l] = bv;
            if (interior) {
              for (const ConvTap& t : row_taps) {
                const float wv = wrow[t.r];
                const float* FRLFI_RESTRICT xv =
                    t.row + (xox + t.off) * static_cast<std::ptrdiff_t>(batch) +
                    static_cast<std::ptrdiff_t>(b0);
#pragma omp simd
                for (std::size_t l = 0; l < kChunk; ++l) acc[l] += wv * xv[l];
              }
            } else {
              for (const ConvTap& t : row_taps) {
                if (ox < t.ox_lo || ox >= t.ox_hi) continue;
                const float wv = wrow[t.r];
                const float* FRLFI_RESTRICT xv =
                    t.row + (xox + t.off) * static_cast<std::ptrdiff_t>(batch) +
                    static_cast<std::ptrdiff_t>(b0);
#pragma omp simd
                for (std::size_t l = 0; l < kChunk; ++l) acc[l] += wv * xv[l];
              }
            }
            for (std::size_t l = 0; l < kChunk; ++l) yv[b0 + l] = acc[l];
          } else {
            // Ragged tail chunk (batch not a multiple of 16).
            float acc[kChunk];
            for (std::size_t l = 0; l < blen; ++l) acc[l] = bv;
            for (const ConvTap& t : row_taps) {
              if (ox < t.ox_lo || ox >= t.ox_hi) continue;
              const float wv = wrow[t.r];
              const float* FRLFI_RESTRICT xv =
                    t.row + (xox + t.off) * static_cast<std::ptrdiff_t>(batch) +
                    static_cast<std::ptrdiff_t>(b0);
#pragma omp simd
              for (std::size_t l = 0; l < blen; ++l) acc[l] += wv * xv[l];
            }
            for (std::size_t l = 0; l < blen; ++l) yv[b0 + l] = acc[l];
          }
        }
      }
    }
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng, std::string layer_name)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      label_(std::move(layer_name)) {
  FRLFI_CHECK(in_c_ > 0 && out_c_ > 0 && k_ > 0 && stride_ > 0);
  const float fan_in = static_cast<float>(in_c_ * k_ * k_);
  const float fan_out = static_cast<float>(out_c_ * k_ * k_);
  const float bound = std::sqrt(6.0f / (fan_in + fan_out));
  weight_ = Parameter(
      label_ + ".weight",
      Tensor::random_uniform({out_c_, in_c_, k_, k_}, rng, -bound, bound));
  bias_ = Parameter(label_ + ".bias", Tensor({out_c_}));
}

std::size_t Conv2D::out_extent(std::size_t in_extent) const {
  FRLFI_CHECK_MSG(in_extent + 2 * pad_ >= k_,
                  label_ << ": input extent " << in_extent << " too small");
  return (in_extent + 2 * pad_ - k_) / stride_ + 1;
}

ConvShape Conv2D::shape_for(const Tensor& input) const {
  return ConvShape{in_c_, input.dim(1), input.dim(2), k_, stride_, pad_};
}

void Conv2D::check_grad_shape(const Tensor& grad_output, std::size_t oh,
                              std::size_t ow) const {
  FRLFI_CHECK_MSG(grad_output.rank() == 3 && grad_output.dim(0) == out_c_ &&
                      grad_output.dim(1) == oh && grad_output.dim(2) == ow,
                  label_ << ": bad grad shape " << grad_output.shape_string());
}

Tensor Conv2D::forward(const Tensor& input) {
  FRLFI_CHECK_MSG(input.rank() == 3 && input.dim(0) == in_c_,
                  label_ << ": bad input shape " << input.shape_string());
  cached_input_ = input;
  const ConvShape s = shape_for(input);
  out_extent(s.h);  // validates extent >= kernel with the layer's message
  out_extent(s.w);
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t rows = s.rows(), ncols = s.cols();
  cols_.resize(rows * ncols);
  im2col(input.data().data(), s, cols_.data());
  cols_fresh_ = true;
  Tensor out({out_c_, oh, ow});
  // Bias-seeded fused GEMM: the per-element accumulation chain (bias first,
  // taps in increasing order) matches forward_naive exactly, so the two
  // paths agree bit-for-bit on wide outputs.
  gemm_bias_rows(weight_.value.data().data(), cols_.data(),
                 bias_.value.data().data(), out.data().data(), out_c_, rows,
                 ncols);
  return out;
}

Tensor Conv2D::forward_batch_inner(Tensor input, std::size_t batch,
                                   WeightSource w) const {
  FRLFI_CHECK_MSG(batch >= 1 && input.rank() == 4 && input.dim(0) == in_c_ &&
                      input.dim(3) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string()
                         << " for batch " << batch);
  const ConvShape s{in_c_, input.dim(1), input.dim(2), k_, stride_, pad_};
  out_extent(s.h);  // validates extent >= kernel with the layer's message
  out_extent(s.w);
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t taps = s.rows(), ncols = oh * ow;
  const std::size_t sample = in_c_ * s.h * s.w;
  const float* x = input.data().data();
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
    Tensor out({out_c_, oh, ow, batch});
    if (batch >= kBatchInnerWideKernelMin) {
      conv_batch_inner(x, wt, bias, s, out_c_, batch, out.data().data());
      return out;
    }
    // Below the SIMD-worthwhile width the direct kernel's B-wide saxpy
    // degenerates: gather each sample out of the batch-inner layout and
    // run the per-sample im2col+GEMM kernels instead — the exact forward()
    // compute (bit-identical to it at every geometry), minus its caching.
    thread_local std::vector<float> xs, cols, ys;
    xs.resize(sample);
    cols.resize(taps * ncols);
    ys.resize(out_c_ * ncols);
    float* y = out.data().data();
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t f = 0; f < sample; ++f) xs[f] = x[f * batch + b];
      im2col(xs.data(), s, cols.data());
      gemm_bias_rows(wt, cols.data(), bias, ys.data(), out_c_, taps, ncols);
      for (std::size_t f = 0; f < out_c_ * ncols; ++f)
        y[f * batch + b] = ys[f];
    }
    return out;
  }
  const QuantWeightView& qview = *w.qview;
  thread_local std::vector<std::int8_t> wqbuf, bqbuf, xq, cols_q;
  thread_local std::vector<float> sx, bias_f;
  thread_local std::vector<std::int32_t> acc;
  const std::int8_t* wq = qview.span(w.offset, out_c_ * taps, wqbuf);
  const std::int8_t* bq =
      qview.span(w.offset + out_c_ * taps, out_c_, bqbuf);
  bias_f.resize(out_c_);
  for (std::size_t oc = 0; oc < out_c_; ++oc)
    bias_f[oc] = static_cast<float>(bq[oc]) * qview.scale;
  sx.resize(batch);
  activation_scales_inner(x, sample, batch, sx.data());
  // One pipeline for every batch size: requantize the whole batch-inner
  // block, widen each pixel to `batch` words with im2col_s8_inner, and run
  // a single int8 GEMM over n = ncols*batch. The patch matrix's explicit
  // zero padding words contribute exact zeros to the int32 accumulators,
  // so this equals the per-sample im2col form and the scalar gemm_s8_ref
  // bit-for-bit — integer accumulation is order- and zero-insensitive
  // (the property test_quant_forward locks).
  xq.resize(sample * batch);
  quantize_activations_inner(x, sample, batch, sx.data(), xq.data());
  cols_q.resize(taps * ncols * batch);
  im2col_s8_inner(xq.data(), s, batch, cols_q.data());
  acc.resize(out_c_ * ncols * batch);
  gemm_s8(wq, cols_q.data(), acc.data(), out_c_, taps, ncols * batch);
  Tensor out({out_c_, oh, ow, batch});
  dequantize_outputs_inner(acc.data(), out_c_ * ncols, batch, bias_f.data(),
                           ncols, qview.scale, sx.data(), out.data().data());
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!cached_input_.empty(), label_ << ": backward before forward");
  const ConvShape s = shape_for(cached_input_);
  const std::size_t oh = s.out_h(), ow = s.out_w();
  check_grad_shape(grad_output, oh, ow);
  const std::size_t rows = s.rows(), ncols = s.cols();
  // Reuse the patch matrix left by forward(); recompute only when the last
  // forward ran the naive path (or a clone dropped the workspace).
  if (!cols_fresh_ || cols_.size() != rows * ncols) {
    cols_.resize(rows * ncols);
    im2col(cached_input_.data().data(), s, cols_.data());
    cols_fresh_ = true;
  }
  const auto& g = grad_output.data();
  // Bias gradient: row sums of the output gradient.
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    float acc = 0.0f;
    const float* grow = &g[oc * ncols];
    for (std::size_t j = 0; j < ncols; ++j) acc += grow[j];
    bias_.grad[oc] += acc;
  }
  // Weight gradient: dW (out_c x rows) += G (out_c x ncols) · colsᵀ.
  gemm_nt_accumulate(g.data(), cols_.data(), weight_.grad.data().data(),
                     out_c_, ncols, rows);
  // Input gradient in patch space: gcols (rows x ncols) = Wᵀ · G, then
  // scatter back onto the image with col2im.
  gcols_.resize(rows * ncols);
  gemm_tn(weight_.value.data().data(), g.data(), gcols_.data(), rows, out_c_,
          ncols);
  Tensor grad_input(cached_input_.shape());
  col2im_accumulate(gcols_.data(), s, grad_input.data().data());
  return grad_input;
}

Tensor Conv2D::forward_naive(const Tensor& input) {
  FRLFI_CHECK_MSG(input.rank() == 3 && input.dim(0) == in_c_,
                  label_ << ": bad input shape " << input.shape_string());
  cached_input_ = input;
  cols_fresh_ = false;
  const std::size_t h = input.dim(1), w = input.dim(2);
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  Tensor out({out_c_, oh, ow});
  const auto& x = input.data();
  const auto& wt = weight_.value.data();
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = bias_.value[oc];
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += wt[((oc * in_c_ + ic) * k_ + ky) * k_ + kx] *
                     x[(ic * h + static_cast<std::size_t>(iy)) * w +
                       static_cast<std::size_t>(ix)];
            }
          }
        }
        out[(oc * oh + oy) * ow + ox] = acc;
      }
    }
  }
  return out;
}

Tensor Conv2D::backward_naive(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!cached_input_.empty(), label_ << ": backward before forward");
  const std::size_t h = cached_input_.dim(1), w = cached_input_.dim(2);
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  check_grad_shape(grad_output, oh, ow);
  Tensor grad_input(cached_input_.shape());
  const auto& x = cached_input_.data();
  const auto& wt = weight_.value.data();
  auto& gw = weight_.grad.data();
  auto& gx = grad_input.data();
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float g = grad_output[(oc * oh + oy) * ow + ox];
        if (g == 0.0f) continue;
        bias_.grad[oc] += g;
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              const std::size_t xi =
                  (ic * h + static_cast<std::size_t>(iy)) * w +
                  static_cast<std::size_t>(ix);
              const std::size_t wi = ((oc * in_c_ + ic) * k_ + ky) * k_ + kx;
              gw[wi] += g * x[xi];
              gx[xi] += g * wt[wi];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << label_ << "(Conv2D " << in_c_ << "->" << out_c_ << " k" << k_ << " s"
     << stride_ << " p" << pad_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(*this);
  copy->cached_input_ = Tensor();
  copy->cols_.clear();
  copy->gcols_.clear();
  copy->cols_fresh_ = false;
  return copy;
}

}  // namespace frlfi

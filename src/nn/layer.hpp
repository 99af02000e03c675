#pragma once

/// \file layer.hpp
/// Layer abstraction for the policy networks.
///
/// The networks here are small (the paper's policies are a 2-layer MLP for
/// GridWorld and a 3-Conv + 2-FC net for DroneNav) and trained online, one
/// sample at a time, so the training path processes single CHW/flat
/// samples. Each layer caches what it needs during forward() so a
/// following backward() can produce input gradients and accumulate
/// parameter gradients.
///
/// Inference has one entry, the const batch-inner forward_batch_inner():
/// the batch is the innermost dimension and a WeightSource says which
/// weight plane the parameterized layers read. A single sample is the
/// width-1 case. Being const, it cannot touch the backward() caches, so
/// interleaving inference with training is safe and one layer object can
/// serve concurrent inference calls.

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace frlfi {

// The fault-overlay plane (fault/overlay.hpp): a read-only flat base
// parameter vector plus a sparse per-lane corruption overlay. The forward
// plane only ever holds a pointer to it, so a declaration suffices here.
struct WeightView;
// Its int8-native twin: clean deployed words + sparse word overlay + the
// image's dequantization scale (see fault/overlay.hpp).
struct QuantWeightView;

/// The weight plane an inference forward reads: the layer's own tensors
/// (both pointers null), a float view (`view`: the deployed base plus a
/// sparse corruption overlay), or an int8 view (`qview`: the deployed
/// words themselves, run as int8 x requantized activations in int32).
/// At most one pointer is set. `offset` is the layer's first flat
/// parameter index in the view. Parameterless layers ignore the source,
/// so on the int8 plane they run in float.
struct WeightSource {
  const WeightView* view = nullptr;
  const QuantWeightView* qview = nullptr;
  std::size_t offset = 0;

  WeightSource() = default;
  WeightSource(const WeightView* v, std::size_t off) : view(v), offset(off) {}
  WeightSource(const QuantWeightView* q, std::size_t off)
      : qview(q), offset(off) {}
};

/// Batch width at which the batch-inner layers switch from the per-sample
/// gather kernels to the wide B-stride SIMD kernels (Conv2D's direct
/// batch-inner convolution, Dense's ordered batched GEMM), shared by both.
inline constexpr std::size_t kBatchInnerWideKernelMin = 8;

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  /// Human-readable name, e.g. "dense0.weight".
  std::string name;
  /// Current value.
  Tensor value;
  /// Accumulated gradient (same shape as value).
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  /// Reset the gradient accumulator to zero.
  void zero_grad() { grad.fill(0.0f); }
};

/// Base class for all network layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Map an input sample to an output sample, caching intermediates for
  /// backward(). Must be called before backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulate parameter gradients and return
  /// dLoss/dInput for the layer below.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// The inference entry. `input` carries the batch as the innermost
  /// (fastest-moving) dimension: (C, H, W, B) for image stages,
  /// (features, B) for flat stages. Every elementwise, tap and GEMM kernel
  /// then runs across the batch with unit stride, and convolutions need
  /// no im2col. A single sample is the width-1 case: (..., 1) has the
  /// sample's own memory layout. Taking the tensor by value lets
  /// elementwise layers run in place on the moved-in buffer.
  ///
  /// On the float planes, column b of the result matches forward() of
  /// sample b on the same weights: bit-identical wherever the GEMM
  /// ordering contract holds (see gemm.hpp), and within a documented
  /// tolerance where a batched kernel reassociates a tiny reduction. On
  /// the int8 plane every width gives the same bits.
  ///
  /// Overrides must be reentrant and use per-thread scratch only
  /// (thread_local, as Conv2D/Dense do): parallel campaign lanes share
  /// one policy and call this concurrently on one layer object.
  virtual Tensor forward_batch_inner(Tensor input, std::size_t batch,
                                     WeightSource w) const = 0;

  /// Trainable parameters (possibly empty). Pointers remain valid for the
  /// lifetime of the layer.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Layer type + configuration string for diagnostics.
  virtual std::string name() const = 0;

  /// Deep copy (parameters included, caches excluded).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// (B, d1..dk) -> (d1..dk, B): gather each feature's B values contiguous.
Tensor batch_to_inner(const Tensor& batch_major, std::size_t batch);

/// (d1..dk, B) -> (B, d1..dk): the inverse scatter.
Tensor batch_to_major(const Tensor& batch_inner, std::size_t batch);

}  // namespace frlfi

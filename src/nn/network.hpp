#pragma once

/// \file network.hpp
/// Sequential network container with the two facilities the FI framework
/// needs beyond plain forward/backward:
///  * flat parameter import/export (what the federated server aggregates
///    and the communication channel transports), and
///  * per-layer activation hooks (where dynamic activation faults and the
///    range-based anomaly detector attach).

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>

#include "nn/layer.hpp"

namespace frlfi {

struct WeightView;       // fault/overlay.hpp (see layer.hpp)
struct QuantWeightView;  // fault/overlay.hpp (see layer.hpp)

/// Numeric plane an inference forward executes on. Float32 — the default
/// and the golden reference — runs the dequantized shadow of the deployed
/// weights; Int8 opts into the quantized plane: the deployed int8 words
/// themselves, multiplied against int8-requantized activations in int32
/// accumulators (WeightSource::qview), locked against the float path
/// within the per-layer quantization tolerance by tests.
enum class InferenceMode { Float32, Int8 };

/// A stack of layers executed in order. Movable, deep-clonable.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Append a layer; returns *this for chaining.
  Network& add(std::unique_ptr<Layer> layer);

  /// Number of layers.
  std::size_t layer_count() const { return layers_.size(); }

  /// Access layer i.
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Flat parameter offset of layer i — the coordinate WeightView overlays
  /// and layer-scoped injections index with.
  std::size_t layer_offset(std::size_t i) const;

  /// Hook invoked after each layer's forward pass as
  /// hook(layer_index, activation_tensor); the hook may mutate the
  /// activation (fault injection, anomaly suppression). An empty function
  /// clears the hook.
  void set_activation_hook(
      std::function<void(std::size_t, Tensor&)> hook);

  /// The currently installed activation hook (empty function if none) —
  /// lets scoped overriders (batched screening) save and restore it.
  const std::function<void(std::size_t, Tensor&)>& activation_hook() const {
    return activation_hook_;
  }

  /// Run the full forward pass. With a null `view` this is the training
  /// forward: each layer's forward() caches what backward() needs. With a
  /// non-null `view` (the fault-overlay plane, fault/overlay.hpp) it is
  /// the width-1 case of forward_batch: every layer reads its parameters
  /// through the view (deployed base + sparse corruption overlay) instead
  /// of its own tensors, and nothing is written. The result is
  /// bit-identical to mutating the network to the view's effective
  /// weights, forwarding, and restoring. The activation hook then receives
  /// width-1 batch-inner tensors, shape (..., 1). The view's length must
  /// equal parameter_count().
  Tensor forward(const Tensor& input, const WeightView* view = nullptr);

  /// Run the full inference forward over `batch` stacked samples (leading
  /// dim = batch; rank-4 (B,C,H,W) for conv stacks, rank-2 (B,features)
  /// for MLPs). Row b of the result matches forward() of sample b under
  /// the layer equivalence contracts (see Layer::forward_batch_inner).
  /// Internally the stack runs in batch-innermost layout (one transpose
  /// in, one out), so the activation hook, when set, receives each layer's
  /// activations as a *batch-inner* tensor — (C,H,W,B)/(features,B) —
  /// which elementwise consumers like the range screen scan in one pass
  /// over the whole batch. Backward caches are never touched.
  ///
  /// `lane_views` (empty, or one entry per batch row) is the fault-overlay
  /// plane: row b reads its parameters through *lane_views[b] (null =
  /// the layer's own weights), so one batched forward serves N lanes with
  /// N different corrupted weight sets — batched Trans-1. Contiguous rows
  /// sharing a view run as one sub-batch through the batch-inner stack, in
  /// row order, so the hook sees each run's activations separately; each
  /// distinct-view run computes exactly what forward_batch of those rows
  /// on a network holding that view's effective weights would, under the
  /// layers' usual batch-width equivalence contracts.
  Tensor forward_batch(const Tensor& input, std::size_t batch,
                       std::span<const WeightView* const> lane_views = {});

  /// Int8-native forward (InferenceMode::Int8), the width-1 case of
  /// forward_batch_quant: every parameterized layer executes the deployed
  /// int8 words read through `qview` — weights × requantized activations
  /// in int32, per-layer scale products — instead of its float tensors.
  /// The view's length must equal parameter_count(). Bit-identical to
  /// forward_batch_quant of the same sample at any width; matches the
  /// float forward over qview-as-float-view within the quantization
  /// tolerance. The activation hook receives (..., 1) tensors, as in
  /// forward() with a view.
  Tensor forward_quant(const Tensor& input, const QuantWeightView& qview);

  /// Batched int8-native forward: forward_batch's layout and lane-view
  /// semantics on the quantized plane. `qview` is the shared
  /// base image every row reads; `lane_views` (empty, or one entry per
  /// row) overrides it per lane — row b reads *lane_views[b] when
  /// non-null, else `qview` — so one batched forward serves N quantized
  /// lanes with N different corrupted word sets (batched Trans-1 on the
  /// int8 plane). Unlike the float plane there is no width threshold in
  /// the numeric contract: per-sample activation scales and exact integer
  /// accumulation make every batch width and run split produce identical
  /// bits to forward_quant per row.
  Tensor forward_batch_quant(
      const Tensor& input, std::size_t batch, const QuantWeightView& qview,
      std::span<const QuantWeightView* const> lane_views = {});

  /// Run backward from dLoss/dOutput; accumulates parameter gradients and
  /// returns dLoss/dInput.
  Tensor backward(const Tensor& grad_output);

  /// All trainable parameters, in layer order.
  std::vector<Parameter*> parameters();

  /// Zero all parameter gradients.
  void zero_grad();

  /// Total number of trainable scalars.
  std::size_t parameter_count() const { return param_total_; }

  /// Copy all parameter values into one flat vector (layer order).
  std::vector<float> flat_parameters() const;

  /// Copy all parameter values into caller-owned storage (layer order;
  /// `out` must hold parameter_count() floats). The allocation-free
  /// gather the federated round engine uses to fill its round matrix.
  void copy_flat_parameters(std::span<float> out) const;

  /// Load parameter values from a flat vector; size must match exactly.
  void set_flat_parameters(std::span<const float> flat);
  void set_flat_parameters(const std::vector<float>& flat) {
    set_flat_parameters(std::span<const float>(flat));
  }

  /// Deep copy (parameters copied, caches and hooks dropped).
  Network clone() const;

  /// Serialize parameter values (architecture is not serialized; the
  /// loader must have built an identical topology).
  void save_parameters(std::ostream& os) const;

  /// Load parameter values saved by save_parameters into this topology.
  void load_parameters(std::istream& is);

 private:
  // The inference layer loop over a batch-inner tensor: every layer reads
  // `plane` at its own flat offset, the hook sees every activation.
  Tensor forward_inner(Tensor x, std::size_t batch, WeightSource plane) const;

  // The one body of forward_batch and forward_batch_quant: validation,
  // then the whole batch in one pass, or one pass per run of rows sharing
  // a lane view. Row b reads lane_views[b], or `shared` where that is null
  // or absent.
  template <typename View>
  Tensor forward_rows(const Tensor& input, std::size_t batch,
                      std::span<const View* const> lane_views,
                      const View* shared) const;

  // forward_inner of one sample as a width-1 batch: (..., 1) has the
  // sample's own layout, so no transpose is needed.
  Tensor forward_one(const Tensor& input, WeightSource plane) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  // Flat parameter offset per layer (the coordinate system WeightView
  // overlays index) + running total. Maintained eagerly by add(), so
  // concurrent read-only forwards never race on a lazy cache.
  std::vector<std::size_t> layer_offsets_;
  std::size_t param_total_ = 0;
  std::function<void(std::size_t, Tensor&)> activation_hook_;
  // parameters() result cached per topology; invalidated by add().
  mutable std::vector<Parameter*> param_cache_;
  mutable bool param_cache_valid_ = false;
};

}  // namespace frlfi

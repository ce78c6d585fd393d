#pragma once
// NN layers with forward and backward passes.
//
// The layer zoo covers exactly what the paper's policies need: Conv2D,
// ReLU, MaxPool2D, Flatten and Dense. Parameters of a layer live in one
// contiguous float vector (weights then biases) so the quantized engine
// can map every parametered layer onto a slice of the accelerator's
// weight buffer and target faults at "Conv1" vs "FC2" (Fig. 7d).
//
// Conv2D and Dense run their forward and backward arithmetic, and
// MaxPool2D its forward, through the dispatched kernels
// (nn/kernels/kernels.h), the same code the quantized engine runs, so FTNAV_SIMD selects the training kernels
// too and every backend trains bit-identical parameters. For backends
// that read a transposed weight copy, each layer keeps one, built on
// the first forward after its parameters change.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/kernels/kernels.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace ftnav {

enum class LayerKind : std::uint8_t {
  kConv2D,
  kReLU,
  kMaxPool2D,
  kFlatten,
  kDense,
};

std::string to_string(LayerKind kind);

/// Abstract layer. Forward caches whatever backward needs; backward
/// consumes the loss gradient w.r.t. the output and returns the gradient
/// w.r.t. the input while accumulating parameter gradients.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const noexcept = 0;
  /// Output shape for a given (validated) input shape; throws
  /// std::invalid_argument when the input shape is unsupported.
  virtual Shape output_shape(const Shape& in) const = 0;

  virtual Tensor forward(const Tensor& input) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;
  /// backward() without the input gradient: accumulates the parameter
  /// gradients only. Network::backward calls it on the first layer,
  /// whose input gradient nobody reads.
  virtual void backward_parameters(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Parameters as a flat mutable span (weights then biases); empty for
  /// parameter-free layers. Calling it marks the parameters as changed,
  /// so write through the span before the next forward() and call
  /// parameters() again to write after one.
  virtual std::span<float> parameters() { return {}; }
  virtual std::span<const float> parameters() const { return {}; }
  virtual std::span<float> gradients() { return {}; }

  /// SGD step: params -= lr * grads, then clears the gradients.
  virtual void apply_gradients(float /*lr*/) {}
  virtual void zero_gradients() {}

  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Display label ("Conv1", "FC2", ...) used in figure axes.
  const std::string& label() const noexcept { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

 protected:
  std::string label_;
};

/// The transposed weight copy wt[fan_in][out] a layer hands the kernels
/// when the active backend reads one. get() rebuilds it after
/// invalidate(); copies start empty, so a clone() never carries a copy
/// of the original's weights.
class TransposedWeights {
 public:
  TransposedWeights() = default;
  TransposedWeights(const TransposedWeights&) noexcept {}
  TransposedWeights& operator=(const TransposedWeights&) noexcept {
    invalidate();
    return *this;
  }

  void invalidate() noexcept { valid_ = false; }
  /// `weights` holds `out` rows of `fan_in` values.
  const float* get(std::span<const float> weights, int out, int fan_in);
  /// Keeps a built copy in step with one weight write, w[row][col] =
  /// `value` in a layer of `out` rows; an unbuilt copy is left for
  /// get() to rebuild.
  void set(std::size_t row, std::size_t col, int out, float value) noexcept {
    if (valid_) wt_[col * static_cast<std::size_t>(out) + row] = value;
  }

 private:
  std::vector<float> wt_;
  bool valid_ = false;
};

/// 2-D convolution (no padding, square kernel, square stride).
class Conv2D final : public Layer {
 public:
  /// He-normal initialization from `rng`.
  Conv2D(int in_channels, int out_channels, int kernel, int stride, Rng& rng);

  LayerKind kind() const noexcept override { return LayerKind::kConv2D; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_parameters(const Tensor& grad_output) override;
  std::span<float> parameters() override {
    transposed_.invalidate();
    return params_;
  }
  std::span<const float> parameters() const override { return params_; }
  std::span<float> gradients() override { return grads_; }
  void apply_gradients(float lr) override;
  void zero_gradients() override;
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const noexcept { return in_channels_; }
  int out_channels() const noexcept { return out_channels_; }
  int kernel() const noexcept { return kernel_; }
  int stride() const noexcept { return stride_; }

 private:
  std::size_t weight_count() const noexcept {
    return params_.size() - static_cast<std::size_t>(out_channels_);
  }
  /// Kernel geometry for input shape `in` (validated).
  kernels::ConvShape kernel_shape(const Shape& in) const;

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  std::vector<float> params_;  // weights then biases
  std::vector<float> grads_;
  Tensor cached_input_;
  TransposedWeights transposed_;
};

/// Rectified linear unit.
class ReLU final : public Layer {
 public:
  LayerKind kind() const noexcept override { return LayerKind::kReLU; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_input_;
};

/// Non-overlapping max pooling with a square window.
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(int window);

  LayerKind kind() const noexcept override { return LayerKind::kMaxPool2D; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

  int window() const noexcept { return window_; }

 private:
  int window_;
  Shape cached_input_shape_{};
  std::vector<std::uint32_t> argmax_;  // flat input index per output cell
};

/// Reshapes CHW into a flat vector.
class Flatten final : public Layer {
 public:
  LayerKind kind() const noexcept override { return LayerKind::kFlatten; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_input_shape_{};
};

/// Fully connected layer on flat inputs.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, Rng& rng);

  LayerKind kind() const noexcept override { return LayerKind::kDense; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& input) override;
  /// Forward for the one-hot input whose 1 is at `index`: out = bias +
  /// W[:, index], a column gather instead of in*out multiply-adds.
  /// Bit-identical to forward() on that one-hot tensor when every
  /// parameter is finite and no bias is -0.0 (true of parameters decoded
  /// from fixed-point words): each skipped w*0 adds a zero to a finite,
  /// non-negative-zero accumulator. The next backward() then accumulates
  /// gradients into the biases and that column only, and returns an
  /// empty input gradient. Throws std::invalid_argument if `index` is
  /// not below in_features().
  Tensor forward_one_hot(std::size_t index);
  Tensor backward(const Tensor& grad_output) override;
  void backward_parameters(const Tensor& grad_output) override;
  std::span<float> parameters() override {
    transposed_.invalidate();
    return params_;
  }
  std::span<const float> parameters() const override { return params_; }
  /// Writes parameter `index` (weights then biases, as parameters()
  /// orders them) and the matching element of a built transposed copy,
  /// so a trainer that rewrites a few words per step does not make the
  /// next forward() re-transpose the whole layer. `index` must be below
  /// parameters().size().
  void set_parameter(std::size_t index, float value) noexcept {
    params_[index] = value;
    if (index < weight_count()) {
      const auto in = static_cast<std::size_t>(in_features_);
      transposed_.set(index / in, index % in, out_features_, value);
    }
  }
  std::span<float> gradients() override { return grads_; }
  void apply_gradients(float lr) override;
  void zero_gradients() override;
  std::unique_ptr<Layer> clone() const override;

  int in_features() const noexcept { return in_features_; }
  int out_features() const noexcept { return out_features_; }

 private:
  static constexpr std::size_t kNoHotIndex = static_cast<std::size_t>(-1);

  std::size_t weight_count() const noexcept {
    return params_.size() - static_cast<std::size_t>(out_features_);
  }

  int in_features_;
  int out_features_;
  std::vector<float> params_;  // row-major [out][in] weights, then biases
  std::vector<float> grads_;
  Tensor cached_input_;
  std::size_t hot_index_ = kNoHotIndex;  // set by forward_one_hot
  TransposedWeights transposed_;
};

}  // namespace ftnav

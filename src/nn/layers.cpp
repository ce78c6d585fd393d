#include "nn/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace ftnav {

std::string to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2D: return "Conv2D";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kMaxPool2D: return "MaxPool2D";
    case LayerKind::kFlatten: return "Flatten";
    case LayerKind::kDense: return "Dense";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0)
    throw std::invalid_argument("Conv2D: non-positive dimension");
  const std::size_t weight_count = static_cast<std::size_t>(out_channels) *
                                   in_channels * kernel * kernel;
  params_.resize(weight_count + static_cast<std::size_t>(out_channels));
  grads_.assign(params_.size(), 0.0f);
  const double fan_in = static_cast<double>(in_channels) * kernel * kernel;
  const double sigma = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < weight_count; ++i)
    params_[i] = static_cast<float>(rng.normal(0.0, sigma));
  // Biases start at zero (already value-initialized by resize).
}

Shape Conv2D::output_shape(const Shape& in) const {
  if (in.channels != in_channels_)
    throw std::invalid_argument("Conv2D: channel mismatch");
  if (in.height < kernel_ || in.width < kernel_)
    throw std::invalid_argument("Conv2D: input smaller than kernel");
  return Shape{out_channels_, (in.height - kernel_) / stride_ + 1,
               (in.width - kernel_) / stride_ + 1};
}

kernels::ConvShape Conv2D::kernel_shape(const Shape& in) const {
  const Shape out = output_shape(in);
  return kernels::ConvShape{in.channels, in.height,  in.width, out.channels,
                            out.height,  out.width, kernel_,  stride_};
}

Tensor Conv2D::forward(const Tensor& input) {
  const kernels::ConvShape s = kernel_shape(input.shape());
  cached_input_ = input;
  Tensor out(Shape{s.out_c, s.out_h, s.out_w});
  const kernels::KernelOps& ops = kernels::active();
  const float* wt = ops.conv_wants_transposed
                        ? transposed_.get(params_, out_channels_,
                                          in_channels_ * kernel_ * kernel_)
                        : nullptr;
  ops.conv2d(params_.data(), wt, params_.data() + weight_count(),
             input.data(), out.data(), s);
  return out;
}

void Conv2D::backward_parameters(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw std::logic_error("Conv2D::backward before forward");
  const kernels::ConvShape s = kernel_shape(cached_input_.shape());
  if (grad_output.shape() != Shape{s.out_c, s.out_h, s.out_w})
    throw std::invalid_argument("Conv2D::backward: gradient shape mismatch");
  kernels::active().conv2d_weight_grad(grad_output.data(),
                                       cached_input_.data(), grads_.data(),
                                       grads_.data() + weight_count(), s);
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  backward_parameters(grad_output);
  Tensor grad_input(cached_input_.shape());
  kernels::active().conv2d_input_grad(grad_output.data(), params_.data(),
                                      grad_input.data(),
                                      kernel_shape(cached_input_.shape()));
  return grad_input;
}

void Conv2D::apply_gradients(float lr) {
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i] -= lr * grads_[i];
  transposed_.invalidate();
  zero_gradients();
}

void Conv2D::zero_gradients() {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
}

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::make_unique<Conv2D>(*this);
}

// ------------------------------------------------------ TransposedWeights

const float* TransposedWeights::get(std::span<const float> weights, int out,
                                    int fan_in) {
  if (!valid_) {
    wt_.resize(static_cast<std::size_t>(out) * fan_in);
    kernels::transpose(weights.data(), wt_.data(), out, fan_in);
    valid_ = true;
  }
  return wt_.data();
}

// ------------------------------------------------------------------ ReLU

Shape ReLU::output_shape(const Shape& in) const {
  if (!in.valid()) throw std::invalid_argument("ReLU: invalid input shape");
  return in;
}

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  kernels::active().relu(out.data(), out.size());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty())
    throw std::logic_error("ReLU::backward before forward");
  // A branchless select: g's bits masked by the compare, so the result
  // is g where the input was positive and +0 elsewhere. Never g * mask,
  // which turns a negative g into -0 and an infinite one into NaN.
  Tensor grad_input(cached_input_.shape());
  const float* in = cached_input_.data();
  const float* g = grad_output.data();
  float* out = grad_input.data();
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    const std::uint32_t keep = -static_cast<std::uint32_t>(in[i] > 0.0f);
    out[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) & keep);
  }
  return grad_input;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(*this);
}

// ------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(int window) : window_(window) {
  if (window <= 0) throw std::invalid_argument("MaxPool2D: window <= 0");
}

Shape MaxPool2D::output_shape(const Shape& in) const {
  if (in.height < window_ || in.width < window_)
    throw std::invalid_argument("MaxPool2D: input smaller than window");
  return Shape{in.channels, in.height / window_, in.width / window_};
}

Tensor MaxPool2D::forward(const Tensor& input) {
  const Shape out_shape = output_shape(input.shape());
  cached_input_shape_ = input.shape();
  Tensor out(out_shape);
  argmax_.resize(out.size());
  kernels::active().maxpool2d(input.data(), out.data(), argmax_.data(),
                              out_shape.channels, cached_input_shape_.height,
                              cached_input_shape_.width, window_);
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (!cached_input_shape_.valid())
    throw std::logic_error("MaxPool2D::backward before forward");
  Tensor grad_input(cached_input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i)
    grad_input[argmax_[i]] += grad_output[i];
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(*this);
}

// --------------------------------------------------------------- Flatten

Shape Flatten::output_shape(const Shape& in) const {
  if (!in.valid()) throw std::invalid_argument("Flatten: invalid input");
  return Shape{static_cast<int>(in.element_count()), 1, 1};
}

Tensor Flatten::forward(const Tensor& input) {
  cached_input_shape_ = input.shape();
  return Tensor(output_shape(input.shape()),
                std::vector<float>(input.values().begin(),
                                   input.values().end()));
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (!cached_input_shape_.valid())
    throw std::logic_error("Flatten::backward before forward");
  return Tensor(cached_input_shape_,
                std::vector<float>(grad_output.values().begin(),
                                   grad_output.values().end()));
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(*this);
}

// ----------------------------------------------------------------- Dense

Dense::Dense(int in_features, int out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Dense: non-positive feature count");
  const std::size_t weight_count =
      static_cast<std::size_t>(in_features) * out_features;
  params_.resize(weight_count + static_cast<std::size_t>(out_features));
  grads_.assign(params_.size(), 0.0f);
  const double sigma = std::sqrt(2.0 / static_cast<double>(in_features));
  for (std::size_t i = 0; i < weight_count; ++i)
    params_[i] = static_cast<float>(rng.normal(0.0, sigma));
}

Shape Dense::output_shape(const Shape& in) const {
  if (static_cast<int>(in.element_count()) != in_features_)
    throw std::invalid_argument("Dense: input feature count mismatch");
  return Shape{out_features_, 1, 1};
}

Tensor Dense::forward(const Tensor& input) {
  (void)output_shape(input.shape());
  cached_input_ = input;
  hot_index_ = kNoHotIndex;
  Tensor out(Shape{out_features_, 1, 1});
  const kernels::KernelOps& ops = kernels::active();
  const float* wt =
      ops.dense_wants_transposed
          ? transposed_.get(params_, out_features_, in_features_)
          : nullptr;
  ops.dense(params_.data(), wt, params_.data() + weight_count(), input.data(),
            out.data(), in_features_, out_features_);
  return out;
}

Tensor Dense::forward_one_hot(std::size_t index) {
  if (index >= static_cast<std::size_t>(in_features_))
    throw std::invalid_argument("Dense::forward_one_hot: index out of range");
  hot_index_ = index;
  Tensor out(Shape{out_features_, 1, 1});
  const std::size_t bias_base = params_.size() - out_features_;
  for (int o = 0; o < out_features_; ++o) {
    const std::size_t row = static_cast<std::size_t>(o) * in_features_;
    out[static_cast<std::size_t>(o)] =
        params_[bias_base + static_cast<std::size_t>(o)] +
        params_[row + index];
  }
  return out;
}

void Dense::backward_parameters(const Tensor& grad_output) {
  if (grad_output.size() != static_cast<std::size_t>(out_features_))
    throw std::invalid_argument("Dense::backward: gradient size mismatch");
  const std::size_t bias_base = weight_count();
  if (hot_index_ != kNoHotIndex) {
    for (int o = 0; o < out_features_; ++o) {
      const float g = grad_output[static_cast<std::size_t>(o)];
      if (g == 0.0f) continue;
      grads_[bias_base + static_cast<std::size_t>(o)] += g;
      grads_[static_cast<std::size_t>(o) * in_features_ + hot_index_] += g;
    }
    return;
  }
  if (cached_input_.empty())
    throw std::logic_error("Dense::backward before forward");
  kernels::active().dense_weight_grad(grad_output.data(),
                                      cached_input_.data(), grads_.data(),
                                      grads_.data() + bias_base, in_features_,
                                      out_features_);
}

Tensor Dense::backward(const Tensor& grad_output) {
  backward_parameters(grad_output);
  if (hot_index_ != kNoHotIndex) return Tensor();
  Tensor grad_input(cached_input_.shape());
  kernels::active().dense_input_grad(grad_output.data(), params_.data(),
                                     grad_input.data(), in_features_,
                                     out_features_);
  return grad_input;
}

void Dense::apply_gradients(float lr) {
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i] -= lr * grads_[i];
  transposed_.invalidate();
  zero_gradients();
}

void Dense::zero_gradients() {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace ftnav

// The loop bodies below are the original Conv2d / Linear / MaxPool2d loops
// unchanged;
// locals carry the original member names (in_channels_, stride_, ...) so
// they read verbatim.
#include "nn_reference.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace fptc::nn::reference {

Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                      std::size_t stride_)
{
    const std::size_t in_channels_ = weight.dim(1);
    const std::size_t out_channels_ = weight.dim(0);
    const std::size_t kernel_size_ = weight.dim(2);
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = (h - kernel_size_) / stride_ + 1;
    const std::size_t out_w = (w - kernel_size_) / stride_ + 1;
    Tensor output({batch, out_channels_, out_h, out_w});

    const auto x = input.data();
    const auto kernel = weight.data();
    const auto b = bias.data();
    auto y = output.data();

    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;
    const std::size_t kernel_plane = kernel_size_ * kernel_size_;

    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x.data() + n * in_channels_ * in_plane;
        float* y_n = y.data() + n * out_channels_ * out_plane;
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            const float* k_oc = kernel.data() + oc * in_channels_ * kernel_plane;
            float* y_oc = y_n + oc * out_plane;
            const float bias_value = b[oc];
            for (std::size_t oy = 0; oy < out_h; ++oy) {
                for (std::size_t ox = 0; ox < out_w; ++ox) {
                    float accum = bias_value;
                    const std::size_t iy0 = oy * stride_;
                    const std::size_t ix0 = ox * stride_;
                    for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                        const float* x_ic = x_n + ic * in_plane;
                        const float* k_ic = k_oc + ic * kernel_plane;
                        for (std::size_t ky = 0; ky < kernel_size_; ++ky) {
                            const float* x_row = x_ic + (iy0 + ky) * w + ix0;
                            const float* k_row = k_ic + ky * kernel_size_;
                            for (std::size_t kx = 0; kx < kernel_size_; ++kx) {
                                accum += x_row[kx] * k_row[kx];
                            }
                        }
                    }
                    y_oc[oy * out_w + ox] = accum;
                }
            }
        }
    }
    return output;
}

Tensor conv2d_backward(const Tensor& input, const Tensor& weight, Tensor& weight_grad,
                       Tensor& bias_grad, const Tensor& grad_output, std::size_t stride_)
{
    const std::size_t in_channels_ = weight.dim(1);
    const std::size_t out_channels_ = weight.dim(0);
    const std::size_t kernel_size_ = weight.dim(2);
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = (h - kernel_size_) / stride_ + 1;
    const std::size_t out_w = (w - kernel_size_) / stride_ + 1;

    Tensor grad_input(input.shape());
    const auto x = input.data();
    const auto kernel = weight.data();
    auto gk = weight_grad.data();
    auto gb = bias_grad.data();
    const auto gy = grad_output.data();
    auto gx = grad_input.data();

    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;
    const std::size_t kernel_plane = kernel_size_ * kernel_size_;

    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x.data() + n * in_channels_ * in_plane;
        float* gx_n = gx.data() + n * in_channels_ * in_plane;
        const float* gy_n = gy.data() + n * out_channels_ * out_plane;
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            const float* k_oc = kernel.data() + oc * in_channels_ * kernel_plane;
            float* gk_oc = gk.data() + oc * in_channels_ * kernel_plane;
            const float* gy_oc = gy_n + oc * out_plane;
            for (std::size_t oy = 0; oy < out_h; ++oy) {
                for (std::size_t ox = 0; ox < out_w; ++ox) {
                    const float g = gy_oc[oy * out_w + ox];
                    if (g == 0.0f) {
                        continue;
                    }
                    gb[oc] += g;
                    const std::size_t iy0 = oy * stride_;
                    const std::size_t ix0 = ox * stride_;
                    for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                        const float* x_ic = x_n + ic * in_plane;
                        float* gx_ic = gx_n + ic * in_plane;
                        const float* k_ic = k_oc + ic * kernel_plane;
                        float* gk_ic = gk_oc + ic * kernel_plane;
                        for (std::size_t ky = 0; ky < kernel_size_; ++ky) {
                            const float* x_row = x_ic + (iy0 + ky) * w + ix0;
                            float* gx_row = gx_ic + (iy0 + ky) * w + ix0;
                            const float* k_row = k_ic + ky * kernel_size_;
                            float* gk_row = gk_ic + ky * kernel_size_;
                            for (std::size_t kx = 0; kx < kernel_size_; ++kx) {
                                gk_row[kx] += g * x_row[kx];
                                gx_row[kx] += g * k_row[kx];
                            }
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias)
{
    const std::size_t out_features_ = weight.dim(0);
    const std::size_t in_features_ = weight.dim(1);
    const std::size_t batch = input.dim(0);
    Tensor output({batch, out_features_});
    const auto w = weight.data();
    const auto b = bias.data();
    const auto x = input.data();
    auto y = output.data();
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_row = x.data() + n * in_features_;
        float* y_row = y.data() + n * out_features_;
        for (std::size_t o = 0; o < out_features_; ++o) {
            const float* w_row = w.data() + o * in_features_;
            float accum = b[o];
            for (std::size_t i = 0; i < in_features_; ++i) {
                accum += w_row[i] * x_row[i];
            }
            y_row[o] = accum;
        }
    }
    return output;
}

Tensor linear_backward(const Tensor& input, const Tensor& weight, Tensor& weight_grad,
                       Tensor& bias_grad, const Tensor& grad_output)
{
    const std::size_t out_features_ = weight.dim(0);
    const std::size_t in_features_ = weight.dim(1);
    const std::size_t batch = input.dim(0);
    Tensor grad_input({batch, in_features_});
    const auto w = weight.data();
    auto gw = weight_grad.data();
    auto gb = bias_grad.data();
    const auto x = input.data();
    const auto gy = grad_output.data();
    auto gx = grad_input.data();
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_row = x.data() + n * in_features_;
        const float* gy_row = gy.data() + n * out_features_;
        float* gx_row = gx.data() + n * in_features_;
        for (std::size_t o = 0; o < out_features_; ++o) {
            const float g = gy_row[o];
            gb[o] += g;
            const float* w_row = w.data() + o * in_features_;
            float* gw_row = gw.data() + o * in_features_;
            for (std::size_t i = 0; i < in_features_; ++i) {
                gw_row[i] += g * x_row[i];
                gx_row[i] += g * w_row[i];
            }
        }
    }
    return grad_input;
}

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * ldc + j];
            for (std::size_t p = 0; p < k; ++p) {
                acc += a[i * lda + p] * b[p * ldb + j];
            }
            c[i * ldc + j] = acc;
        }
    }
}

Tensor max_pool2d_forward(const Tensor& input, std::size_t window_,
                          std::vector<std::size_t>& argmax_)
{
    const std::size_t batch = input.dim(0);
    const std::size_t channels = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h / window_;
    const std::size_t out_w = w / window_;
    Tensor output({batch, channels, out_h, out_w});
    argmax_.assign(output.size(), 0);

    const auto x = input.data();
    auto y = output.data();
    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;
    for (std::size_t nc = 0; nc < batch * channels; ++nc) {
        const float* x_plane = x.data() + nc * in_plane;
        float* y_plane = y.data() + nc * out_plane;
        std::size_t* arg_plane = argmax_.data() + nc * out_plane;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            for (std::size_t ox = 0; ox < out_w; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                std::size_t best_index = 0;
                for (std::size_t wy = 0; wy < window_; ++wy) {
                    for (std::size_t wx = 0; wx < window_; ++wx) {
                        const std::size_t idx = (oy * window_ + wy) * w + (ox * window_ + wx);
                        if (x_plane[idx] > best) {
                            best = x_plane[idx];
                            best_index = idx;
                        }
                    }
                }
                // The first NaN of the window, row by row, wins.
                bool nan_found = false;
                for (std::size_t wy = 0; wy < window_ && !nan_found; ++wy) {
                    for (std::size_t wx = 0; wx < window_ && !nan_found; ++wx) {
                        const std::size_t idx = (oy * window_ + wy) * w + (ox * window_ + wx);
                        if (std::isnan(x_plane[idx])) {
                            best = x_plane[idx];
                            best_index = idx;
                            nan_found = true;
                        }
                    }
                }
                y_plane[oy * out_w + ox] = best;
                arg_plane[oy * out_w + ox] = nc * in_plane + best_index;
            }
        }
    }
    return output;
}

namespace {

/// A copy of `source` (value and accumulated gradient).
Parameter copy_of(const Parameter& source)
{
    Parameter copy(source.value, source.name);
    copy.grad = source.grad;
    return copy;
}

} // namespace

RefConv2d::RefConv2d(Conv2d& source)
    : stride_(source.stride()),
      weight_(copy_of(*source.parameters()[0])),
      bias_(copy_of(*source.parameters()[1]))
{
}

Tensor RefConv2d::forward(const Tensor& input, bool /*training*/)
{
    input_cache_ = input;
    return conv2d_forward(input, weight_.value, bias_.value, stride_);
}

Tensor RefConv2d::backward(const Tensor& grad_output)
{
    return conv2d_backward(input_cache_, weight_.value, weight_.grad, bias_.grad, grad_output,
                           stride_);
}

RefLinear::RefLinear(Linear& source)
    : weight_(copy_of(*source.parameters()[0])), bias_(copy_of(*source.parameters()[1]))
{
}

Tensor RefLinear::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 2 || input.dim(1) != weight_.value.dim(1)) {
        throw std::invalid_argument("RefLinear::forward: bad input " + input.shape_string());
    }
    input_cache_ = input;
    return linear_forward(input, weight_.value, bias_.value);
}

Tensor RefLinear::backward(const Tensor& grad_output)
{
    return linear_backward(input_cache_, weight_.value, weight_.grad, bias_.grad, grad_output);
}

Tensor RefMaxPool2d::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 4) {
        throw std::invalid_argument("RefMaxPool2d::forward: bad input " + input.shape_string());
    }
    input_shape_ = input.shape();
    return max_pool2d_forward(input, window_, argmax_);
}

Tensor RefMaxPool2d::backward(const Tensor& grad_output)
{
    Tensor grad_input(input_shape_);
    auto gx = grad_input.data();
    const auto gy = grad_output.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        gx[argmax_[i]] += gy[i];
    }
    return grad_input;
}

} // namespace fptc::nn::reference

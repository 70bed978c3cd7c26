#include "fptc/nn/conv.hpp"

#include "fptc/util/rng.hpp"

#include "gemm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fptc::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
               std::uint64_t seed, std::size_t stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      weight_(Tensor({out_channels, in_channels, kernel_size, kernel_size}), "weight"),
      bias_(Tensor({out_channels}), "bias")
{
    if (in_channels == 0 || out_channels == 0 || kernel_size == 0 || stride == 0) {
        throw std::invalid_argument("Conv2d: zero-sized configuration");
    }
    util::Rng rng(seed);
    const double fan_in = static_cast<double>(in_channels * kernel_size * kernel_size);
    const auto limit = static_cast<float>(std::sqrt(6.0 / fan_in));
    for (auto& w : weight_.value.data()) {
        w = static_cast<float>(rng.uniform(-limit, limit));
    }
}

namespace {

/// Output geometry of one valid convolution.
struct ConvShape {
    std::size_t channels; ///< C_in
    std::size_t h, w;
    std::size_t kernel;
    std::size_t stride;
    std::size_t out_h, out_w;

    [[nodiscard]] std::size_t taps() const noexcept { return channels * kernel * kernel; }
    [[nodiscard]] std::size_t positions() const noexcept { return out_h * out_w; }
};

ConvShape conv_shape(std::size_t channels, std::size_t h, std::size_t w, std::size_t kernel,
                     std::size_t stride) noexcept
{
    return {channels, h, w, kernel, stride, (h - kernel) / stride + 1, (w - kernel) / stride + 1};
}

/// im2col of one sample: element (tap, position) -- tap = (ic, ky, kx) in
/// that order, position = oy * out_w + ox -- is
/// x[ic][oy * stride + ky][ox * stride + kx], stored at
/// col[tap * tap_stride + position * position_stride].  Forward lays the
/// matrix out taps × positions, backward positions × taps.
void im2col(const float* x, const ConvShape& s, float* col, std::size_t tap_stride,
            std::size_t position_stride) noexcept
{
    std::size_t tap = 0;
    for (std::size_t ic = 0; ic < s.channels; ++ic) {
        for (std::size_t ky = 0; ky < s.kernel; ++ky) {
            for (std::size_t kx = 0; kx < s.kernel; ++kx, ++tap) {
                float* dst = col + tap * tap_stride;
                for (std::size_t oy = 0; oy < s.out_h; ++oy) {
                    const float* src = x + (ic * s.h + oy * s.stride + ky) * s.w + kx;
                    float* dst_row = dst + oy * s.out_w * position_stride;
                    for (std::size_t ox = 0; ox < s.out_w; ++ox) {
                        dst_row[ox * position_stride] = src[ox * s.stride];
                    }
                }
            }
        }
    }
}

} // namespace

Tensor Conv2d::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 4 || input.dim(1) != in_channels_) {
        throw std::invalid_argument("Conv2d::forward: expected [N, " + std::to_string(in_channels_) +
                                    ", H, W], got " + input.shape_string());
    }
    const std::size_t batch = input.dim(0);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    if (h < kernel_size_ || w < kernel_size_) {
        throw std::invalid_argument("Conv2d::forward: input smaller than kernel");
    }
    input_cache_ = input;
    const ConvShape s = conv_shape(in_channels_, h, w, kernel_size_, stride_);
    const std::size_t taps = s.taps();
    const std::size_t positions = s.positions();
    Tensor output({batch, out_channels_, s.out_h, s.out_w});
    float* col = columns(taps * positions);

    const float* x = input.data().data();
    const float* kernel = weight_.value.data().data();
    const auto b = bias_.value.data();
    float* y = output.data().data();

    // Per sample: Y[oc][p] = bias[oc] + sum over taps in (ic, ky, kx) order,
    // as W [C_out × taps] · col [taps × positions] onto a bias-filled Y.
    for (std::size_t n = 0; n < batch; ++n) {
        im2col(x + n * in_channels_ * h * w, s, col, positions, 1);
        float* y_n = y + n * out_channels_ * positions;
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            std::fill_n(y_n + oc * positions, positions, b[oc]);
        }
        detail::gemm_acc(out_channels_, positions, taps, kernel, taps, col, positions, y_n,
                         positions);
    }
    return output;
}

Tensor Conv2d::backward(const Tensor& grad_output)
{
    const std::size_t batch = input_cache_.dim(0);
    const std::size_t h = input_cache_.dim(2);
    const std::size_t w = input_cache_.dim(3);
    const ConvShape s = conv_shape(in_channels_, h, w, kernel_size_, stride_);
    if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
        grad_output.dim(1) != out_channels_ || grad_output.dim(2) != s.out_h ||
        grad_output.dim(3) != s.out_w) {
        throw std::invalid_argument("Conv2d::backward: bad grad shape " + grad_output.shape_string());
    }
    const std::size_t taps = s.taps();
    const std::size_t positions = s.positions();
    const std::size_t in_plane = h * w;
    const std::size_t kernel_plane = kernel_size_ * kernel_size_;

    // The spread gY grid below, up to its last nonzero; never past the plane.
    const std::size_t spread_size = ((s.out_h - 1) * w + s.out_w - 1) * stride_ + 1;

    Tensor grad_input(input_cache_.shape());
    float* col = columns(std::max(taps * positions, spread_size));
    const float* x = input_cache_.data().data();
    const float* kernel = weight_.value.data().data();
    float* gk = weight_.grad.data().data();
    auto gb = bias_.grad.data();
    const float* gy = grad_output.data().data();
    float* gx = grad_input.data().data();

    // Every gradient element gets its terms in the order of a direct loop
    // over (n, oc, oy, ox).  Zero terms of grad_output are added rather
    // than skipped: for finite inputs and weights g * v is then +-0, and
    // adding +-0 changes no sum that started at +0, so the skip is exact.
    for (std::size_t n = 0; n < batch; ++n) {
        const float* gy_n = gy + n * out_channels_ * positions;
        float* gx_n = gx + n * in_channels_ * in_plane;

        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            for (std::size_t p = 0; p < positions; ++p) {
                gb[oc] += gy_n[oc * positions + p];
            }
        }

        // dW [C_out × taps] += gY_n [C_out × positions] · col^T [positions × taps].
        im2col(x + n * in_channels_ * in_plane, s, col, 1, taps);
        detail::gemm_acc(out_channels_, taps, positions, gy_n, positions, col, taps, gk, taps);

        // dX: a direct loop, not GEMM + col2im, which would sum over oc per
        // position and so reorder each element's terms.  Per oc, gY is
        // spread onto the input grid (gy[oy][ox] at (oy·stride, ox·stride),
        // zeros between) and every tap adds kernel[tap] times that grid,
        // shifted by (ky, kx), in one contiguous pass.  A tap reaches an
        // input element at most once, from (oy, ox) = ((iy - ky) / stride,
        // (ix - kx) / stride), so taps in descending (ky, kx) order hand
        // each element its terms in ascending (oy, ox).
        float* spread = col; // col^T is consumed by the GEMM above
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            std::fill_n(spread, spread_size, 0.0f);
            for (std::size_t oy = 0; oy < s.out_h; ++oy) {
                for (std::size_t ox = 0; ox < s.out_w; ++ox) {
                    spread[(oy * w + ox) * stride_] = gy_n[oc * positions + oy * s.out_w + ox];
                }
            }
            for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                const float* k_ic = kernel + (oc * in_channels_ + ic) * kernel_plane;
                float* gx_ic = gx_n + ic * in_plane;
                for (std::size_t tap = kernel_plane; tap-- > 0;) {
                    const float kv = k_ic[tap];
                    float* dst = gx_ic + tap / kernel_size_ * w + tap % kernel_size_;
                    for (std::size_t q = 0; q < spread_size; ++q) {
                        dst[q] += spread[q] * kv;
                    }
                }
            }
        }
    }
    return grad_input;
}

float* Conv2d::columns(std::size_t size)
{
    if (columns_.size() < size) {
        columns_ = Tensor({size});
    }
    return columns_.data().data();
}

MaxPool2d::MaxPool2d(std::size_t window) : window_(window)
{
    if (window == 0) {
        throw std::invalid_argument("MaxPool2d: window must be > 0");
    }
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 4) {
        throw std::invalid_argument("MaxPool2d::forward: expected [N, C, H, W]");
    }
    input_shape_ = input.shape();
    const std::size_t batch = input.dim(0);
    const std::size_t channels = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t out_h = h / window_;
    const std::size_t out_w = w / window_;
    if (out_h == 0 || out_w == 0) {
        throw std::invalid_argument("MaxPool2d::forward: input smaller than window");
    }
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
                y_plane[oy * out_w + ox] = best;
                arg_plane[oy * out_w + ox] = nc * in_plane + best_index;
            }
        }
    }
    return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output)
{
    if (grad_output.size() != argmax_.size()) {
        throw std::invalid_argument("MaxPool2d::backward: grad size mismatch");
    }
    Tensor grad_input(input_shape_);
    auto gx = grad_input.data();
    const auto gy = grad_output.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        gx[argmax_[i]] += gy[i];
    }
    return grad_input;
}

} // namespace fptc::nn

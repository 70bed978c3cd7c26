#include "fptc/nn/conv.hpp"

#include "fptc/util/rng.hpp"

#include "gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace fptc::nn {

using detail::kLanes;
using detail::load;
using detail::store;
using detail::v4f;

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

using detail::ConvShape;

ConvShape conv_shape(std::size_t channels, std::size_t h, std::size_t w, std::size_t kernel,
                     std::size_t stride) noexcept
{
    return {channels, h, w, kernel, stride, (h - kernel) / stride + 1, (w - kernel) / stride + 1};
}

/// im2col of one sample, taps × positions: row tap = (ic, ky, kx) in that
/// order, column position = oy * out_w + ox, element
/// x[ic][oy * stride + ky][ox * stride + kx].
void im2col(const float* x, const ConvShape& s, float* col) noexcept
{
    const std::size_t positions = s.out_h * s.out_w;
    std::size_t tap = 0;
    for (std::size_t ic = 0; ic < s.channels; ++ic) {
        for (std::size_t ky = 0; ky < s.kernel; ++ky) {
            for (std::size_t kx = 0; kx < s.kernel; ++kx, ++tap) {
                float* dst = col + tap * positions;
                for (std::size_t oy = 0; oy < s.out_h; ++oy) {
                    const float* src = x + (ic * s.h + oy * s.stride + ky) * s.w + kx;
                    float* dst_row = dst + oy * s.out_w;
                    std::size_t ox = 0;
                    if (s.stride == 1) { // LeNet's: a contiguous run, by vector
                        for (; ox + kLanes <= s.out_w; ox += kLanes) {
                            store(dst_row + ox, load<v4f>(src + ox));
                        }
                    }
                    for (; ox < s.out_w; ++ox) {
                        dst_row[ox] = src[ox * s.stride];
                    }
                }
            }
        }
    }
}

/// Sets `index` to the first NaN, row by row, of the window at x + origin
/// (row stride w); false, leaving `index` alone, when it holds none.
bool first_nan(const float* x, std::size_t origin, std::size_t window, std::size_t w,
               std::size_t& index) noexcept
{
    for (std::size_t wy = 0; wy < window; ++wy) {
        for (std::size_t wx = 0; wx < window; ++wx) {
            if (std::isnan(x[origin + wy * w + wx])) {
                index = origin + wy * w + wx;
                return true;
            }
        }
    }
    return false;
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
    const std::size_t taps = in_channels_ * kernel_size_ * kernel_size_;
    const std::size_t positions = s.out_h * s.out_w;
    Tensor output({batch, out_channels_, s.out_h, s.out_w});

    const float* x = input.data().data();
    const float* kernel = weight_.value.data().data();
    const auto b = bias_.value.data();
    float* y = output.data().data();

    // One input plane at stride 1 (conv1): every output straight from the
    // input rows, its taps in the GEMM's order.  For conv2 the direct walk
    // was 8% faster on AVX2 and 25% slower at the baseline, where a row of
    // 10 outputs fills 10 of 16 lanes, so more planes keep the GEMM.
    if (in_channels_ == 1 && stride_ == 1) {
        detail::conv1_forward(batch, out_channels_, h, w, kernel_size_, x, kernel, b.data(), y);
        return output;
    }

    // Per sample: Y[oc][p] = bias[oc] + sum over taps in (ic, ky, kx) order,
    // as W [C_out × taps] · col [taps × positions] onto a bias-filled Y.
    float* col = columns(taps * positions);
    for (std::size_t n = 0; n < batch; ++n) {
        im2col(x + n * in_channels_ * h * w, s, col);
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
    const std::size_t positions = s.out_h * s.out_w;
    const std::size_t sample = in_channels_ * h * w;
    const std::size_t weights = in_channels_ * kernel_size_ * kernel_size_; // per oc
    if (sample > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("Conv2d::backward: input sample too large");
    }

    Tensor grad_input = input_gradient_ ? Tensor(input_cache_.shape()) : Tensor{};
    float* list = columns(2 * positions);
    const float* x = input_cache_.data().data();
    const float* kernel = weight_.value.data().data();
    float* gk = weight_.grad.data().data();
    float* gb = bias_.grad.data().data();
    const float* gy = grad_output.data().data();
    float* gx = grad_input.data().data();

    // The reference loop over (n, oc, oy, ox) skips g == 0, so each
    // gradient element's terms are the nonzero g in ascending (n, oc, oy,
    // ox), each a rounded product then a rounded add.  Per (n, oc) the
    // kernels walk exactly those nonzeros, in that order, into the bias and
    // weight rows (accumulators held in registers) and, scattered as g
    // times each kernel row, into the input gradient.
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x + n * sample;
        float* gx_n = gx + n * sample;
        for (std::size_t oc = 0; oc < out_channels_; ++oc) {
            const std::size_t count =
                detail::gather_nonzeros(gy + (n * out_channels_ + oc) * positions, s, list);
            if (count == 0) {
                continue;
            }
            detail::conv_weight_grad(list, count, x_n, (batch - n) * sample, s,
                                     gk + oc * weights, gb + oc);
            if (input_gradient_) {
                detail::conv_input_grad(list, count, kernel + oc * weights, gx_n,
                                        (batch - n) * sample, s);
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
    argmax_.resize(output.size()); // every path below writes each element

    const auto x = input.data();
    auto y = output.data();
    const std::size_t in_plane = h * w;
    const std::size_t out_plane = out_h * out_w;

    // LeNet's 2x2 window: vector selects that give the scan's value and
    // index (the kernel keeps plane offsets in 32-bit lanes).  A NaN wins
    // over every number, the first NaN of a window over later ones, as in
    // PyTorch; the selects cannot order one, so the kernel reports any it
    // meets and the scan below redoes the tensor.
    if (window_ == 2 && in_plane <= std::numeric_limits<std::int32_t>::max() &&
        !detail::max_pool_2x2(batch * channels, h, w, x.data(), y.data(), argmax_.data())) {
        return output;
    }

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
                if (first_nan(x_plane, oy * window_ * w + ox * window_, window_, w, best_index)) {
                    best = x_plane[best_index];
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

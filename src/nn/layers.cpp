#include "fptc/nn/layers.hpp"

#include "gemm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fptc::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, std::uint64_t seed)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor({out_features, in_features}), "weight"),
      bias_(Tensor({out_features}), "bias")
{
    if (in_features == 0 || out_features == 0) {
        throw std::invalid_argument("Linear: zero-sized layer");
    }
    util::Rng rng(seed);
    // He-uniform: U[-limit, limit], limit = sqrt(6 / fan_in).
    const auto limit = static_cast<float>(std::sqrt(6.0 / static_cast<double>(in_features)));
    auto weights = weight_.value.data();
    for (auto& w : weights) {
        w = static_cast<float>(rng.uniform(-limit, limit));
    }
}

Tensor Linear::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() != 2 || input.dim(1) != in_features_) {
        throw std::invalid_argument("Linear::forward: expected [N, " + std::to_string(in_features_) +
                                    "], got " + input.shape_string());
    }
    input_cache_ = input;
    const std::size_t batch = input.dim(0);
    const auto b = bias_.value.data();

    // Y^T [out × N] = bias + W [out × in] · X^T [in × N]: the tile runs
    // along the batch, and each y[n][o] sums b[o] + w[o][i] * x[n][i] in
    // ascending i.
    Tensor input_t({in_features_, batch});
    detail::transpose(batch, in_features_, input.data().data(), input_t.data().data());
    Tensor output_t({out_features_, batch});
    float* yt = output_t.data().data();
    for (std::size_t o = 0; o < out_features_; ++o) {
        std::fill_n(yt + o * batch, batch, b[o]);
    }
    detail::gemm_acc(out_features_, batch, in_features_, weight_.value.data().data(),
                     in_features_, input_t.data().data(), batch, yt, batch);

    Tensor output({batch, out_features_});
    detail::transpose(out_features_, batch, yt, output.data().data());
    return output;
}

Tensor Linear::backward(const Tensor& grad_output)
{
    const std::size_t batch = input_cache_.dim(0);
    if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
        grad_output.dim(1) != out_features_) {
        throw std::invalid_argument("Linear::backward: bad grad shape " + grad_output.shape_string());
    }
    const float* gy = grad_output.data().data();
    auto gb = bias_.grad.data();
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t o = 0; o < out_features_; ++o) {
            gb[o] += gy[n * out_features_ + o];
        }
    }

    // dW [out × in] += gY^T [out × N] · X [N × in], terms in ascending n.
    Tensor grad_output_t({out_features_, batch});
    detail::transpose(batch, out_features_, gy, grad_output_t.data().data());
    detail::gemm_acc(out_features_, in_features_, batch, grad_output_t.data().data(), batch,
                     input_cache_.data().data(), in_features_, weight_.grad.data().data(),
                     in_features_);

    // dX [N × in] = gY [N × out] · W [out × in], terms in ascending o.
    Tensor grad_input({batch, in_features_});
    detail::gemm_acc(batch, in_features_, out_features_, gy, out_features_,
                     weight_.value.data().data(), in_features_, grad_input.data().data(),
                     in_features_);
    return grad_input;
}

Tensor ReLU::forward(const Tensor& input, bool /*training*/)
{
    input_cache_ = input;
    Tensor output = input;
    // NaN passes through (as in PyTorch), so a diverged activation reaches
    // the loss instead of hiding as 0.
    for (auto& v : output.data()) {
        v = v <= 0.0f ? 0.0f : v;
    }
    return output;
}

Tensor ReLU::backward(const Tensor& grad_output)
{
    require_same_shape(grad_output, input_cache_, "ReLU::backward");
    Tensor grad_input = grad_output;
    const auto x = input_cache_.data();
    auto g = grad_input.data();
    // A select, not a conditional store: after MaxPool the zero pattern is
    // data-dependent and a branch on it mispredicts.
    for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] = x[i] <= 0.0f ? 0.0f : g[i];
    }
    return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/)
{
    if (input.rank() < 2) {
        throw std::invalid_argument("Flatten::forward: need at least rank 2");
    }
    input_shape_ = input.shape();
    const std::size_t batch = input.dim(0);
    return input.reshaped({batch, input.size() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output)
{
    return grad_output.reshaped(input_shape_);
}

Tensor Identity::forward(const Tensor& input, bool /*training*/)
{
    return input;
}

Tensor Identity::backward(const Tensor& grad_output)
{
    return grad_output;
}

Dropout::Dropout(double probability, std::uint64_t seed) : probability_(probability), rng_(seed)
{
    if (!(probability >= 0.0 && probability < 1.0)) {
        throw std::invalid_argument("Dropout: probability must be in [0, 1)");
    }
}

Tensor Dropout::forward(const Tensor& input, bool training)
{
    if (!training || probability_ == 0.0) {
        mask_ = Tensor{};
        return input;
    }
    mask_ = Tensor(input.shape());
    Tensor output = input;
    const auto scale = static_cast<float>(1.0 / (1.0 - probability_));
    auto m = mask_.data();
    auto y = output.data();
    for (std::size_t i = 0; i < y.size(); ++i) {
        if (rng_.bernoulli(probability_)) {
            m[i] = 0.0f;
            y[i] = 0.0f;
        } else {
            m[i] = scale;
            y[i] *= scale;
        }
    }
    return output;
}

Tensor Dropout::backward(const Tensor& grad_output)
{
    if (mask_.empty()) {
        return grad_output;
    }
    require_same_shape(grad_output, mask_, "Dropout::backward");
    Tensor grad_input = grad_output;
    const auto m = mask_.data();
    auto g = grad_input.data();
    for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] *= m[i];
    }
    return grad_input;
}

Dropout2d::Dropout2d(double probability, std::uint64_t seed) : probability_(probability), rng_(seed)
{
    if (!(probability >= 0.0 && probability < 1.0)) {
        throw std::invalid_argument("Dropout2d: probability must be in [0, 1)");
    }
}

Tensor Dropout2d::forward(const Tensor& input, bool training)
{
    if (!training || probability_ == 0.0) {
        mask_ = Tensor{};
        return input;
    }
    if (input.rank() != 4) {
        throw std::invalid_argument("Dropout2d::forward: expected [N, C, H, W]");
    }
    const std::size_t batch = input.dim(0);
    const std::size_t channels = input.dim(1);
    const std::size_t plane = input.dim(2) * input.dim(3);
    mask_ = Tensor({batch, channels});
    Tensor output = input;
    const auto scale = static_cast<float>(1.0 / (1.0 - probability_));
    auto m = mask_.data();
    auto y = output.data();
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t c = 0; c < channels; ++c) {
            const float keep = rng_.bernoulli(probability_) ? 0.0f : scale;
            m[n * channels + c] = keep;
            float* channel = y.data() + (n * channels + c) * plane;
            for (std::size_t i = 0; i < plane; ++i) {
                channel[i] *= keep;
            }
        }
    }
    return output;
}

Tensor Dropout2d::backward(const Tensor& grad_output)
{
    if (mask_.empty()) {
        return grad_output;
    }
    if (grad_output.rank() != 4) {
        throw std::invalid_argument("Dropout2d::backward: expected [N, C, H, W]");
    }
    const std::size_t batch = grad_output.dim(0);
    const std::size_t channels = grad_output.dim(1);
    const std::size_t plane = grad_output.dim(2) * grad_output.dim(3);
    Tensor grad_input = grad_output;
    const auto m = mask_.data();
    auto g = grad_input.data();
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t c = 0; c < channels; ++c) {
            const float keep = m[n * channels + c];
            float* channel = g.data() + (n * channels + c) * plane;
            for (std::size_t i = 0; i < plane; ++i) {
                channel[i] *= keep;
            }
        }
    }
    return grad_input;
}

} // namespace fptc::nn

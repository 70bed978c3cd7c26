// Convolution and pooling layers.
//
// LeNet-5 (App. C listing 1) needs only valid (unpadded) convolutions with
// square kernels and 2x2 max pooling.  Every kernel below runs on 8-lane
// AVX2 vectors where CPUID reports them and on the 4-lane x86-64 baseline
// elsewhere, and both widths give the same bits.  Conv2d forward with one
// input plane at stride 1 (conv1) computes each output row straight from
// the input rows; any other shape runs per sample as one register-blocked
// GEMM over an im2col buffer.  A 2x2 MaxPool2d takes a vector path that
// reports a NaN it cannot order, and only then scans.  Backward walks,
// per (n, oc), only the nonzero output-gradient elements -- after ReLU and
// MaxPool at least 3 in 4 are exact zeros -- accumulating weight-gradient
// rows in registers, one vector per kernel row, and scattering the input
// gradient with the lanes past each row masked off.  The im2col matrix
// and backward's nonzero list share the layer's one scratch buffer, reused
// across calls and charged to the memory budget.
// Every output and gradient element receives its terms in the order of the
// plain nested loop over (n, oc, oy, ox, ic, ky, kx), so results match
// that loop bit for bit; tests/nn_reference.cpp keeps it as the oracle
// (DESIGN.md "nn kernels").  For the 1500x1500 "full" architecture
// the model factory inserts an aggressive input pooling stage first (see
// models.hpp).
#pragma once

#include "fptc/nn/layer.hpp"

#include <cstdint>
#include <vector>

namespace fptc::nn {

/// 2-d convolution, stride `stride`, no padding:
/// input [N, C_in, H, W] -> output [N, C_out, (H-k)/stride+1, (W-k)/stride+1].
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_size,
           std::uint64_t seed, std::size_t stride = 1);

    [[nodiscard]] std::string name() const override { return "Conv2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

    [[nodiscard]] std::size_t in_channels() const noexcept { return in_channels_; }
    [[nodiscard]] std::size_t out_channels() const noexcept { return out_channels_; }
    [[nodiscard]] std::size_t kernel_size() const noexcept { return kernel_size_; }
    [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

    /// Whether backward() computes the input gradient (default true).  The
    /// model factory turns it off on the trunk's conv1, whose input is the
    /// flowpic, so nobody reads it; backward() then returns an empty Tensor.
    void set_input_gradient(bool needed) noexcept { input_gradient_ = needed; }
    [[nodiscard]] bool input_gradient() const noexcept { return input_gradient_; }

private:
    /// The scratch buffer, grown to at least `size` floats.
    [[nodiscard]] float* columns(std::size_t size);

    std::size_t in_channels_;
    std::size_t out_channels_;
    std::size_t kernel_size_;
    std::size_t stride_;
    Parameter weight_; ///< [C_out, C_in, k, k]
    Parameter bias_;   ///< [C_out]
    bool input_gradient_ = true;
    Tensor input_cache_;
    Tensor columns_; ///< one sample's im2col matrix, or backward's nonzero list
};

/// Max pooling with square window == stride (LeNet uses 2x2/2).
class MaxPool2d final : public Layer {
public:
    explicit MaxPool2d(std::size_t window);

    [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

    [[nodiscard]] std::size_t window() const noexcept { return window_; }

private:
    std::size_t window_;
    Shape input_shape_;
    std::vector<std::size_t> argmax_; ///< flat source index per output element
};

} // namespace fptc::nn

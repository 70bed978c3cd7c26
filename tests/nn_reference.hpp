// Test-only scalar oracle for the nn kernels.
//
// These are the original direct loops of Conv2d, Linear and MaxPool2d,
// kept verbatim as free functions so tests can check the optimized layers
// in src/nn against them bit for bit, plus the plain triple loop the GEMM
// kernel must reproduce.  RefConv2d / RefLinear / RefMaxPool2d wrap them as
// Layers with the same parameters as an optimized layer, so a whole network
// can be twinned (tests/test_nn_kernels.cpp).
#pragma once

#include "fptc/nn/conv.hpp"
#include "fptc/nn/layers.hpp"

#include <cstddef>
#include <vector>

namespace fptc::nn::reference {

/// input [N, C_in, H, W], weight [C_out, C_in, k, k], bias [C_out].
[[nodiscard]] Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                                    std::size_t stride);

/// Accumulates into weight_grad / bias_grad; returns the input gradient.
[[nodiscard]] Tensor conv2d_backward(const Tensor& input, const Tensor& weight,
                                     Tensor& weight_grad, Tensor& bias_grad,
                                     const Tensor& grad_output, std::size_t stride);

/// input [N, in], weight [out, in], bias [out].
[[nodiscard]] Tensor linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias);

/// Accumulates into weight_grad / bias_grad; returns the input gradient.
[[nodiscard]] Tensor linear_backward(const Tensor& input, const Tensor& weight,
                                     Tensor& weight_grad, Tensor& bias_grad,
                                     const Tensor& grad_output);

/// C[m×n] += A[m×k] · B[k×n], row-major with leading dimensions: per
/// element `acc = c; for (p) acc += a[p] * b[p];`.
void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc);

/// Max pooling with window == stride over input [N, C, H, W]; `argmax`
/// receives each output's flat source index in the input.
[[nodiscard]] Tensor max_pool2d_forward(const Tensor& input, std::size_t window,
                                        std::vector<std::size_t>& argmax);

/// A Conv2d running the reference loops, starting from a copy of
/// `source`'s geometry, weights, bias and gradients.
class RefConv2d final : public Layer {
public:
    explicit RefConv2d(Conv2d& source);

    [[nodiscard]] std::string name() const override { return "Conv2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

private:
    std::size_t stride_;
    Parameter weight_;
    Parameter bias_;
    Tensor input_cache_;
};

/// A Linear running the reference loops, starting from a copy of `source`.
class RefLinear final : public Layer {
public:
    explicit RefLinear(Linear& source);

    [[nodiscard]] std::string name() const override { return "Linear"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

private:
    Parameter weight_;
    Parameter bias_;
    Tensor input_cache_;
};

/// A MaxPool2d running the reference loop.
class RefMaxPool2d final : public Layer {
public:
    explicit RefMaxPool2d(std::size_t window) : window_(window) {}

    [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;

private:
    std::size_t window_;
    Shape input_shape_;
    std::vector<std::size_t> argmax_;
};

} // namespace fptc::nn::reference

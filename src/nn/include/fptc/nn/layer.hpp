// Layer interface and trainable parameters.
//
// Layers implement explicit forward/backward passes (no autograd tape): each
// forward caches what its backward needs, mirroring the textbook derivations
// for the handful of layer types LeNet-5 requires.  A Parameter couples a
// value tensor with its gradient accumulator; optimizers consume the
// parameter list a network exposes.
#pragma once

#include "fptc/nn/tensor.hpp"

#include <string>
#include <vector>

namespace fptc::nn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
    Tensor value;
    Tensor grad;
    std::string name;

    explicit Parameter(Tensor initial, std::string parameter_name = {})
        : value(std::move(initial)), grad(Tensor::zeros(value.shape())), name(std::move(parameter_name))
    {
    }

    void zero_grad() noexcept { grad.fill(0.0f); }
};

/// Abstract network layer.
class Layer {
public:
    virtual ~Layer() = default;
    Layer() = default;
    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Layer type name for architecture printouts (App. C style listings).
    [[nodiscard]] virtual std::string name() const = 0;

    /// Forward pass.  `training` toggles dropout-style stochastic behavior.
    [[nodiscard]] virtual Tensor forward(const Tensor& input, bool training) = 0;

    /// Backward pass: gradient w.r.t. this layer's input, given the gradient
    /// w.r.t. its output.  Must be called after forward() on the same input;
    /// parameter gradients are *accumulated* into Parameter::grad.  A layer
    /// told that its input gradient is unused (Conv2d::set_input_gradient)
    /// returns an empty Tensor instead.
    [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Trainable parameters (empty by default).
    [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

    /// Number of trainable scalars (the "Param #" column of App. C).
    [[nodiscard]] std::size_t parameter_count()
    {
        std::size_t count = 0;
        for (const auto* p : parameters()) {
            count += p->value.size();
        }
        return count;
    }
};

} // namespace fptc::nn

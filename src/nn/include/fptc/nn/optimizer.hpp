// Gradient-descent optimizers: SGD (with momentum) and Adam.
//
// The paper trains with a "static learning rate at 0.001" for supervised
// runs and SimCLR pre-training and 0.01 for fine-tuning.  Adam is the
// de-facto optimizer of the released tcbench framework and converges in far
// fewer epochs on CPU, so the campaign defaults use it; plain SGD is kept
// for the ablation benches and tests.
#pragma once

#include "fptc/nn/layer.hpp"

#include <vector>

namespace fptc::nn {

/// Optimizer interface over a fixed parameter set.
class Optimizer {
public:
    explicit Optimizer(std::vector<Parameter*> parameters);
    virtual ~Optimizer() = default;
    Optimizer(const Optimizer&) = delete;
    Optimizer& operator=(const Optimizer&) = delete;

    /// Apply one update from the accumulated gradients.
    virtual void step() = 0;

    /// Clear all parameter gradients.
    void zero_grad();

    [[nodiscard]] double learning_rate() const noexcept { return learning_rate_; }
    void set_learning_rate(double lr) noexcept { learning_rate_ = lr; }

protected:
    std::vector<Parameter*> parameters_;
    double learning_rate_ = 1e-3;
};

/// Stochastic gradient descent with optional classical momentum.
class Sgd final : public Optimizer {
public:
    Sgd(std::vector<Parameter*> parameters, double learning_rate, double momentum = 0.0);

    void step() override;

private:
    double momentum_;
    std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.  The update runs on double
/// vector lanes (4 under AVX2, 2 at the x86-64 baseline) and gives the
/// bits of the scalar loop it replaced (tests/nn_reference.cpp).
class Adam final : public Optimizer {
public:
    Adam(std::vector<Parameter*> parameters, double learning_rate, double beta1 = 0.9,
         double beta2 = 0.999, double epsilon = 1e-8);

    void step() override;

private:
    double beta1_;
    double beta2_;
    double epsilon_;
    long step_count_ = 0;
    std::vector<Tensor> first_moment_;
    std::vector<Tensor> second_moment_;
};

} // namespace fptc::nn

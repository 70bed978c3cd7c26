#include "fptc/nn/optimizer.hpp"

#include "gemm.hpp"

#include <cmath>
#include <stdexcept>

namespace fptc::nn {

Optimizer::Optimizer(std::vector<Parameter*> parameters) : parameters_(std::move(parameters))
{
    for (const auto* p : parameters_) {
        if (p == nullptr) {
            throw std::invalid_argument("Optimizer: null parameter");
        }
    }
}

void Optimizer::zero_grad()
{
    for (auto* p : parameters_) {
        p->zero_grad();
    }
}

Sgd::Sgd(std::vector<Parameter*> parameters, double learning_rate, double momentum)
    : Optimizer(std::move(parameters)), momentum_(momentum)
{
    learning_rate_ = learning_rate;
    if (momentum_ != 0.0) {
        velocity_.reserve(parameters_.size());
        for (const auto* p : parameters_) {
            velocity_.emplace_back(Tensor::zeros(p->value.shape()));
        }
    }
}

void Sgd::step()
{
    const auto lr = static_cast<float>(learning_rate_);
    for (std::size_t i = 0; i < parameters_.size(); ++i) {
        auto& p = *parameters_[i];
        auto values = p.value.data();
        const auto grads = p.grad.data();
        if (momentum_ == 0.0) {
            for (std::size_t j = 0; j < values.size(); ++j) {
                values[j] -= lr * grads[j];
            }
        } else {
            auto v = velocity_[i].data();
            const auto mu = static_cast<float>(momentum_);
            for (std::size_t j = 0; j < values.size(); ++j) {
                v[j] = mu * v[j] + grads[j];
                values[j] -= lr * v[j];
            }
        }
    }
}

Adam::Adam(std::vector<Parameter*> parameters, double learning_rate, double beta1, double beta2,
           double epsilon)
    : Optimizer(std::move(parameters)), beta1_(beta1), beta2_(beta2), epsilon_(epsilon)
{
    learning_rate_ = learning_rate;
    first_moment_.reserve(parameters_.size());
    second_moment_.reserve(parameters_.size());
    for (const auto* p : parameters_) {
        first_moment_.emplace_back(Tensor::zeros(p->value.shape()));
        second_moment_.emplace_back(Tensor::zeros(p->value.shape()));
    }
}

void Adam::step()
{
    ++step_count_;
    const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
    const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
    const double alpha = learning_rate_ * std::sqrt(bias2) / bias1;
    const auto b1 = static_cast<float>(beta1_);
    const auto b2 = static_cast<float>(beta2_);
    for (std::size_t i = 0; i < parameters_.size(); ++i) {
        auto& p = *parameters_[i];
        detail::adam_update(p.value.size(), p.value.data().data(), p.grad.data().data(),
                            first_moment_[i].data().data(), second_moment_[i].data().data(), b1,
                            b2, alpha, epsilon_);
    }
}

} // namespace fptc::nn

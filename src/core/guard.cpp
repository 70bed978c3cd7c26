#include "fptc/core/guard.hpp"

#include "fptc/nn/serialize.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/rng.hpp"

#include <cmath>
#include <sstream>
#include <utility>

namespace fptc::core {

DivergenceGuard::DivergenceGuard(std::vector<nn::Parameter*> parameters, GuardConfig config)
    : parameters_(std::move(parameters)), config_(config)
{
    commit();
    consecutive_failures_ = 0;
}

bool DivergenceGuard::step_diverged(double loss)
{
    bool diverged = false;
    if (util::fault_injector().inject_nan_loss(++steps_)) {
        // The injected fault stands in for a NaN that a real divergence
        // would have produced on this step.
        diverged = true;
    } else if (!std::isfinite(loss) || std::abs(loss) > config_.loss_limit) {
        diverged = true;
    } else {
        // Exploding gradients show up in the global norm one step before
        // they reach the loss; cheap single pass over the parameter set.
        double norm_sq = 0.0;
        for (const auto* p : parameters_) {
            const auto grad = p->grad.data();
            for (const float g : grad) {
                norm_sq += static_cast<double>(g) * g;
            }
        }
        diverged = !std::isfinite(norm_sq) ||
                   norm_sq > config_.grad_norm_limit * config_.grad_norm_limit;
    }
    if (diverged) {
        ++faults_detected_;
    }
    return diverged;
}

void DivergenceGuard::commit()
{
    std::ostringstream buffer(std::ios::binary);
    nn::save_parameters(parameters_, buffer);
    snapshot_ = buffer.str();
    consecutive_failures_ = 0;
}

bool DivergenceGuard::rollback()
{
    std::istringstream buffer(snapshot_, std::ios::binary);
    nn::load_parameters(parameters_, buffer);
    for (auto* p : parameters_) {
        p->zero_grad();
    }
    ++retries_;
    ++consecutive_failures_;
    util::log_info("divergence guard: rolled back to last good epoch (retry " +
                   std::to_string(retries_) + ", consecutive failure " +
                   std::to_string(consecutive_failures_) + "/" +
                   std::to_string(config_.max_retries) + ")");
    return consecutive_failures_ <= config_.max_retries;
}

std::uint64_t DivergenceGuard::retry_seed(std::uint64_t base) const noexcept
{
    return util::mix_seed(base, 0x2E72, static_cast<std::uint64_t>(retries_));
}

} // namespace fptc::core

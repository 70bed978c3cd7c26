// Training-time divergence guards.
//
// A single NaN loss (fp16-free CPU training still diverges on unlucky
// seed/augmentation combinations, and the fault injector produces them on
// demand) used to poison every later step of a run and, through it, an
// entire campaign table.  The guard wraps a training loop with:
//
//   * detection  — non-finite or exploded loss, non-finite or exploded
//                  global gradient norm (checked every step),
//   * rollback   — parameters snapshot via nn::serialize at every clean
//                  epoch boundary, restored on detection,
//   * retry      — the caller re-runs the epoch with a derived shuffle
//                  seed and a fresh optimizer, up to a bounded budget of
//                  *consecutive* failures (faults that still allow epochs
//                  to complete never exhaust the budget).
//
// One loop drives it: core::run_guarded (src/core/loop.cpp), through which
// train_supervised, train_head, pretrain_simclr, pretrain_supcon and
// pretrain_byol all train.
#pragma once

#include "fptc/nn/layer.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace fptc::core {

/// Divergence-detection thresholds and retry budget (shared defaults for
/// every training method).
struct GuardConfig {
    int max_retries = 3;           ///< consecutive rollbacks before giving up
    double loss_limit = 1e6;       ///< |loss| above this counts as divergence
    double grad_norm_limit = 1e8;  ///< global grad L2 norm above this diverges
};

/// Wraps one parameter set with snapshot / detect / rollback machinery.
class DivergenceGuard {
public:
    /// Captures an initial snapshot of `parameters` (the pre-training state
    /// is the first rollback target).
    DivergenceGuard(std::vector<nn::Parameter*> parameters, GuardConfig config);

    /// Check one training step.  Returns true when the step diverged: the
    /// loss is non-finite or beyond loss_limit, the accumulated gradient
    /// norm is non-finite or beyond grad_norm_limit, or the process-wide
    /// fault injector fired a NaN-loss fault for this guard's step index
    /// (its count of step_diverged calls, so faults hit the same steps of a
    /// loop whatever else runs in the process).
    [[nodiscard]] bool step_diverged(double loss);

    /// Record the current parameter values as the last known-good state and
    /// reset the consecutive-failure count.  Call at clean epoch boundaries.
    void commit();

    /// Restore the last known-good parameter values.  Returns false when the
    /// consecutive-retry budget is exhausted (the caller should abort the
    /// run); the parameters are restored either way.
    [[nodiscard]] bool rollback();

    /// Seed for the retry attempt, derived from `base` and the retry count
    /// so every retry reshuffles differently but deterministically.
    [[nodiscard]] std::uint64_t retry_seed(std::uint64_t base) const noexcept;

    /// Total rollbacks performed (reported in Train/SimClr/Byol results).
    [[nodiscard]] int retries() const noexcept { return retries_; }

    /// Divergent steps observed (injected faults included).
    [[nodiscard]] int faults_detected() const noexcept { return faults_detected_; }

    [[nodiscard]] const GuardConfig& config() const noexcept { return config_; }

private:
    std::vector<nn::Parameter*> parameters_;
    GuardConfig config_;
    std::string snapshot_;          ///< last-good state, nn::serialize v2 bytes
    std::uint64_t steps_ = 0;       ///< step_diverged calls so far
    int retries_ = 0;
    int consecutive_failures_ = 0;
    int faults_detected_ = 0;
};

/// Error thrown when a training run keeps diverging past the retry budget.
class DivergenceError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

} // namespace fptc::core

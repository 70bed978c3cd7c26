// Supervised training loop with the paper's early-stopping protocol.
//
// Sec. 4.2.1: "the same training settings as in the Ref-Paper: static
// learning rate at 0.001, early stopping on validation loss after 5 steps in
// which the loss does not improve by more than 0.001, batch size of 32,
// performance measured via accuracy".
#pragma once

#include "fptc/core/data.hpp"
#include "fptc/core/guard.hpp"
#include "fptc/nn/sequential.hpp"
#include "fptc/stats/metrics.hpp"
#include "fptc/util/cancel.hpp"

#include <cstdint>
#include <vector>

namespace fptc::core {

/// Supervision hooks of a training run, polled once per batch by the one
/// guarded loop (supervised, SimCLR, SupCon, BYOL).  The campaign executor wires its per-unit
/// CancelToken in here so a watchdog deadline or campaign-wide cancellation
/// unwinds the loop at the next batch boundary — before any result is
/// committed, so a cancelled unit leaves no partial journal record.
struct TrainHooks {
    const util::CancelToken* cancel = nullptr;  ///< polled once per batch

    /// Cancellation point; throws util::CancelledError once the token trips.
    void poll() const
    {
        if (cancel != nullptr) {
            cancel->poll();
        }
    }
};

/// Training hyper-parameters (defaults = the paper's supervised protocol;
/// max_epochs is an additional cap for CPU budgets).
struct TrainConfig {
    std::size_t batch_size = 32;
    double learning_rate = 1e-3;
    int max_epochs = 30;
    int patience = 5;         ///< epochs without sufficient improvement
    double min_delta = 1e-3;  ///< required improvement of the monitored loss
    bool use_adam = true;     ///< Adam (tcbench default) vs plain SGD
    std::uint64_t seed = 7;   ///< batch shuffling seed
    GuardConfig guard{};      ///< divergence detection / rollback budget
    TrainHooks hooks{};       ///< executor supervision (cancellation)
};

/// Outcome of one training run.
struct TrainResult {
    int epochs_run = 0;
    double best_validation_loss = 0.0;
    double final_train_loss = 0.0;
    std::vector<double> validation_history;
    int retries = 0;          ///< divergence rollbacks performed
    int faults_detected = 0;  ///< divergent steps observed (injected incl.)
};

/// Train `network` on `train`, early-stopping on `validation` loss.  When
/// the validation set is empty, early stopping monitors the training loss
/// instead (the paper's fine-tuning protocol).  Divergent steps (NaN/Inf
/// loss, exploding gradients, injected faults) roll the network back to the
/// last clean epoch and retry with a derived shuffle seed and a fresh
/// optimizer; throws DivergenceError once config.guard.max_retries
/// consecutive attempts fail.
[[nodiscard]] TrainResult train_supervised(nn::Sequential& network, const SampleSet& train,
                                           const SampleSet& validation, const TrainConfig& config);

/// Run the network over a sample set and collect the confusion matrix.
[[nodiscard]] stats::ConfusionMatrix evaluate(nn::Sequential& network, const SampleSet& samples,
                                              std::size_t num_classes,
                                              std::size_t batch_size = 64);

/// Mean cross-entropy of the network over a sample set (no gradient).
[[nodiscard]] double evaluate_loss(nn::Sequential& network, const SampleSet& samples,
                                   std::size_t batch_size = 64);

} // namespace fptc::core

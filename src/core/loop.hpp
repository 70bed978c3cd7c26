// The one guarded epoch loop behind every training method, and the pieces
// the methods and campaign runners share.  Internal to fptc_core.
//
// run_guarded owns the protocol that train_supervised, train_head,
// pretrain_simclr, pretrain_supcon and pretrain_byol have in common (§4.2.1,
// §4.4): shuffle, batch, poll the hooks, check every step with the
// DivergenceGuard, apply the optimizer, roll a diverged epoch back and
// retry it with a derived shuffle seed and a fresh optimizer, and stop
// early after `patience` epochs without improvement.  A method supplies one
// step (datagen -> forward -> loss -> backward) and an "improved?" test.
#pragma once

#include "fptc/core/campaign.hpp"
#include "fptc/core/guard.hpp"
#include "fptc/core/trainer.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/util/rng.hpp"

#include <functional>
#include <span>
#include <vector>

namespace fptc::core {

/// What one training step reports to the loop.
struct StepResult {
    double loss = 0.0;    ///< checked by the guard, averaged into the epoch loss
    double metric = 0.0;  ///< per-batch metric averaged over the epoch (e.g. top-5)
};

/// One training method as the loop runs it.
struct GuardedLoop {
    const char* name = "";          ///< entry point, named in error texts
    std::size_t samples = 0;        ///< items shuffled each epoch
    std::size_t batch_size = 0;
    std::size_t min_batch = 1;      ///< 2 for the view-pair methods
    int max_epochs = 0;
    int patience = 0;
    std::uint64_t seed = 0;         ///< shuffle stream; retries derive theirs from it
    double learning_rate = 0.0;
    bool use_adam = true;           ///< Adam, else plain SGD
    std::vector<nn::Parameter*> trainable{};     ///< updated by the optimizer
    std::vector<nn::Parameter*> also_guarded{};  ///< rolled back, not optimized (BYOL's target)
    GuardConfig guard{};
    TrainHooks hooks{};
    /// Runs one batch of shuffled sample indices up to the backward pass.
    std::function<StepResult(std::span<const std::size_t> batch, util::Rng& rng)> step{};
    /// Runs after each optimizer step, inside its span (BYOL's EMA).
    std::function<void()> after_update{};
    /// Called once per committed epoch with its mean loss and metric; true
    /// resets the patience count.
    std::function<bool(double loss, double metric)> improved{};
};

/// Run `loop` to completion and report epochs_run, final_train_loss (the
/// mean step loss of the last committed epoch), retries and
/// faults_detected.  Throws std::invalid_argument for a zero batch size and
/// DivergenceError once the guard's retry budget is exhausted.
[[nodiscard]] TrainResult run_guarded(const GuardedLoop& loop);

/// Cross-entropy training through run_guarded, shared by train_supervised
/// and train_head: `inputs` assembles a batch from sample indices and
/// `monitor` maps an epoch's mean train loss to the early-stopping value.
[[nodiscard]] TrainResult train_cross_entropy(
    const char* name, nn::Sequential& network, std::span<const std::size_t> labels,
    const std::function<nn::Tensor(std::span<const std::size_t>)>& inputs,
    const std::function<double(double)>& monitor, const TrainConfig& config);

/// The few-shot tail of every contrastive run: pick
/// options.finetune_per_class flows per class of `pool`, train a linear head
/// on their frozen-trunk embeddings and score script/human.  The result
/// carries the head's retries and faults; the caller adds pre-training's.
[[nodiscard]] SimClrRunResult finetune_few_shot(nn::SimClrNetwork& trunk,
                                                const flow::Dataset& pool,
                                                const UcdavisData& data,
                                                const nn::ModelConfig& model_config,
                                                std::uint64_t finetune_seed,
                                                const SimClrOptions& options);

} // namespace fptc::core

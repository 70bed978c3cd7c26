// SimCLR pre-training + few-shot fine-tuning (the paper's G2 pipeline).
//
// Pre-training (Sec. 4.4): "In each training step, a double batch of 32
// unlabeled images (taken from the pool of 100 unlabelled samples per class)
// is loaded after applying the two augmentations" with NT-Xent at
// temperature 0.07, learning rate 0.001 and "patience of 3 on the top-5
// accuracy".
//
// Fine-tuning: the pre-trained representation (the 120-d h) is frozen and a
// fresh linear classifier is trained on a few labeled samples with
// "patience of 5 on train (min delta=0.001) ... (learning rate=0.01)".
// Because the trunk is frozen, fine-tuning operates on cached embeddings —
// mathematically identical to listing 5's masked network, and much faster.
#pragma once

#include "fptc/augment/view_pair.hpp"
#include "fptc/core/data.hpp"
#include "fptc/core/trainer.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/stats/metrics.hpp"

#include <cstdint>

namespace fptc::core {

/// SimCLR pre-training hyper-parameters (paper defaults).
struct SimClrConfig {
    std::size_t batch_samples = 32; ///< samples per step (views = 2x this)
    double temperature = 0.07;
    double learning_rate = 1e-3;
    int max_epochs = 20;
    int patience = 3;               ///< on the top-5 contrastive accuracy
    std::uint64_t seed = 11;
    GuardConfig guard{};            ///< divergence detection / rollback budget
    TrainHooks hooks{};             ///< executor supervision (cancellation)
};

/// Pre-training outcome.
struct SimClrResult {
    int epochs_run = 0;
    double best_top5_accuracy = 0.0;
    double final_loss = 0.0;
    int retries = 0;          ///< divergence rollbacks performed
    int faults_detected = 0;  ///< divergent steps observed (injected incl.)
};

/// Pre-train `network` on unlabeled flows with the view-pair generator.
[[nodiscard]] SimClrResult pretrain_simclr(nn::SimClrNetwork& network,
                                           std::span<const flow::Flow> flows,
                                           const augment::ViewPairGenerator& views,
                                           const SimClrConfig& config);

/// Supervised-contrastive pre-training (SupCon, Khosla et al.): identical
/// batching to pretrain_simclr, but the loss treats every view of every flow
/// with the same label as a positive.  Labels are taken from Flow::label.
[[nodiscard]] SimClrResult pretrain_supcon(nn::SimClrNetwork& network,
                                           std::span<const flow::Flow> flows,
                                           const augment::ViewPairGenerator& views,
                                           const SimClrConfig& config);

/// Frozen-trunk embeddings of a sample set: features is [N, 120].
struct EmbeddedSet {
    nn::Tensor features;
    std::vector<std::size_t> labels;

    [[nodiscard]] std::size_t size() const noexcept { return labels.size(); }
};

/// Compute frozen-trunk embeddings (h, 120-d) of a sample set.
[[nodiscard]] EmbeddedSet embed_set(nn::SimClrNetwork& network, const SampleSet& samples);

/// Train a linear head on embeddings (early stopping on train loss when the
/// config's monitored set is empty — the paper's fine-tune protocol).
[[nodiscard]] TrainResult train_head(nn::Sequential& head, const EmbeddedSet& train,
                                     const TrainConfig& config);

/// Classify embeddings with the head and fill a confusion matrix.
[[nodiscard]] stats::ConfusionMatrix evaluate_head(nn::Sequential& head, const EmbeddedSet& samples,
                                                   std::size_t num_classes);

/// The paper's fine-tuning TrainConfig (LR 0.01, patience 5 on train loss).
[[nodiscard]] TrainConfig finetune_config(std::uint64_t seed);

} // namespace fptc::core

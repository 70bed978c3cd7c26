#include "fptc/core/simclr.hpp"

#include "loop.hpp"

#include "fptc/nn/loss.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fptc::core {

namespace {

[[nodiscard]] nn::Tensor rows_of(const nn::Tensor& features, std::span<const std::size_t> indices)
{
    const std::size_t dim = features.dim(1);
    nn::Tensor out({indices.size(), dim});
    auto data = out.data();
    const auto src = features.data();
    for (std::size_t i = 0; i < indices.size(); ++i) {
        std::copy(src.begin() + static_cast<std::ptrdiff_t>(indices[i] * dim),
                  src.begin() + static_cast<std::ptrdiff_t>((indices[i] + 1) * dim),
                  data.begin() + static_cast<std::ptrdiff_t>(i * dim));
    }
    return out;
}

/// SimCLR (self-supervised, NT-Xent) and SupCon (supervised, multi-positive)
/// pre-training differ only in the loss applied to the projected double batch.
[[nodiscard]] SimClrResult pretrain_contrastive(const char* name, nn::SimClrNetwork& network,
                                                std::span<const flow::Flow> flows,
                                                const augment::ViewPairGenerator& views,
                                                const SimClrConfig& config, bool supervised)
{
    if (flows.size() < 2) {
        throw std::invalid_argument(std::string(name) + ": need at least 2 flows");
    }
    const std::size_t dim = nn::effective_input_dim(views.config().resolution);
    const std::size_t plane = dim * dim;
    double best_top5 = 0.0;
    GuardedLoop loop{
        .name = name,
        .samples = flows.size(),
        .batch_size = config.batch_samples,
        .min_batch = 2, // NT-Xent needs at least 2 samples (4 views)
        .max_epochs = config.max_epochs,
        .patience = config.patience,
        .seed = config.seed,
        .learning_rate = config.learning_rate,
        .trainable = network.parameters(),
        .guard = config.guard,
        .hooks = config.hooks,
    };
    loop.step = [&](std::span<const std::size_t> batch, util::Rng& rng) {
        // Interleaved double batch: rows (2i, 2i+1) are the two views.
        nn::Tensor inputs({2 * batch.size(), 1, dim, dim});
        std::vector<std::size_t> view_labels(2 * batch.size(), 0);
        auto data = inputs.data();
        {
            FPTC_TRACE_SPAN("datagen");
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const auto& flow = flows[batch[i]];
                view_labels[2 * i] = view_labels[2 * i + 1] = flow.label;
                auto [view_a, view_b] = [&] {
                    FPTC_TRACE_SPAN("augment");
                    return views.view_pair(flow, rng);
                }();
                FPTC_TRACE_SPAN("flowpic");
                const auto image_a = view_image(view_a);
                const auto image_b = view_image(view_b);
                std::copy(image_a.begin(), image_a.end(),
                          data.begin() + static_cast<std::ptrdiff_t>((2 * i) * plane));
                std::copy(image_b.begin(), image_b.end(),
                          data.begin() + static_cast<std::ptrdiff_t>((2 * i + 1) * plane));
            }
        }
        const auto projections = [&] {
            FPTC_TRACE_SPAN("forward");
            return network.forward(inputs, /*training=*/true);
        }();
        const auto loss = [&] {
            FPTC_TRACE_SPAN("loss");
            return supervised ? nn::sup_con(projections, view_labels, config.temperature)
                              : nn::nt_xent(projections, config.temperature);
        }();
        {
            FPTC_TRACE_SPAN("backward");
            network.zero_grad();
            network.backward(loss.grad);
        }
        return StepResult{loss.loss, nn::contrastive_top_k_accuracy(projections, 5)};
    };
    loop.improved = [&](double, double top5) {
        if (top5 > best_top5 + 1e-4) {
            best_top5 = top5;
            return true;
        }
        return false;
    };
    const auto outcome = run_guarded(loop);
    return SimClrResult{
        .epochs_run = outcome.epochs_run,
        .best_top5_accuracy = best_top5,
        .final_loss = outcome.final_train_loss,
        .retries = outcome.retries,
        .faults_detected = outcome.faults_detected,
    };
}

} // namespace

SimClrResult pretrain_simclr(nn::SimClrNetwork& network, std::span<const flow::Flow> flows,
                             const augment::ViewPairGenerator& views, const SimClrConfig& config)
{
    return pretrain_contrastive("pretrain_simclr", network, flows, views, config,
                                /*supervised=*/false);
}

SimClrResult pretrain_supcon(nn::SimClrNetwork& network, std::span<const flow::Flow> flows,
                             const augment::ViewPairGenerator& views, const SimClrConfig& config)
{
    return pretrain_contrastive("pretrain_supcon", network, flows, views, config,
                                /*supervised=*/true);
}

EmbeddedSet embed_set(nn::SimClrNetwork& network, const SampleSet& samples)
{
    EmbeddedSet embedded;
    embedded.labels = samples.labels;
    if (samples.size() == 0) {
        embedded.features = nn::Tensor({0, nn::kRepresentationDim});
        return embedded;
    }
    embedded.features = nn::Tensor({samples.size(), nn::kRepresentationDim});
    auto out = embedded.features.data();
    constexpr std::size_t kBatch = 64;
    for (std::size_t start = 0; start < samples.size(); start += kBatch) {
        const std::size_t end = std::min(start + kBatch, samples.size());
        const auto h = network.embed(samples.batch(start, end));
        const auto h_data = h.data();
        std::copy(h_data.begin(), h_data.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(start * nn::kRepresentationDim));
    }
    return embedded;
}

TrainResult train_head(nn::Sequential& head, const EmbeddedSet& train, const TrainConfig& config)
{
    // The paper fine-tunes with early stopping on the *train* loss.
    return train_cross_entropy(
        "train_head", head, train.labels,
        [&](std::span<const std::size_t> batch) { return rows_of(train.features, batch); },
        [](double train_loss) { return train_loss; }, config);
}

stats::ConfusionMatrix evaluate_head(nn::Sequential& head, const EmbeddedSet& samples,
                                     std::size_t num_classes)
{
    stats::ConfusionMatrix confusion(num_classes);
    if (samples.size() == 0) {
        return confusion;
    }
    const auto predictions = nn::argmax_rows(head.forward(samples.features, /*training=*/false));
    for (std::size_t i = 0; i < samples.size(); ++i) {
        confusion.add(samples.labels[i], predictions[i]);
    }
    return confusion;
}

TrainConfig finetune_config(std::uint64_t seed)
{
    TrainConfig config;
    config.learning_rate = 1e-2;
    config.patience = 5;
    config.min_delta = 1e-3;
    config.max_epochs = 100;
    config.batch_size = 32;
    config.seed = seed;
    return config;
}

} // namespace fptc::core

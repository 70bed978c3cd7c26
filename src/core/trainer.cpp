#include "fptc/core/trainer.hpp"

#include "loop.hpp"

#include "fptc/nn/loss.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace fptc::core {

TrainResult train_cross_entropy(
    const char* name, nn::Sequential& network, std::span<const std::size_t> labels,
    const std::function<nn::Tensor(std::span<const std::size_t>)>& inputs,
    const std::function<double(double)>& monitor, const TrainConfig& config)
{
    if (labels.empty()) {
        throw std::invalid_argument(std::string(name) + ": empty training set");
    }
    double best_monitored = std::numeric_limits<double>::infinity();
    std::vector<double> history;
    GuardedLoop loop{
        .name = name,
        .samples = labels.size(),
        .batch_size = config.batch_size,
        .max_epochs = config.max_epochs,
        .patience = config.patience,
        .seed = config.seed,
        .learning_rate = config.learning_rate,
        .use_adam = config.use_adam,
        .trainable = network.parameters(),
        .guard = config.guard,
        .hooks = config.hooks,
    };
    loop.step = [&](std::span<const std::size_t> batch, util::Rng&) {
        const auto batch_inputs = [&] {
            FPTC_TRACE_SPAN("datagen");
            return inputs(batch);
        }();
        std::vector<std::size_t> batch_labels(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch_labels[i] = labels[batch[i]];
        }
        const auto logits = [&] {
            FPTC_TRACE_SPAN("forward");
            return network.forward(batch_inputs, /*training=*/true);
        }();
        const auto loss = [&] {
            FPTC_TRACE_SPAN("loss");
            return nn::cross_entropy(logits, batch_labels);
        }();
        {
            FPTC_TRACE_SPAN("backward");
            network.zero_grad();
            (void)network.backward(loss.grad);
        }
        return StepResult{loss.loss, loss.loss};
    };
    loop.improved = [&](double train_loss, double) {
        const double monitored = monitor(train_loss);
        history.push_back(monitored);
        if (monitored < best_monitored - config.min_delta) {
            best_monitored = monitored;
            return true;
        }
        return false;
    };
    auto result = run_guarded(loop);
    result.best_validation_loss = best_monitored;
    result.validation_history = std::move(history);
    return result;
}

TrainResult train_supervised(nn::Sequential& network, const SampleSet& train,
                             const SampleSet& validation, const TrainConfig& config)
{
    return train_cross_entropy(
        "train_supervised", network, train.labels,
        [&](std::span<const std::size_t> batch) { return train.batch(batch); },
        [&](double train_loss) {
            return validation.size() > 0 ? evaluate_loss(network, validation) : train_loss;
        },
        config);
}

stats::ConfusionMatrix evaluate(nn::Sequential& network, const SampleSet& samples,
                                std::size_t num_classes, std::size_t batch_size)
{
    stats::ConfusionMatrix confusion(num_classes);
    for (std::size_t start = 0; start < samples.size(); start += batch_size) {
        const std::size_t end = std::min(start + batch_size, samples.size());
        const auto predictions =
            nn::argmax_rows(network.forward(samples.batch(start, end), /*training=*/false));
        for (std::size_t i = start; i < end; ++i) {
            confusion.add(samples.labels[i], predictions[i - start]);
        }
    }
    return confusion;
}

double evaluate_loss(nn::Sequential& network, const SampleSet& samples, std::size_t batch_size)
{
    if (samples.size() == 0) {
        return 0.0;
    }
    double total = 0.0;
    for (std::size_t start = 0; start < samples.size(); start += batch_size) {
        const std::size_t end = std::min(start + batch_size, samples.size());
        const auto logits = network.forward(samples.batch(start, end), /*training=*/false);
        const auto loss = nn::cross_entropy(
            logits, std::span(samples.labels).subspan(start, end - start));
        total += loss.loss * static_cast<double>(end - start);
    }
    return total / static_cast<double>(samples.size());
}

} // namespace fptc::core

#include "loop.hpp"

#include "fptc/nn/optimizer.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fptc::core {

TrainResult run_guarded(const GuardedLoop& loop)
{
    if (loop.batch_size == 0) {
        throw std::invalid_argument(std::string(loop.name) + ": batch size must be at least 1");
    }
    util::Rng rng(loop.seed);
    const auto make_optimizer = [&]() -> std::unique_ptr<nn::Optimizer> {
        if (loop.use_adam) {
            return std::make_unique<nn::Adam>(loop.trainable, loop.learning_rate);
        }
        return std::make_unique<nn::Sgd>(loop.trainable, loop.learning_rate);
    };
    auto optimizer = make_optimizer();
    auto guarded = loop.trainable;
    guarded.insert(guarded.end(), loop.also_guarded.begin(), loop.also_guarded.end());
    DivergenceGuard guard(std::move(guarded), loop.guard);

    std::vector<std::size_t> order(loop.samples);
    std::iota(order.begin(), order.end(), std::size_t{0});

    TrainResult result;
    int epochs_since_improvement = 0;
    for (int epoch = 0; epoch < loop.max_epochs;) {
        FPTC_TRACE_SPAN("epoch");
        rng.shuffle(order);
        double epoch_loss = 0.0;
        double epoch_metric = 0.0;
        std::size_t batches = 0;
        bool diverged = false;
        for (std::size_t start = 0; start + loop.min_batch <= order.size();
             start += loop.batch_size) {
            loop.hooks.poll();
            const std::size_t end = std::min(start + loop.batch_size, order.size());
            if (end - start < loop.min_batch) {
                break;
            }
            const auto step = loop.step(std::span(order).subspan(start, end - start), rng);
            if (guard.step_diverged(step.loss)) {
                diverged = true;
                break; // abort the epoch before the bad update is applied
            }
            {
                FPTC_TRACE_SPAN("optimizer");
                optimizer->step();
                if (loop.after_update) {
                    loop.after_update();
                }
            }
            epoch_loss += step.loss;
            epoch_metric += step.metric;
            ++batches;
        }
        if (diverged) {
            if (!guard.rollback()) {
                throw DivergenceError(std::string(loop.name) + ": diverged " +
                                      std::to_string(guard.retries()) +
                                      " time(s); retry budget exhausted");
            }
            // Fresh optimizer state and a derived shuffle stream, then
            // re-run the same epoch from the last good snapshot.
            optimizer = make_optimizer();
            rng = util::Rng(guard.retry_seed(loop.seed));
            continue;
        }
        if (batches == 0) {
            break; // no batch of min_batch samples fits
        }
        guard.commit();
        result.final_train_loss = epoch_loss / static_cast<double>(batches);
        result.epochs_run = epoch + 1;
        if (loop.improved(result.final_train_loss, epoch_metric / static_cast<double>(batches))) {
            epochs_since_improvement = 0;
        } else if (++epochs_since_improvement >= loop.patience) {
            break;
        }
        ++epoch;
    }
    result.retries = guard.retries();
    result.faults_detected = guard.faults_detected();
    return result;
}

} // namespace fptc::core

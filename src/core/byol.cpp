#include "fptc/core/byol.hpp"

#include "loop.hpp"

#include "fptc/nn/layers.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

namespace fptc::core {

namespace {

/// Copy every parameter value of `source` into `destination`.
void copy_parameters(nn::SimClrNetwork& source, nn::SimClrNetwork& destination)
{
    const auto from = source.parameters();
    const auto to = destination.parameters();
    if (from.size() != to.size()) {
        throw std::logic_error("copy_parameters: mismatched networks");
    }
    for (std::size_t i = 0; i < from.size(); ++i) {
        to[i]->value = from[i]->value;
    }
}

/// EMA update: target <- decay * target + (1 - decay) * online.
void ema_update(nn::SimClrNetwork& online, nn::SimClrNetwork& target, double decay)
{
    const auto from = online.parameters();
    const auto to = target.parameters();
    const auto d = static_cast<float>(decay);
    for (std::size_t i = 0; i < from.size(); ++i) {
        auto dst = to[i]->value.data();
        const auto src = from[i]->value.data();
        for (std::size_t j = 0; j < dst.size(); ++j) {
            dst[j] = d * dst[j] + (1.0f - d) * src[j];
        }
    }
}

/// L2-normalize rows; returns norms.
void normalize_rows(const nn::Tensor& input, nn::Tensor& normalized, std::vector<double>& norms)
{
    const std::size_t rows = input.dim(0);
    const std::size_t dim = input.dim(1);
    normalized = input;
    norms.assign(rows, 0.0);
    auto data = normalized.data();
    for (std::size_t r = 0; r < rows; ++r) {
        float* row = data.data() + r * dim;
        double norm_sq = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            norm_sq += static_cast<double>(row[d]) * row[d];
        }
        norms[r] = std::sqrt(std::max(norm_sq, 1e-24));
        const auto inv = static_cast<float>(1.0 / norms[r]);
        for (std::size_t d = 0; d < dim; ++d) {
            row[d] *= inv;
        }
    }
}

/// BYOL regression loss between predictor outputs q and (stop-gradient)
/// targets t: mean_i || normalize(q_i) - normalize(t_i) ||^2, with the
/// gradient w.r.t. q (through the normalization).
[[nodiscard]] nn::LossResult byol_regression(const nn::Tensor& predictions,
                                             const nn::Tensor& targets)
{
    nn::require_same_shape(predictions, targets, "byol_regression");
    const std::size_t rows = predictions.dim(0);
    const std::size_t dim = predictions.dim(1);

    nn::Tensor p;
    nn::Tensor t;
    std::vector<double> p_norms;
    std::vector<double> t_norms;
    normalize_rows(predictions, p, p_norms);
    normalize_rows(targets, t, t_norms);

    nn::LossResult result;
    result.grad = nn::Tensor(predictions.shape());
    const auto p_data = p.data();
    const auto t_data = t.data();
    auto g = result.grad.data();
    double total = 0.0;
    const double inv_rows = 1.0 / static_cast<double>(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        const float* p_row = p_data.data() + r * dim;
        const float* t_row = t_data.data() + r * dim;
        float* g_row = g.data() + r * dim;
        double dot = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            dot += static_cast<double>(p_row[d]) * t_row[d];
        }
        total += (2.0 - 2.0 * dot) * inv_rows;
        // dL/dp = -2 t / rows; through normalization:
        // dL/dq = (I - p p^T) (dL/dp) / ||q||.
        double proj = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            proj += static_cast<double>(p_row[d]) * (-2.0 * t_row[d]);
        }
        const double inv_norm = inv_rows / p_norms[r];
        for (std::size_t d = 0; d < dim; ++d) {
            g_row[d] = static_cast<float>(
                ((-2.0 * t_row[d]) - proj * p_row[d]) * inv_norm);
        }
    }
    result.loss = total;
    return result;
}

/// Write `view`'s input image into row `row` of a batch tensor.
void write_view(nn::Tensor& batch, std::size_t row, const flowpic::Flowpic& view)
{
    const auto image = view_image(view);
    std::copy(image.begin(), image.end(),
              batch.data().begin() + static_cast<std::ptrdiff_t>(row * image.size()));
}

} // namespace

ByolNetwork make_byol_network(const nn::ModelConfig& config)
{
    ByolNetwork network;
    network.online = nn::make_simclr_network(config);
    network.target = nn::make_simclr_network(config);
    copy_parameters(network.online, network.target); // exact initial copy

    // Predictor q: projection -> projection MLP (BYOL's asymmetry).
    network.predictor.add(std::make_unique<nn::Linear>(config.projection_dim,
                                                       config.projection_dim,
                                                       util::mix_seed(config.seed, 30)));
    network.predictor.add(std::make_unique<nn::ReLU>());
    network.predictor.add(std::make_unique<nn::Linear>(config.projection_dim,
                                                       config.projection_dim,
                                                       util::mix_seed(config.seed, 31)));
    return network;
}

ByolResult pretrain_byol(ByolNetwork& network, std::span<const flow::Flow> flows,
                         const augment::ViewPairGenerator& views, const ByolConfig& config)
{
    if (flows.size() < 2) {
        throw std::invalid_argument("pretrain_byol: need at least 2 flows");
    }
    const std::size_t dim = nn::effective_input_dim(views.config().resolution);
    double best_loss = std::numeric_limits<double>::infinity();
    GuardedLoop loop{
        .name = "pretrain_byol",
        .samples = flows.size(),
        .batch_size = config.batch_samples,
        .min_batch = 2,
        .max_epochs = config.max_epochs,
        .patience = config.patience,
        .seed = config.seed,
        .learning_rate = config.learning_rate,
        .trainable = network.online.parameters(),
        // The target's EMA state rolls back with the online weights it trails.
        .also_guarded = network.target.parameters(),
        .guard = config.guard,
        .hooks = config.hooks,
    };
    const auto predictor_params = network.predictor.parameters();
    loop.trainable.insert(loop.trainable.end(), predictor_params.begin(), predictor_params.end());
    loop.step = [&](std::span<const std::size_t> batch, util::Rng& rng) {
        nn::Tensor view_a({batch.size(), 1, dim, dim});
        nn::Tensor view_b({batch.size(), 1, dim, dim});
        {
            FPTC_TRACE_SPAN("datagen");
            for (std::size_t i = 0; i < batch.size(); ++i) {
                auto [a, b] = [&] {
                    FPTC_TRACE_SPAN("augment");
                    return views.view_pair(flows[batch[i]], rng);
                }();
                FPTC_TRACE_SPAN("flowpic");
                write_view(view_a, i, a);
                write_view(view_b, i, b);
            }
        }

        nn::Tensor target_a;
        nn::Tensor target_b;
        {
            FPTC_TRACE_SPAN("forward");
            // Targets first (stop-gradient: only forward passes).
            target_b = network.target.forward(view_b, /*training=*/false);
            target_a = network.target.forward(view_a, /*training=*/false);
        }

        network.online.zero_grad();
        network.predictor.zero_grad();

        // Direction a -> b, then b -> a (gradients accumulate).
        const auto direction = [&](const nn::Tensor& view, const nn::Tensor& target) {
            const auto z = [&] {
                FPTC_TRACE_SPAN("forward");
                return network.online.forward(view, /*training=*/true);
            }();
            const auto p = network.predictor.forward(z, /*training=*/true);
            const auto loss = [&] {
                FPTC_TRACE_SPAN("loss");
                return byol_regression(p, target);
            }();
            FPTC_TRACE_SPAN("backward");
            network.online.backward(network.predictor.backward(loss.grad));
            return loss.loss;
        };
        const double loss_ab = direction(view_a, target_b);
        const double loss_ba = direction(view_b, target_a);
        const double loss = 0.5 * (loss_ab + loss_ba);
        return StepResult{loss, loss};
    };
    loop.after_update = [&] { ema_update(network.online, network.target, config.ema_decay); };
    loop.improved = [&](double loss, double) {
        if (loss < best_loss - config.min_delta) {
            best_loss = loss;
            return true;
        }
        return false;
    };
    const auto outcome = run_guarded(loop);
    return ByolResult{
        .epochs_run = outcome.epochs_run,
        .final_loss = outcome.final_train_loss,
        .retries = outcome.retries,
        .faults_detected = outcome.faults_detected,
    };
}

SimClrRunResult run_ucdavis_byol(const UcdavisData& data, std::uint64_t split_seed,
                                 std::uint64_t pretrain_seed, std::uint64_t finetune_seed,
                                 const SimClrOptions& options)
{
    const auto split = flow::fixed_per_class_split(data.pretraining, options.per_class, split_seed);
    flow::Dataset pool;
    pool.class_names = data.pretraining.class_names;
    pool.flows.reserve(split.train.size());
    for (const auto i : split.train) {
        pool.flows.push_back(data.pretraining.flows[i]);
    }

    nn::ModelConfig model_config;
    model_config.flowpic_dim = options.flowpic.resolution;
    model_config.num_classes = data.num_classes();
    model_config.with_dropout = options.with_dropout;
    model_config.projection_dim = options.projection_dim;
    model_config.seed = util::mix_seed(pretrain_seed, 0xB401);

    auto network = make_byol_network(model_config);
    const augment::ViewPairGenerator views(options.first, options.second, options.flowpic);

    ByolConfig pretrain_config;
    pretrain_config.batch_samples = options.batch_samples;
    pretrain_config.max_epochs = options.pretrain_max_epochs;
    pretrain_config.seed = util::mix_seed(pretrain_seed, 0xB402);
    pretrain_config.hooks = options.hooks;
    const auto pretrain = pretrain_byol(network, pool.flows, views, pretrain_config);

    auto result =
        finetune_few_shot(network.online, pool, data, model_config, finetune_seed, options);
    result.pretrain_epochs = pretrain.epochs_run;
    result.top5_accuracy = 0.0; // BYOL has no contrastive accuracy (no negatives)
    result.retries += pretrain.retries;
    result.faults_detected += pretrain.faults_detected;
    return result;
}

} // namespace fptc::core

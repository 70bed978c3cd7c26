#include "campaign.hpp"

#include "timed_layer.hpp"

#include "fptc/core/guard.hpp"
#include "fptc/core/simclr.hpp"
#include "fptc/core/trainer.hpp"
#include "fptc/flow/split.hpp"
#include "fptc/gbt/gbt.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/optimizer.hpp"
#include "fptc/util/rng.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace perfbench {

namespace core = fptc::core;
namespace nn = fptc::nn;
namespace util = fptc::util;
namespace flow = fptc::flow;

namespace {

// Table-4 default-scale settings (bench/table4_augmentations at 32x32),
// with the epochs capped below the early-stopping patience + 1 (supervised
// patience 5, SimCLR patience 3).  Every cell then runs exactly that many
// epochs, wherever early stopping would fall, so a cell is a fixed amount
// of work; and the caps keep a run of three blocks under a minute.
constexpr std::size_t kResolution = 32;
constexpr int kAugmentCopies = 3;
constexpr int kMaxEpochs = 4;
constexpr int kPretrainMaxEpochs = 3;
constexpr auto kAugmentation = fptc::augment::AugmentationKind::change_rtt;

core::SupervisedOptions supervised_options()
{
    core::SupervisedOptions options;
    options.flowpic.resolution = kResolution;
    options.augment_copies = kAugmentCopies;
    options.max_epochs = kMaxEpochs;
    return options;
}

core::SimClrOptions simclr_options()
{
    core::SimClrOptions options;
    options.flowpic.resolution = kResolution;
    options.pretrain_max_epochs = kPretrainMaxEpochs;
    return options;
}

double percent(const fptc::stats::ConfusionMatrix& confusion)
{
    return 100.0 * confusion.accuracy();
}

double seconds_since(std::uint64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Spans of the traced run; inert (null recorder) in the timed run.
struct Tracer {
    SpanRecorder* recorder = nullptr;

    [[nodiscard]] ScopedSpan span(const std::string& name) const
    {
        return ScopedSpan(recorder, recorder == nullptr ? 0 : recorder->intern(name));
    }
};

// ---------------------------------------------------------------------------
// Table-3 GBT cell (flowpic input): bench/table3_ml_baseline's run_unit.
// ---------------------------------------------------------------------------

std::vector<float> flowpic_features(const flow::Flow& f)
{
    fptc::flowpic::FlowpicConfig config;
    config.resolution = kResolution;
    return fptc::flowpic::Flowpic::from_flow(f, config).flattened();
}

CellResult gbt_cell(const core::UcdavisData& data, const CampaignSeeds& seeds,
                    const Tracer& tracer, Tally* tally)
{
    const std::uint64_t start = now_ns();
    const auto cell_span = tracer.span("cell.gbt");
    const auto selection = flow::fixed_per_class_split(data.pretraining, 100, seeds.split);
    std::vector<std::vector<float>> train_x;
    std::vector<std::size_t> train_y;
    {
        const auto span = tracer.span("flowpic.rasterize");
        for (const auto index : selection.train) {
            train_x.push_back(flowpic_features(data.pretraining.flows[index]));
            train_y.push_back(data.pretraining.flows[index].label);
        }
    }
    util::Rng rng(util::mix_seed(99, seeds.split, seeds.gbt));
    const auto picked = rng.sample_without_replacement(train_x.size(), train_x.size() * 8 / 10);
    std::vector<std::vector<float>> seed_x;
    std::vector<std::size_t> seed_y;
    seed_x.reserve(picked.size());
    for (const auto i : picked) {
        seed_x.push_back(train_x[i]);
        seed_y.push_back(train_y[i]);
    }
    fptc::gbt::GbtClassifier model(fptc::gbt::GbtConfig{}, data.num_classes());
    {
        const auto span = tracer.span("gbt.fit");
        model.fit(seed_x, seed_y);
    }
    const auto score = [&](const flow::Dataset& test) {
        fptc::stats::ConfusionMatrix confusion(data.num_classes());
        for (const auto& f : test.flows) {
            std::vector<float> features;
            {
                const auto span = tracer.span("flowpic.rasterize");
                features = flowpic_features(f);
            }
            const auto span = tracer.span("gbt.predict");
            confusion.add(f.label, model.predict(features));
        }
        return percent(confusion);
    };
    CellResult result;
    result.script_acc = score(data.script);
    result.human_acc = score(data.human);
    if (tally != nullptr) {
        (*tally)["flows_rasterized"] += static_cast<double>(
            selection.train.size() + data.script.size() + data.human.size());
    }
    result.wall_s = seconds_since(start);
    return result;
}

// ---------------------------------------------------------------------------
// Traced recomposition of core::run_ucdavis_supervised / run_ucdavis_simclr.
// Every step mirrors src/core (campaign.cpp, trainer.cpp, simclr.cpp) so the
// arithmetic, and therefore every accuracy, is identical.
// ---------------------------------------------------------------------------

std::vector<flow::Flow> materialize(const flow::Dataset& dataset,
                                    const std::vector<std::size_t>& indices)
{
    std::vector<flow::Flow> flows;
    flows.reserve(indices.size());
    for (const auto i : indices) {
        flows.push_back(dataset.flows[i]);
    }
    return flows;
}

std::vector<std::size_t> cap_indices(std::vector<std::size_t> indices, std::size_t cap,
                                     std::uint64_t seed)
{
    if (cap == 0 || indices.size() <= cap) {
        return indices;
    }
    util::Rng rng(seed);
    rng.shuffle(indices);
    indices.resize(cap);
    return indices;
}

std::vector<flow::Flow> take_per_class(const flow::Dataset& dataset,
                                       const std::vector<std::size_t>& indices,
                                       std::size_t per_class, util::Rng& rng)
{
    std::vector<std::vector<std::size_t>> by_class(dataset.num_classes());
    for (const auto i : indices) {
        by_class[dataset.flows[i].label].push_back(i);
    }
    std::vector<flow::Flow> result;
    for (auto& bucket : by_class) {
        rng.shuffle(bucket);
        const std::size_t take = std::min(per_class, bucket.size());
        for (std::size_t i = 0; i < take; ++i) {
            result.push_back(dataset.flows[bucket[i]]);
        }
    }
    return result;
}

core::SampleSet traced_rasterize(std::span<const flow::Flow> flows, const Tracer& tracer,
                                 Tally& tally)
{
    const auto span = tracer.span("flowpic.rasterize");
    tally["flows_rasterized"] += static_cast<double>(flows.size());
    return core::rasterize(flows, supervised_options().flowpic);
}

/// core::train_supervised with a span per phase; `view` forwards to
/// `network`.  Returns the divergence rollbacks performed.
int traced_train(nn::Sequential& network, nn::Sequential& view, const core::SampleSet& train,
                 const core::SampleSet& validation, const core::TrainConfig& config,
                 const Tracer& tracer, Tally& tally)
{
    util::Rng rng(config.seed);
    auto optimizer = std::make_unique<nn::Adam>(view.parameters(), config.learning_rate);
    core::DivergenceGuard guard(view.parameters(), config.guard);
    std::vector<std::size_t> order(train.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    double best_monitored = std::numeric_limits<double>::infinity();
    int epochs_since_improvement = 0;
    for (int epoch = 0; epoch < config.max_epochs;) {
        const auto epoch_span = tracer.span("core.train_epoch");
        rng.shuffle(order);
        bool diverged = false;
        for (std::size_t start = 0; start < order.size(); start += config.batch_size) {
            const std::size_t end = std::min(start + config.batch_size, order.size());
            const std::span<const std::size_t> batch_indices(order.data() + start, end - start);
            nn::Tensor inputs;
            std::vector<std::size_t> batch_labels(batch_indices.size());
            {
                const auto span = tracer.span("core.batch");
                inputs = train.batch(batch_indices);
                for (std::size_t i = 0; i < batch_indices.size(); ++i) {
                    batch_labels[i] = train.labels[batch_indices[i]];
                }
            }
            tally["nn.train.samples"] += static_cast<double>(batch_indices.size());
            const auto logits = view.forward(inputs, /*training=*/true);
            nn::LossResult loss;
            {
                const auto span = tracer.span("nn.loss");
                loss = nn::cross_entropy(logits, batch_labels);
            }
            view.zero_grad();
            (void)view.backward(loss.grad);
            {
                const auto span = tracer.span("core.guard");
                diverged = guard.step_diverged(loss.loss);
            }
            if (diverged) {
                break;
            }
            const auto span = tracer.span("nn.optimizer_step");
            optimizer->step();
        }
        if (diverged) {
            if (!guard.rollback()) {
                throw core::DivergenceError("traced supervised cell: retry budget exhausted");
            }
            optimizer = std::make_unique<nn::Adam>(view.parameters(), config.learning_rate);
            rng = util::Rng(guard.retry_seed(config.seed));
            continue;
        }
        guard.commit();
        double monitored = 0.0;
        {
            const auto span = tracer.span("core.validate");
            monitored = core::evaluate_loss(network, validation);
        }
        if (monitored < best_monitored - config.min_delta) {
            best_monitored = monitored;
            epochs_since_improvement = 0;
        } else if (++epochs_since_improvement >= config.patience) {
            break;
        }
        ++epoch;
    }
    return guard.retries();
}

CellResult traced_supervised_cell(const core::UcdavisData& data, const CampaignSeeds& seeds,
                                  const Tracer& tracer, Tally& tally)
{
    const std::uint64_t start = now_ns();
    const auto cell_span = tracer.span("cell.sup");
    const auto options = supervised_options();
    const auto split = flow::fixed_per_class_split(data.pretraining, options.per_class,
                                                   seeds.split);
    const auto tv = flow::train_validation_split(split.train, 0.8, seeds.train);
    const auto train_flows = materialize(data.pretraining, tv.train);
    const auto val_flows = materialize(data.pretraining, tv.validation);
    const auto leftover_flows = materialize(
        data.pretraining,
        cap_indices(split.test, options.leftover_cap, util::mix_seed(seeds.split, 0x1EF7)));

    util::Rng augment_rng(util::mix_seed(seeds.train, 0xA06));
    core::SampleSet train_set;
    {
        const auto span = tracer.span("augment.set");
        train_set = core::augment_set(train_flows, kAugmentation, options.augment_copies,
                                      options.flowpic, augment_rng);
    }
    const auto val_set = traced_rasterize(val_flows, tracer, tally);

    nn::ModelConfig model_config;
    model_config.flowpic_dim = kResolution;
    model_config.num_classes = data.num_classes();
    model_config.with_dropout = options.with_dropout;
    model_config.seed = util::mix_seed(seeds.train, 0xF00D);
    nn::Sequential network = nn::make_supervised_network(model_config);
    LayerNamer namer;
    nn::Sequential view = timed_view(network, *tracer.recorder, "nn.train", namer);

    core::TrainConfig train_config;
    train_config.batch_size = options.batch_size;
    train_config.max_epochs = options.max_epochs;
    train_config.seed = util::mix_seed(seeds.train, 0xBEEF);
    const int retries =
        traced_train(network, view, train_set, val_set, train_config, tracer, tally);

    const auto script_set = traced_rasterize(data.script.flows, tracer, tally);
    const auto human_set = traced_rasterize(data.human.flows, tracer, tally);
    const auto leftover_set = traced_rasterize(leftover_flows, tracer, tally);
    CellResult result;
    {
        const auto span = tracer.span("core.evaluate");
        result.script_acc = percent(core::evaluate(network, script_set, data.num_classes()));
        result.human_acc = percent(core::evaluate(network, human_set, data.num_classes()));
        result.leftover_acc =
            percent(core::evaluate(network, leftover_set, data.num_classes()));
    }
    result.retries = retries;
    result.degraded = train_set.quarantined > 0 || val_set.quarantined > 0;
    result.wall_s = seconds_since(start);
    return result;
}

/// pretrain_simclr's loop (src/core/simclr.cpp) with a span per phase.
/// Returns the divergence rollbacks performed.
int traced_pretrain(nn::SimClrNetwork& view, std::span<const flow::Flow> flows,
                    const fptc::augment::ViewPairGenerator& views,
                    const core::SimClrConfig& config, const Tracer& tracer, Tally& tally)
{
    util::Rng rng(config.seed);
    auto optimizer = std::make_unique<nn::Adam>(view.parameters(), config.learning_rate);
    core::DivergenceGuard guard(view.parameters(), config.guard);
    const std::size_t dim = nn::effective_input_dim(views.config().resolution);
    const std::size_t plane = dim * dim;
    std::vector<std::size_t> order(flows.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    double best_top5 = 0.0;
    int epochs_since_improvement = 0;
    const auto normalize = [](std::vector<float>& image) {
        float max_value = 0.0f;
        for (const float v : image) {
            max_value = std::max(max_value, v);
        }
        if (max_value > 0.0f) {
            for (auto& v : image) {
                v /= max_value;
            }
        }
    };
    for (int epoch = 0; epoch < config.max_epochs;) {
        const auto epoch_span = tracer.span("core.pretrain_epoch");
        rng.shuffle(order);
        double epoch_top5 = 0.0;
        std::size_t batches = 0;
        bool diverged = false;
        for (std::size_t start = 0; start + 1 < order.size(); start += config.batch_samples) {
            const std::size_t end = std::min(start + config.batch_samples, order.size());
            const std::size_t batch_size = end - start;
            if (batch_size < 2) {
                break;
            }
            nn::Tensor inputs({2 * batch_size, 1, dim, dim});
            auto data = inputs.data();
            for (std::size_t i = 0; i < batch_size; ++i) {
                auto [view_a, view_b] = [&] {
                    const auto span = tracer.span("augment.view_pair");
                    return views.view_pair(flows[order[start + i]], rng);
                }();
                const auto span = tracer.span("flowpic.view_image");
                auto image_a = core::pool_to_effective(view_a);
                auto image_b = core::pool_to_effective(view_b);
                normalize(image_a);
                normalize(image_b);
                std::copy(image_a.begin(), image_a.end(),
                          data.begin() + static_cast<std::ptrdiff_t>((2 * i) * plane));
                std::copy(image_b.begin(), image_b.end(),
                          data.begin() + static_cast<std::ptrdiff_t>((2 * i + 1) * plane));
            }
            tally["nn.train.samples"] += static_cast<double>(2 * batch_size);
            const auto projections = view.forward(inputs, /*training=*/true);
            nn::LossResult loss;
            {
                const auto span = tracer.span("nn.ntxent");
                loss = nn::nt_xent(projections, config.temperature);
            }
            view.zero_grad();
            view.backward(loss.grad);
            {
                const auto span = tracer.span("core.guard");
                diverged = guard.step_diverged(loss.loss);
            }
            if (diverged) {
                break;
            }
            {
                const auto span = tracer.span("nn.optimizer_step");
                optimizer->step();
            }
            const auto span = tracer.span("nn.top5");
            epoch_top5 += nn::contrastive_top_k_accuracy(projections, 5);
            ++batches;
        }
        if (diverged) {
            if (!guard.rollback()) {
                throw core::DivergenceError("traced SimCLR cell: retry budget exhausted");
            }
            optimizer = std::make_unique<nn::Adam>(view.parameters(), config.learning_rate);
            rng = util::Rng(guard.retry_seed(config.seed));
            continue;
        }
        if (batches == 0) {
            break;
        }
        guard.commit();
        const double top5 = epoch_top5 / static_cast<double>(batches);
        if (top5 > best_top5 + 1e-4) {
            best_top5 = top5;
            epochs_since_improvement = 0;
        } else if (++epochs_since_improvement >= config.patience) {
            break;
        }
        ++epoch;
    }
    return guard.retries();
}

CellResult traced_simclr_cell(const core::UcdavisData& data, const CampaignSeeds& seeds,
                              const Tracer& tracer, Tally& tally)
{
    const std::uint64_t start = now_ns();
    const auto cell_span = tracer.span("cell.simclr");
    const auto options = simclr_options();
    const auto split = flow::fixed_per_class_split(data.pretraining, options.per_class,
                                                   seeds.split);
    const auto pool_flows = materialize(data.pretraining, split.train);

    nn::ModelConfig model_config;
    model_config.flowpic_dim = kResolution;
    model_config.num_classes = data.num_classes();
    model_config.with_dropout = options.with_dropout;
    model_config.projection_dim = options.projection_dim;
    model_config.seed = util::mix_seed(seeds.pretrain, 0x51C);
    auto network = nn::make_simclr_network(model_config);
    LayerNamer namer;
    nn::SimClrNetwork view{timed_view(network.trunk, *tracer.recorder, "nn.train", namer),
                           timed_view(network.projection, *tracer.recorder, "nn.train", namer)};
    const fptc::augment::ViewPairGenerator views(options.first, options.second, options.flowpic);

    core::SimClrConfig pretrain_config;
    pretrain_config.batch_samples = options.batch_samples;
    pretrain_config.max_epochs = options.pretrain_max_epochs;
    pretrain_config.seed = util::mix_seed(seeds.pretrain, 0x517);
    const int retries = traced_pretrain(view, pool_flows, views, pretrain_config, tracer, tally);

    util::Rng label_rng(util::mix_seed(seeds.finetune, 0xF1E7));
    std::vector<std::size_t> pool_indices(pool_flows.size());
    for (std::size_t i = 0; i < pool_indices.size(); ++i) {
        pool_indices[i] = i;
    }
    flow::Dataset pool_dataset;
    pool_dataset.class_names = data.pretraining.class_names;
    pool_dataset.flows = pool_flows;
    const auto labeled =
        take_per_class(pool_dataset, pool_indices, options.finetune_per_class, label_rng);
    const auto train_set = traced_rasterize(labeled, tracer, tally);
    const auto script_set = traced_rasterize(data.script.flows, tracer, tally);
    const auto human_set = traced_rasterize(data.human.flows, tracer, tally);

    nn::ModelConfig head_config = model_config;
    head_config.seed = util::mix_seed(seeds.finetune, 0x4EAD);
    auto head = nn::make_finetune_head(head_config);
    int head_retries = 0;
    {
        const auto span = tracer.span("core.finetune");
        const auto train_embedded = core::embed_set(network, train_set);
        head_retries =
            core::train_head(head, train_embedded,
                             core::finetune_config(util::mix_seed(seeds.finetune, 0x7A1)))
                .retries;
    }
    CellResult result;
    {
        const auto span = tracer.span("core.simclr_evaluate");
        result.script_acc = percent(
            core::evaluate_head(head, core::embed_set(network, script_set), data.num_classes()));
        result.human_acc = percent(
            core::evaluate_head(head, core::embed_set(network, human_set), data.num_classes()));
    }
    result.retries = retries + head_retries;
    result.wall_s = seconds_since(start);
    return result;
}

} // namespace

const char* cell_name(CellKind kind) noexcept
{
    switch (kind) {
    case CellKind::sup: return "sup";
    case CellKind::simclr: return "simclr";
    case CellKind::gbt: return "gbt";
    }
    return "?";
}

CellResult run_cell(CellKind kind, const core::UcdavisData& data, const CampaignSeeds& seeds)
{
    const std::uint64_t start = now_ns();
    CellResult cell;
    try {
        switch (kind) {
        case CellKind::sup: {
            const auto run = core::run_ucdavis_supervised(data, kAugmentation, seeds.split,
                                                          seeds.train, supervised_options());
            cell.script_acc = percent(run.script_confusion);
            cell.human_acc = percent(run.human_confusion);
            cell.leftover_acc = percent(run.leftover_confusion);
            cell.retries = run.retries;
            break;
        }
        case CellKind::simclr: {
            const auto run = core::run_ucdavis_simclr(data, seeds.split, seeds.pretrain,
                                                      seeds.finetune, simclr_options());
            cell.script_acc = percent(run.script_confusion);
            cell.human_acc = percent(run.human_confusion);
            cell.retries = run.retries;
            break;
        }
        case CellKind::gbt: cell = gbt_cell(data, seeds, Tracer{}, nullptr); break;
        }
    } catch (const std::exception&) {
        cell.degraded = true;
    }
    cell.wall_s = seconds_since(start);
    return cell;
}

CellResult run_cell_traced(CellKind kind, const core::UcdavisData& data,
                           const CampaignSeeds& seeds, SpanRecorder& recorder, Tally& tally)
{
    const Tracer tracer{&recorder};
    switch (kind) {
    case CellKind::sup: return traced_supervised_cell(data, seeds, tracer, tally);
    case CellKind::simclr: return traced_simclr_cell(data, seeds, tracer, tally);
    case CellKind::gbt: return gbt_cell(data, seeds, tracer, &tally);
    }
    throw std::invalid_argument("unknown cell");
}

} // namespace perfbench

#include "fptc/core/campaign.hpp"

#include "loop.hpp"

#include "fptc/util/log.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fptc::core {

UcdavisData load_ucdavis(double samples_scale, std::uint64_t seed)
{
    trafficgen::UcdavisOptions options;
    options.samples_scale = samples_scale;
    options.seed = seed;
    UcdavisData data;
    data.pretraining = trafficgen::make_ucdavis19(trafficgen::UcdavisPartition::pretraining, options);
    data.script = trafficgen::make_ucdavis19(trafficgen::UcdavisPartition::script, options);
    data.human = trafficgen::make_ucdavis19(trafficgen::UcdavisPartition::human, options);
    return data;
}

namespace {

/// Up to `per_class` flows of each class of `dataset`, each class's pick
/// shuffled by `rng` in class order.
[[nodiscard]] std::vector<flow::Flow> take_per_class(const flow::Dataset& dataset,
                                                     std::size_t per_class, util::Rng& rng)
{
    std::vector<std::vector<std::size_t>> by_class(dataset.num_classes());
    for (std::size_t i = 0; i < dataset.flows.size(); ++i) {
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

[[nodiscard]] std::vector<flow::Flow> materialize(const flow::Dataset& dataset,
                                                  const std::vector<std::size_t>& indices)
{
    std::vector<flow::Flow> flows;
    flows.reserve(indices.size());
    for (const auto i : indices) {
        flows.push_back(dataset.flows[i]);
    }
    return flows;
}

/// Subsample a test index list to a cap (0 disables the cap).
[[nodiscard]] std::vector<std::size_t> cap_indices(std::vector<std::size_t> indices,
                                                   std::size_t cap, std::uint64_t seed)
{
    if (cap == 0 || indices.size() <= cap) {
        return indices;
    }
    util::Rng rng(seed);
    rng.shuffle(indices);
    indices.resize(cap);
    return indices;
}

/// Rasterize honoring the directional flag of the options.
[[nodiscard]] SampleSet rasterize_for(const SupervisedOptions& options,
                                      std::span<const flow::Flow> flows)
{
    FPTC_TRACE_SPAN("dataset");
    return options.directional ? rasterize_directional(flows, options.flowpic)
                               : rasterize(flows, options.flowpic);
}

/// Augment honoring the directional flag of the options.
[[nodiscard]] SampleSet augment_for(const SupervisedOptions& options,
                                    std::span<const flow::Flow> flows,
                                    augment::AugmentationKind kind, util::Rng& rng)
{
    FPTC_TRACE_SPAN("dataset");
    return options.directional
               ? augment_set_directional(flows, kind, options.augment_copies, options.flowpic, rng)
               : augment_set(flows, kind, options.augment_copies, options.flowpic, rng);
}

/// Data-boundary guard: quarantined samples (corrupt tensors scrubbed by
/// core/data) are logged and tolerated while the set stays usable; an empty
/// or majority-quarantined set throws so the executor degrades the cell
/// (†N) instead of letting corruption skew a mean±CI.
void require_usable(const SampleSet& set, const char* what)
{
    if (set.quarantined > 0) {
        util::log_info("campaign: quarantined " + std::to_string(set.quarantined) +
                       " corrupt " + what + " sample(s)");
    }
    if (set.size() == 0 || set.quarantined > set.size()) {
        throw std::runtime_error(std::string("campaign: ") + what + " sample set unusable (" +
                                 std::to_string(set.size()) + " kept, " +
                                 std::to_string(set.quarantined) + " quarantined)");
    }
}

/// Train a supervised LeNet per the paper's protocol on pre-built sets.
[[nodiscard]] std::pair<nn::Sequential, TrainResult> train_lenet(const SampleSet& train,
                                                                 const SampleSet& validation,
                                                                 std::size_t num_classes,
                                                                 const SupervisedOptions& options,
                                                                 std::uint64_t train_seed)
{
    require_usable(train, "training");
    require_usable(validation, "validation");
    nn::ModelConfig model_config;
    model_config.flowpic_dim = options.flowpic.resolution;
    model_config.input_channels = options.directional ? 2 : 1;
    model_config.num_classes = num_classes;
    model_config.with_dropout = options.with_dropout;
    model_config.seed = util::mix_seed(train_seed, 0xF00D);

    nn::Sequential network = nn::make_supervised_network(model_config);
    TrainConfig train_config;
    train_config.batch_size = options.batch_size;
    train_config.max_epochs = options.max_epochs;
    train_config.seed = util::mix_seed(train_seed, 0xBEEF);
    train_config.hooks = options.hooks;
    auto result = train_supervised(network, train, validation, train_config);
    return {std::move(network), std::move(result)};
}

} // namespace

SupervisedRunResult run_ucdavis_supervised(const UcdavisData& data,
                                           augment::AugmentationKind augmentation,
                                           std::uint64_t split_seed, std::uint64_t train_seed,
                                           const SupervisedOptions& options)
{
    // 100-per-class split from the pretraining partition; the rest is the
    // "leftover" test set of Table 4.
    const auto split =
        flow::fixed_per_class_split(data.pretraining, options.per_class, split_seed);
    // 80/20 train/validation split of the selected samples.
    const auto tv = flow::train_validation_split(split.train, 0.8, train_seed);

    const auto train_flows = materialize(data.pretraining, tv.train);
    const auto val_flows = materialize(data.pretraining, tv.validation);
    const auto leftover_indices =
        cap_indices(split.test, options.leftover_cap, util::mix_seed(split_seed, 0x1EF7));
    const auto leftover_flows = materialize(data.pretraining, leftover_indices);

    util::Rng augment_rng(util::mix_seed(train_seed, 0xA06));
    const auto train_set = augment_for(options, train_flows, augmentation, augment_rng);
    const auto val_set = rasterize_for(options, val_flows);

    auto [network, training] =
        train_lenet(train_set, val_set, data.num_classes(), options, train_seed);

    const auto score = [&](std::span<const flow::Flow> flows) {
        return evaluate(network, rasterize_for(options, flows), data.num_classes());
    };
    return SupervisedRunResult{
        .script_confusion = score(data.script.flows),
        .human_confusion = score(data.human.flows),
        .leftover_confusion = score(leftover_flows),
        .epochs_run = training.epochs_run,
        .retries = training.retries,
        .faults_detected = training.faults_detected,
    };
}

namespace {

/// Pre-train a SimCLR network on `pool` (SimCLR, or SupCon when
/// `supervised`), then fine-tune a few-shot head from the same pool.
[[nodiscard]] SimClrRunResult pretrain_and_finetune(const UcdavisData& data,
                                                    const flow::Dataset& pool,
                                                    std::uint64_t pretrain_seed,
                                                    std::uint64_t finetune_seed,
                                                    const SimClrOptions& options, bool supervised)
{
    nn::ModelConfig model_config;
    model_config.flowpic_dim = options.flowpic.resolution;
    model_config.num_classes = data.num_classes();
    model_config.with_dropout = options.with_dropout;
    model_config.projection_dim = options.projection_dim;
    model_config.seed = util::mix_seed(pretrain_seed, 0x51C);
    auto network = nn::make_simclr_network(model_config);
    const augment::ViewPairGenerator views(options.first, options.second, options.flowpic);

    SimClrConfig pretrain_config;
    pretrain_config.batch_samples = options.batch_samples;
    pretrain_config.max_epochs = options.pretrain_max_epochs;
    pretrain_config.seed = util::mix_seed(pretrain_seed, 0x517);
    pretrain_config.hooks = options.hooks;
    const auto pretrain = supervised ? pretrain_supcon(network, pool.flows, views, pretrain_config)
                                     : pretrain_simclr(network, pool.flows, views, pretrain_config);

    auto result = finetune_few_shot(network, pool, data, model_config, finetune_seed, options);
    result.pretrain_epochs = pretrain.epochs_run;
    result.top5_accuracy = pretrain.best_top5_accuracy;
    result.retries += pretrain.retries;
    result.faults_detected += pretrain.faults_detected;
    return result;
}

/// Contrastive run of the Table 5/6 protocol on a 100-per-class pool.
[[nodiscard]] SimClrRunResult run_ucdavis_contrastive(const UcdavisData& data,
                                                      std::uint64_t split_seed,
                                                      std::uint64_t pretrain_seed,
                                                      std::uint64_t finetune_seed,
                                                      const SimClrOptions& options,
                                                      bool supervised)
{
    const auto split =
        flow::fixed_per_class_split(data.pretraining, options.per_class, split_seed);
    flow::Dataset pool;
    pool.class_names = data.pretraining.class_names;
    pool.flows = materialize(data.pretraining, split.train);
    return pretrain_and_finetune(data, pool, pretrain_seed, finetune_seed, options, supervised);
}

} // namespace

SimClrRunResult run_ucdavis_simclr(const UcdavisData& data, std::uint64_t split_seed,
                                   std::uint64_t pretrain_seed, std::uint64_t finetune_seed,
                                   const SimClrOptions& options)
{
    return run_ucdavis_contrastive(data, split_seed, pretrain_seed, finetune_seed, options,
                                   /*supervised=*/false);
}

SimClrRunResult run_ucdavis_supcon(const UcdavisData& data, std::uint64_t split_seed,
                                   std::uint64_t pretrain_seed, std::uint64_t finetune_seed,
                                   const SimClrOptions& options)
{
    return run_ucdavis_contrastive(data, split_seed, pretrain_seed, finetune_seed, options,
                                   /*supervised=*/true);
}

SupervisedRunResult run_ucdavis_enlarged_supervised(const UcdavisData& data,
                                                    augment::AugmentationKind augmentation,
                                                    std::uint64_t seed,
                                                    const SupervisedOptions& options)
{
    std::vector<std::size_t> all(data.pretraining.flows.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const auto tv = flow::train_validation_split(all, 0.8, seed);
    const auto train_flows = materialize(data.pretraining, tv.train);
    const auto val_flows = materialize(data.pretraining, tv.validation);

    util::Rng augment_rng(util::mix_seed(seed, 0xA06));
    const auto train_set = augment_for(options, train_flows, augmentation, augment_rng);
    const auto val_set = rasterize_for(options, val_flows);

    auto [network, training] = train_lenet(train_set, val_set, data.num_classes(), options, seed);

    return SupervisedRunResult{
        .script_confusion =
            evaluate(network, rasterize_for(options, data.script.flows), data.num_classes()),
        .human_confusion =
            evaluate(network, rasterize_for(options, data.human.flows), data.num_classes()),
        .leftover_confusion = stats::ConfusionMatrix(data.num_classes()),
        .epochs_run = training.epochs_run,
        .retries = training.retries,
        .faults_detected = training.faults_detected,
    };
}

SimClrRunResult run_ucdavis_enlarged_simclr(const UcdavisData& data, std::uint64_t seed,
                                            const SimClrOptions& options)
{
    return pretrain_and_finetune(data, data.pretraining, seed, seed, options,
                                 /*supervised=*/false);
}

SimClrRunResult finetune_few_shot(nn::SimClrNetwork& trunk, const flow::Dataset& pool,
                                  const UcdavisData& data, const nn::ModelConfig& model_config,
                                  std::uint64_t finetune_seed, const SimClrOptions& options)
{
    util::Rng label_rng(util::mix_seed(finetune_seed, 0xF1E7));
    const auto labeled = take_per_class(pool, options.finetune_per_class, label_rng);

    nn::ModelConfig head_config = model_config;
    head_config.seed = util::mix_seed(finetune_seed, 0x4EAD);
    auto head = nn::make_finetune_head(head_config);
    auto ft_config = finetune_config(util::mix_seed(finetune_seed, 0x7A1));
    ft_config.hooks = options.hooks;
    const auto head_result =
        train_head(head, embed_set(trunk, rasterize(labeled, options.flowpic)), ft_config);

    const auto score = [&](const flow::Dataset& partition) {
        return evaluate_head(head, embed_set(trunk, rasterize(partition.flows, options.flowpic)),
                             data.num_classes());
    };
    return SimClrRunResult{
        .script_confusion = score(data.script),
        .human_confusion = score(data.human),
        .retries = head_result.retries,
        .faults_detected = head_result.faults_detected,
    };
}

ReplicationRunResult run_replication_supervised(const flow::Dataset& dataset,
                                                augment::AugmentationKind augmentation,
                                                std::uint64_t split_seed, std::uint64_t train_seed,
                                                const SupervisedOptions& options)
{
    const auto split = flow::stratified_split(dataset, 0.8, 0.1, split_seed);
    const auto train_flows = materialize(dataset, split.train);
    const auto val_flows = materialize(dataset, split.validation);
    const auto test_flows = materialize(dataset, split.test);

    util::Rng augment_rng(util::mix_seed(train_seed, 0xA06));
    const auto train_set = augment_for(options, train_flows, augmentation, augment_rng);
    const auto val_set = rasterize_for(options, val_flows);

    auto [network, training] =
        train_lenet(train_set, val_set, dataset.num_classes(), options, train_seed);

    return ReplicationRunResult{
        .test_confusion =
            evaluate(network, rasterize_for(options, test_flows), dataset.num_classes()),
        .epochs_run = training.epochs_run,
        .retries = training.retries,
        .faults_detected = training.faults_detected,
    };
}

} // namespace fptc::core

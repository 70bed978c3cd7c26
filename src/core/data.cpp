#include "fptc/core/data.hpp"

#include "fptc/nn/models.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fptc::core {

nn::Tensor SampleSet::batch(std::span<const std::size_t> indices) const
{
    if (indices.empty()) {
        throw std::invalid_argument("SampleSet::batch: empty index list");
    }
    nn::Tensor out({indices.size(), channels, dim, dim});
    auto data = out.data();
    const std::size_t plane = channels * dim * dim;
    for (std::size_t b = 0; b < indices.size(); ++b) {
        const auto& image = images.at(indices[b]);
        std::copy(image.begin(), image.end(), data.begin() + static_cast<std::ptrdiff_t>(b * plane));
    }
    return out;
}

nn::Tensor SampleSet::batch(std::size_t begin, std::size_t end) const
{
    std::vector<std::size_t> indices(end - begin);
    std::iota(indices.begin(), indices.end(), begin);
    return batch(indices);
}

nn::Tensor SampleSet::tensor_of(std::size_t index) const
{
    return batch(index, index + 1);
}

void SampleSet::append(const SampleSet& other)
{
    if (other.dim != dim || other.channels != channels) {
        throw std::invalid_argument("SampleSet::append: shape mismatch");
    }
    std::size_t added_bytes = 0;
    for (const auto& image : other.images) {
        added_bytes += image.size() * sizeof(float);
    }
    storage.grow(added_bytes);
    images.insert(images.end(), other.images.begin(), other.images.end());
    labels.insert(labels.end(), other.labels.begin(), other.labels.end());
    quarantined += other.quarantined;
}

std::vector<float> pool_to_effective(const flowpic::Flowpic& pic)
{
    const std::size_t n = pic.resolution();
    const std::size_t effective = nn::effective_input_dim(n);
    if (effective == n) {
        return {pic.counts().begin(), pic.counts().end()};
    }
    const std::size_t window = n / 64;
    std::vector<float> pooled(effective * effective, 0.0f);
    const auto counts = pic.counts();
    for (std::size_t r = 0; r < effective; ++r) {
        for (std::size_t c = 0; c < effective; ++c) {
            float best = 0.0f;
            for (std::size_t wy = 0; wy < window; ++wy) {
                for (std::size_t wx = 0; wx < window; ++wx) {
                    best = std::max(best, counts[(r * window + wy) * n + (c * window + wx)]);
                }
            }
            pooled[r * effective + c] = best;
        }
    }
    return pooled;
}

namespace {

/// First hard semantic defect in a flowpic tensor, or empty when it honors
/// the insertion-time contract (shape, finiteness, non-negativity).  These
/// defects cannot be produced by the rasterize/augment pipeline on valid
/// input — color jitter clamps at zero and counts are accumulations of
/// non-negative packet sizes — so any hit indicates corruption (bad cache,
/// injected fault, memory damage) and the sample is quarantined rather than
/// averaged into a mean±CI.
[[nodiscard]] std::string image_defect(const std::vector<float>& image, std::size_t expected_size)
{
    if (image.size() != expected_size) {
        return "shape mismatch (" + std::to_string(image.size()) + " values, expected " +
               std::to_string(expected_size) + ")";
    }
    for (const float v : image) {
        if (!std::isfinite(v)) {
            return "non-finite value";
        }
        if (v < 0.0f) {
            return "negative value";
        }
    }
    return {};
}

void normalize_image(std::vector<float>& image)
{
    // Per-image max normalization for the CNN input.
    float max_value = 0.0f;
    for (const float v : image) {
        max_value = std::max(max_value, v);
    }
    if (max_value > 0.0f) {
        for (auto& v : image) {
            v /= max_value;
        }
    }
}

/// Push one normalized sample image, or quarantine it when it breaks the
/// insertion-time contract.
void push_image(SampleSet& set, std::vector<float> image, std::size_t label)
{
    if (!image_defect(image, set.channels * set.dim * set.dim).empty()) {
        ++set.quarantined;
        util::metrics().counter("fptc_data_quarantined_total").add(1);
        return;
    }
    set.storage.grow(image.size() * sizeof(float));
    set.images.push_back(std::move(image));
    set.labels.push_back(label);
}

/// Push a 2-channel (upstream, downstream) sample; both channels share one
/// normalization so their relative magnitudes stay meaningful.
void push_directional_sample(SampleSet& set, const flowpic::Flowpic& up,
                             const flowpic::Flowpic& down, std::size_t label)
{
    auto planes = pool_to_effective(up);
    const auto down_plane = pool_to_effective(down);
    planes.insert(planes.end(), down_plane.begin(), down_plane.end());
    normalize_image(planes);
    push_image(set, std::move(planes), label);
}

} // namespace

std::vector<float> view_image(const flowpic::Flowpic& pic)
{
    auto image = pool_to_effective(pic);
    normalize_image(image);
    return image;
}

SampleValidationReport validate_samples(SampleSet& set)
{
    SampleValidationReport report;
    const std::size_t expected = set.channels * set.dim * set.dim;
    std::size_t kept = 0;
    std::size_t freed_bytes = 0;
    for (std::size_t i = 0; i < set.images.size(); ++i) {
        ++report.checked;
        std::string defect = image_defect(set.images[i], expected);
        if (defect.empty()) {
            // Full-contract checks beyond the insertion-time subset: the set
            // stores max-normalized images, so values above 1 or an all-zero
            // tensor mark a sample that never went through normalize_image.
            float mass = 0.0f;
            float max_value = 0.0f;
            for (const float v : set.images[i]) {
                mass += v;
                max_value = std::max(max_value, v);
            }
            if (max_value > 1.0f + 1e-4f) {
                defect = "value above normalized max (" + std::to_string(max_value) + ")";
            } else if (mass <= 0.0f) {
                defect = "zero mass (empty flowpic)";
            }
        }
        if (!defect.empty()) {
            ++report.quarantined;
            freed_bytes += set.images[i].size() * sizeof(float);
            if (report.first_defect.empty()) {
                report.first_defect = "sample " + std::to_string(i) + ": " + defect;
            }
            continue;
        }
        if (kept != i) {
            set.images[kept] = std::move(set.images[i]);
            set.labels[kept] = set.labels[i];
        }
        ++kept;
    }
    set.images.resize(kept);
    set.labels.resize(kept);
    set.storage.shrink(freed_bytes);
    set.quarantined += report.quarantined;
    if (report.quarantined > 0) {
        util::metrics().counter("fptc_data_quarantined_total").add(report.quarantined);
    }
    return report;
}

SampleSet rasterize(std::span<const flow::Flow> flows, const flowpic::FlowpicConfig& config)
{
    SampleSet set;
    set.native_resolution = config.resolution;
    set.dim = nn::effective_input_dim(config.resolution);
    set.images.reserve(flows.size());
    set.labels.reserve(flows.size());
    for (const auto& flow : flows) {
        FPTC_TRACE_SPAN("flowpic");
        push_image(set, view_image(flowpic::Flowpic::from_flow(flow, config)), flow.label);
    }
    return set;
}

SampleSet augment_set(std::span<const flow::Flow> flows, augment::AugmentationKind kind, int copies,
                      const flowpic::FlowpicConfig& config, util::Rng& rng)
{
    if (kind == augment::AugmentationKind::none) {
        return rasterize(flows, config);
    }
    if (copies < 1) {
        throw std::invalid_argument("augment_set: copies must be >= 1");
    }
    const auto augmentation = augment::make_augmentation(kind);
    SampleSet set;
    set.native_resolution = config.resolution;
    set.dim = nn::effective_input_dim(config.resolution);
    set.images.reserve(flows.size() * static_cast<std::size_t>(copies));
    set.labels.reserve(set.images.capacity());
    for (const auto& flow : flows) {
        for (int c = 0; c < copies; ++c) {
            FPTC_TRACE_SPAN("augment");
            push_image(set, view_image(augmentation->augmented_flowpic(flow, config, rng)),
                       flow.label);
        }
    }
    return set;
}

SampleSet rasterize_directional(std::span<const flow::Flow> flows,
                                const flowpic::FlowpicConfig& config)
{
    SampleSet set;
    set.native_resolution = config.resolution;
    set.dim = nn::effective_input_dim(config.resolution);
    set.channels = 2;
    set.images.reserve(flows.size());
    set.labels.reserve(flows.size());
    for (const auto& flow : flows) {
        FPTC_TRACE_SPAN("flowpic");
        const auto [up, down] = flowpic::directional_flowpics(flow, config);
        push_directional_sample(set, up, down, flow.label);
    }
    return set;
}

SampleSet augment_set_directional(std::span<const flow::Flow> flows,
                                  augment::AugmentationKind kind, int copies,
                                  const flowpic::FlowpicConfig& config, util::Rng& rng)
{
    if (kind == augment::AugmentationKind::none) {
        return rasterize_directional(flows, config);
    }
    if (copies < 1) {
        throw std::invalid_argument("augment_set_directional: copies must be >= 1");
    }
    const auto augmentation = augment::make_augmentation(kind);
    SampleSet set;
    set.native_resolution = config.resolution;
    set.dim = nn::effective_input_dim(config.resolution);
    set.channels = 2;
    for (const auto& flow : flows) {
        for (int c = 0; c < copies; ++c) {
            FPTC_TRACE_SPAN("augment");
            if (augmentation->is_time_series()) {
                const auto transformed = augmentation->transform_flow(flow, rng);
                const auto [up, down] = flowpic::directional_flowpics(transformed, config);
                push_directional_sample(set, up, down, flow.label);
            } else {
                // Image-space strategies must use identical random draws on
                // both channels to keep the geometry coherent.
                auto [up, down] = flowpic::directional_flowpics(flow, config);
                util::Rng channel_rng = rng.fork();
                util::Rng up_rng = channel_rng;
                util::Rng down_rng = channel_rng;
                up = augmentation->transform_pic(std::move(up), up_rng);
                down = augmentation->transform_pic(std::move(down), down_rng);
                push_directional_sample(set, up, down, flow.label);
            }
        }
    }
    return set;
}

} // namespace fptc::core

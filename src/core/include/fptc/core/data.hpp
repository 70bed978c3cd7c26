// Flowpic sample sets: the bridge between flows and tensors.
//
// A SampleSet holds rasterized (and per-image max-normalized) flowpics ready
// for batching into [B, 1, N, N] tensors.  For large resolutions (1500x1500)
// the set stores a max-pooled ~64x64 version — the documented substitution
// that keeps the "full-flowpic" experiments tractable on one CPU core
// (DESIGN.md); augmentations are still applied at the native resolution
// before pooling.
//
// augment_set implements the paper's training-set expansion: "we apply each
// of the augmentations 10 times on the 100 samples per class training set,
// which increases the training set to 1000 images per class" (the copy
// factor is configurable; FPTC defaults use a smaller factor for runtime).
#pragma once

#include "fptc/augment/augmentation.hpp"
#include "fptc/flow/dataset.hpp"
#include "fptc/flowpic/flowpic.hpp"
#include "fptc/nn/tensor.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/rng.hpp"

#include <span>
#include <vector>

namespace fptc::core {

/// A set of rasterized flowpic samples with labels.
struct SampleSet {
    std::size_t dim = 32;                    ///< stored image side (effective)
    std::size_t native_resolution = 32;      ///< requested flowpic resolution
    std::size_t channels = 1;                ///< 1 (plain) or 2 (directional)
    std::vector<std::vector<float>> images;  ///< channels*dim*dim floats each, max-normalized
    std::vector<std::size_t> labels;
    /// Samples dropped at the data boundary because their tensor was
    /// semantically invalid (non-finite or negative pixels, wrong shape) —
    /// e.g. a corrupted cache or an injected fault.  Counted, never
    /// silently averaged into a mean±CI.
    std::size_t quarantined = 0;
    /// Accounted bytes of `images` against the process memory budget: the
    /// push/append paths grow it, validate_samples credits scrubbed samples
    /// back.  Direct writes to `images` (tests) bypass it; Charge::shrink
    /// clamps, so the accounting can undercount but never go negative.
    util::Charge storage{0, "core::SampleSet"};

    [[nodiscard]] std::size_t size() const noexcept { return images.size(); }

    /// Assemble a batch tensor [B, channels, dim, dim] from sample indices.
    [[nodiscard]] nn::Tensor batch(std::span<const std::size_t> indices) const;

    /// Batch of the consecutive samples [begin, end).
    [[nodiscard]] nn::Tensor batch(std::size_t begin, std::size_t end) const;

    /// Single-sample tensor [1, channels, dim, dim].
    [[nodiscard]] nn::Tensor tensor_of(std::size_t index) const;

    /// Append all samples of another set (dims must match).
    void append(const SampleSet& other);
};

/// Result of a semantic validation pass over a SampleSet.
struct SampleValidationReport {
    std::size_t checked = 0;      ///< samples inspected
    std::size_t quarantined = 0;  ///< samples scrubbed from the set
    std::string first_defect;     ///< human-readable description of the first defect

    [[nodiscard]] bool clean() const noexcept { return quarantined == 0; }
};

/// Validate every sample of `set` against the flowpic tensor contract:
/// correct `channels*dim*dim` shape, all values finite, non-negative and
/// ≤ 1 (max-normalized), and positive mass for a non-empty image.  Offending
/// samples (and their labels) are scrubbed from the set in place and counted
/// in `set.quarantined`.  Use on externally sourced sets (CSV caches) before
/// training; the rasterize/augment push paths already enforce the
/// finite/non-negative/shape subset at insertion.
SampleValidationReport validate_samples(SampleSet& set);

/// Rasterize flows without augmentation.
[[nodiscard]] SampleSet rasterize(std::span<const flow::Flow> flows,
                                  const flowpic::FlowpicConfig& config);

/// Rasterize with an augmentation strategy applied `copies` times per flow
/// (the paper's x10 expansion).  For AugmentationKind::none the originals
/// are returned once regardless of `copies`.
[[nodiscard]] SampleSet augment_set(std::span<const flow::Flow> flows,
                                    augment::AugmentationKind kind, int copies,
                                    const flowpic::FlowpicConfig& config, util::Rng& rng);

/// Max-pool a flowpic to the network's effective input resolution (identity
/// below the 256 threshold).  Exposed for tests and the Fig. 4 bench.
[[nodiscard]] std::vector<float> pool_to_effective(const flowpic::Flowpic& pic);

/// A flowpic as one network input image: pool_to_effective, then
/// max-normalized to [0, 1] (what every SampleSet image and every
/// contrastive view goes through).
[[nodiscard]] std::vector<float> view_image(const flowpic::Flowpic& pic);

/// Rasterize flows into 2-channel *directional* flowpics (channel 0 =
/// upstream, channel 1 = downstream) — the reformulation the paper's
/// footnote 3 sketches; exercised by bench/ablation_directional.
[[nodiscard]] SampleSet rasterize_directional(std::span<const flow::Flow> flows,
                                              const flowpic::FlowpicConfig& config);

/// Directional equivalent of augment_set.  Time-series strategies transform
/// the packet series before the directional split; image strategies are
/// applied to both channels with identical random draws so the channels stay
/// geometrically coherent.
[[nodiscard]] SampleSet augment_set_directional(std::span<const flow::Flow> flows,
                                                augment::AugmentationKind kind, int copies,
                                                const flowpic::FlowpicConfig& config,
                                                util::Rng& rng);

} // namespace fptc::core

// The split histogram of GbtClassifier::fit (internal to fptc_gbt): the
// per-feature quantile bins, the compact slot layout of the features that
// can split, and NodeHistogram, which fills one node's {g, h} sums.
//
// Every slot's sum receives its node's terms in ascending sample order, as
// a plain per-sample scatter adds them, so the histogram is bit-identical
// to that scatter (tests/test_gbt.cpp, GbtKernel.*).  A feature whose most
// frequent ("default") slot holds most of the training samples has that
// slot summed by a register-blocked pass over a byte mask; everything else
// is scattered sample by sample (DESIGN.md "GBT histogram").
#pragma once

#include "fptc/util/membudget.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fptc::gbt::detail {

/// A feature whose training values fall into at least two bins.  It owns
/// one histogram slot per bin from first_bin (0, or 1 when no training value
/// lies below the first edge) to the last, edges.size().  Bins no training
/// value falls into, and features with a single bin, never yield a split
/// with positive gain (DESIGN.md "GBT histogram"), so they get no slot.
struct ActiveFeature {
    std::size_t feature = 0;
    std::uint32_t first_bin = 0;
    std::uint32_t offset = 0;      ///< slot of first_bin
    std::uint32_t default_bin = 0; ///< the bin holding the most training values (lowest on a tie)
    std::size_t default_count = 0; ///< how many it holds
};

/// Per-feature histogram bin edges (quantile-ish via sorted unique values),
/// and the compact histogram layout of the features that can split.
struct BinMap {
    std::vector<std::vector<float>> edges; ///< edges[f] sorted ascending
    std::vector<ActiveFeature> active;     ///< ascending feature index
    std::size_t slot_count = 0;

    [[nodiscard]] std::uint32_t bin_of(std::size_t feature, float value) const
    {
        const auto& e = edges[feature];
        return static_cast<std::uint32_t>(
            std::upper_bound(e.begin(), e.end(), value) - e.begin());
    }

    /// The histogram slot of `value` in active feature `a`.
    [[nodiscard]] std::uint32_t slot_of(std::size_t a, float value) const
    {
        const auto& af = active[a];
        return af.offset + bin_of(af.feature, value) - af.first_bin;
    }
};

/// Quantile edges of every feature of `features` (n rows of d values, n ≥ 1)
/// at `num_bins` bins, and the slot layout of the active features.
[[nodiscard]] BinMap build_bins(const std::vector<std::vector<float>>& features, int num_bins);

/// Features per block of the default-slot pass.
inline constexpr std::size_t kBlock = 16;

/// The default-slot pass's input, plain data: for each block of kBlock
/// masked features, a byte per (training sample, feature) that is 0xFF
/// where the sample's value falls into the feature's default slot and 0
/// elsewhere, mask[(block · rows + i) · kBlock + lane]; and each masked
/// feature's default slot, slot[block · kBlock + lane].
struct DefaultSlots {
    std::size_t features = 0; ///< masked features, a multiple of kBlock
    std::size_t rows = 0;     ///< training samples
    const std::uint8_t* mask = nullptr;
    const std::uint32_t* slot = nullptr;
};

/// Writes every masked feature's default slot {g, h} sum for one node:
/// hist[2·slot] = Σ g and hist[2·slot + 1] = Σ h over the node's samples
/// (`count` training indices, ascending) whose mask byte is set, each sum
/// starting from +0 and taking its terms in sample order.  `gh` holds the
/// node's {g, h} pairs, gh[2·s], gh[2·s + 1] for samples[s]; no g is −0.
/// Writes no other slot.  Runs the kernels of util::active_isa().
void sum_default_slots(const DefaultSlots& d, const std::uint32_t* samples, std::size_t count,
                       const double* gh, double* hist) noexcept;

/// A masked feature's default slot holds at least this share of the
/// training samples.  Of the features that qualify, the lowest shares are
/// scattered instead when they would leave the last block partly empty, so
/// every walk of the default-slot pass sums a full block.  Measured
/// crossover: DESIGN.md "GBT histogram".
inline constexpr double kMinDefaultShare = 0.5;

/// The per-fit layout behind every node histogram of one fit: the masks
/// and default slots of the masked features, and per training sample the
/// list of slots it scatters into (the masked features' other slots and
/// every slot of the rest).  It charges MemBudget for what it holds.
class NodeHistogram {
public:
    NodeHistogram(const BinMap& bins, const std::vector<std::vector<float>>& features);

    NodeHistogram(const NodeHistogram&) = delete;
    NodeHistogram& operator=(const NodeHistogram&) = delete;

    /// Writes the {g, h} sums of one node, whose training indices are
    /// `samples` (ascending), into hist[2 · slot_count]: every slot's sum
    /// gets its terms in ascending sample order starting from +0, so the
    /// result equals the plain scatter bit for bit.  g[i] and h[i] are
    /// sample i's gradient and hessian; no g may be −0.
    void fill(std::span<const std::uint32_t> samples, const float* g, const float* h,
              double* hist);

    /// Masked features, the rest being scattered.
    [[nodiscard]] std::size_t masked_features() const noexcept { return default_.features; }

private:
    std::size_t slot_count_ = 0;
    util::Charge charge_;
    std::vector<std::uint8_t> mask_;
    std::vector<std::uint32_t> default_slot_;
    std::vector<std::size_t> scatter_offset_; ///< sample i's list: [offset[i], offset[i + 1])
    std::vector<std::uint32_t> scatter_slot_;
    std::vector<double> gh_;                  ///< the node's {g, h} pairs
    DefaultSlots default_;
};

} // namespace fptc::gbt::detail

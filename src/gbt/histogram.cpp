#include "histogram.hpp"

#include "histogram_kernel.hpp"

#include "fptc/util/isa.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace fptc::gbt::detail {

#if defined(__x86_64__)
namespace avx2 { // histogram_avx2.cpp, built with -mavx2

void sum_default_slots(const DefaultSlots& d, const std::uint32_t* samples, std::size_t count,
                       const double* gh, double* hist) noexcept;

} // namespace avx2
#endif

void sum_default_slots(const DefaultSlots& d, const std::uint32_t* samples, std::size_t count,
                       const double* gh, double* hist) noexcept
{
#if defined(__x86_64__)
    if (util::active_isa() == util::Isa::avx2) {
        avx2::sum_default_slots(d, samples, count, gh, hist);
        return;
    }
#endif
    default_slot_lanes<v2d>(d, samples, count, gh, hist);
}

BinMap build_bins(const std::vector<std::vector<float>>& features, int num_bins)
{
    const std::size_t n = features.size();
    const std::size_t d = features.front().size();
    BinMap bins;
    bins.edges.resize(d);
    std::vector<float> column(n);
    for (std::size_t f = 0; f < d; ++f) {
        for (std::size_t i = 0; i < n; ++i) {
            column[i] = features[i][f];
        }
        std::sort(column.begin(), column.end());
        auto& edges = bins.edges[f];
        // Quantile edges; duplicates collapse automatically.
        for (int b = 1; b < num_bins; ++b) {
            const auto idx = static_cast<std::size_t>(
                static_cast<double>(b) / num_bins * static_cast<double>(n - 1));
            const float edge = column[idx];
            if (edges.empty() || edge > edges.back()) {
                edges.push_back(edge);
            }
        }
        // bin_of is monotone, so the extremes bound every value's bin.  The
        // maximum always falls into the last bin, and each bin from 1 on
        // holds its lower edge, a training value: only bin 0 can be empty.
        const auto first_bin = bins.bin_of(f, column.front());
        if (first_bin >= edges.size()) {
            continue;
        }
        ActiveFeature af{f, first_bin, static_cast<std::uint32_t>(bins.slot_count)};
        // Bin b holds the sorted values from the first one >= edges[b - 1]
        // to the last one below edges[b].
        auto begin = column.begin();
        for (auto b = first_bin; b <= edges.size(); ++b) {
            const auto end = b < edges.size()
                                 ? std::lower_bound(begin, column.end(), edges[b])
                                 : column.end();
            if (static_cast<std::size_t>(end - begin) > af.default_count) {
                af.default_bin = b;
                af.default_count = static_cast<std::size_t>(end - begin);
            }
            begin = end;
        }
        bins.active.push_back(af);
        bins.slot_count += edges.size() + 1 - first_bin;
    }
    return bins;
}

NodeHistogram::NodeHistogram(const BinMap& bins, const std::vector<std::vector<float>>& features)
    : slot_count_(bins.slot_count)
{
    const std::size_t n = features.size();
    const std::size_t active = bins.active.size();

    // The masked features: enough of the training values in the default
    // bin, in whole blocks, the lowest shares (the highest index on a tie)
    // left to the scatter.
    std::vector<std::size_t> candidates;
    for (std::size_t a = 0; a < active; ++a) {
        if (static_cast<double>(bins.active[a].default_count) >=
            kMinDefaultShare * static_cast<double>(n)) {
            candidates.push_back(a);
        }
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](std::size_t x, std::size_t y) {
        return bins.active[x].default_count > bins.active[y].default_count;
    });
    candidates.resize(candidates.size() / kBlock * kBlock);
    std::vector<bool> chosen(active, false);
    for (const auto a : candidates) {
        chosen[a] = true;
    }

    // Masked features take lanes in ascending order; a value lies in a
    // feature's default bin when lo <= v < hi.
    constexpr std::size_t kScattered = std::numeric_limits<std::size_t>::max();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    struct Plan {
        std::size_t lane = kScattered;
        float lo = 0.0f;
        float hi = 0.0f;
    };
    std::vector<Plan> plans(active);
    default_slot_.reserve(candidates.size());
    for (std::size_t a = 0; a < active; ++a) {
        if (chosen[a]) {
            const auto& af = bins.active[a];
            const auto& edges = bins.edges[af.feature];
            plans[a] = {default_slot_.size(),
                        af.default_bin == 0 ? -kInf : edges[af.default_bin - 1],
                        af.default_bin == edges.size() ? kInf : edges[af.default_bin]};
            default_slot_.push_back(af.offset + af.default_bin - af.first_bin);
        }
    }
    const std::size_t masked = default_slot_.size();
    const auto is_default = [](const Plan& plan, float v) {
        return plan.lane != kScattered && plan.lo <= v && v < plan.hi;
    };

    // Every other entry is scattered: size each sample's list, every
    // feature that is not masked and the masked ones off their default.
    scatter_offset_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t count = active - masked;
        for (const auto a : candidates) {
            count += !is_default(plans[a], features[i][bins.active[a].feature]);
        }
        scatter_offset_[i + 1] = scatter_offset_[i] + count;
    }

    charge_ = util::Charge(masked * n + masked * sizeof(std::uint32_t) +
                               (n + 1) * sizeof(std::size_t) +
                               scatter_offset_[n] * sizeof(std::uint32_t) +
                               2 * n * sizeof(double),
                           "gbt::fit");
    mask_.assign(masked * n, 0);
    scatter_slot_.resize(scatter_offset_[n]);
    gh_.resize(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t* list = scatter_slot_.data() + scatter_offset_[i];
        for (std::size_t a = 0; a < active; ++a) {
            const auto& plan = plans[a];
            const float v = features[i][bins.active[a].feature];
            if (is_default(plan, v)) {
                mask_[((plan.lane / kBlock) * n + i) * kBlock + plan.lane % kBlock] = 0xFF;
            } else {
                *list++ = bins.slot_of(a, v);
            }
        }
    }
    default_ = {masked, n, mask_.data(), default_slot_.data()};
}

void NodeHistogram::fill(std::span<const std::uint32_t> samples, const float* g, const float* h,
                         double* hist)
{
    std::fill(hist, hist + 2 * slot_count_, 0.0);
    if (default_.features > 0) {
        for (std::size_t s = 0; s < samples.size(); ++s) {
            gh_[2 * s] = static_cast<double>(g[samples[s]]);
            gh_[2 * s + 1] = static_cast<double>(h[samples[s]]);
        }
        sum_default_slots(default_, samples.data(), samples.size(), gh_.data(), hist);
    }
    // The rest, one sample at a time: each slot gets its terms in ascending
    // sample order, and no slot is on a list and masked at once.
    for (const auto i : samples) {
        const v2d gh = {static_cast<double>(g[i]), static_cast<double>(h[i])};
        const std::uint32_t* slot = scatter_slot_.data() + scatter_offset_[i];
        const std::uint32_t* end = scatter_slot_.data() + scatter_offset_[i + 1];
        for (; slot != end; ++slot) {
            double* cell = hist + 2 * std::size_t{*slot};
            v2d sum;
            std::memcpy(&sum, cell, sizeof sum);
            sum += gh;
            std::memcpy(cell, &sum, sizeof sum);
        }
    }
}

} // namespace fptc::gbt::detail

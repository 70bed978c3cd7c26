// Statistics the benchmark reports: nearest-rank quantiles under the
// "at least ten samples beyond" rule, exact deltas of the registry's
// cumulative histograms, metric-name validation and the result line.
#pragma once

#include "fptc/util/telemetry.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples a quantile must leave above it before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile (q in (0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Median of unsorted samples (the mean of the two middle values when even).
[[nodiscard]] double median(std::vector<double> samples);

/// Samples that lie strictly above the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Smallest sample count whose q-quantile leaves kMinBeyond samples above it.
[[nodiscard]] std::size_t min_samples_for(double q);

/// The q-quantile, or nothing when fewer than kMinBeyond samples lie above it.
[[nodiscard]] std::optional<double> reportable_quantile(const std::vector<double>& samples,
                                                        double q);

/// Count and sum of a registry histogram at one instant.
struct HistogramMark {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

[[nodiscard]] HistogramMark mark(const fptc::util::Histogram& histogram);

/// What a histogram observed between two marks.  The registry histograms
/// are process-wide and cumulative, so a phase reads its own share as the
/// exact difference of sum() and count() — never from the log2 quantiles.
struct HistogramDelta {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    [[nodiscard]] double mean() const noexcept
    {
        return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
    }
};

/// Throws std::logic_error when `after` is not later than `before`.
[[nodiscard]] HistogramDelta delta(const HistogramMark& before, const HistogramMark& after);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Ordered name -> (value, unit) map rendered as the benchmark's result line.
class MetricSet {
public:
    /// Throws std::invalid_argument on a bad or repeated name or a
    /// non-finite value.
    void add(const std::string& name, double value, const std::string& unit);

    [[nodiscard]] bool contains(std::string_view name) const noexcept;

    /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
    /// on one line, every value printed with all its digits.
    [[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                          std::uint64_t failed) const;

private:
    struct Entry {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

} // namespace perfbench

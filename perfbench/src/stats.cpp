#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    const std::size_t rank = nearest_rank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::size_t min_samples_for(double q)
{
    std::size_t n = kMinBeyond + 1;
    while (samples_beyond(n, q) < kMinBeyond) {
        ++n;
    }
    return n;
}

std::optional<double> reportable_quantile(const std::vector<double>& samples, double q)
{
    if (samples_beyond(samples.size(), q) < kMinBeyond) {
        return std::nullopt;
    }
    return quantile(samples, q);
}

HistogramMark mark(const fptc::util::Histogram& histogram)
{
    return {histogram.count(), histogram.sum()};
}

HistogramDelta delta(const HistogramMark& before, const HistogramMark& after)
{
    if (after.count < before.count || after.sum < before.sum) {
        throw std::logic_error("histogram delta: marks taken out of order");
    }
    return {after.count - before.count, after.sum - before.sum};
}

bool valid_metric_name(std::string_view name) noexcept
{
    const auto allowed = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '_' || c == '.' || c == '-';
    };
    const auto leading = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    };
    return !name.empty() && name.size() <= 64 && leading(name.front()) &&
           std::all_of(name.begin(), name.end(), allowed);
}

void MetricSet::add(const std::string& name, double value, const std::string& unit)
{
    if (!valid_metric_name(name)) {
        throw std::invalid_argument("metric name '" + name + "' is not [A-Za-z0-9_.-]+");
    }
    if (contains(name)) {
        throw std::invalid_argument("metric '" + name + "' reported twice");
    }
    if (!std::isfinite(value)) {
        throw std::invalid_argument("metric '" + name + "' is not finite");
    }
    entries_.push_back({name, value, unit});
}

bool MetricSet::contains(std::string_view name) const noexcept
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& entry) { return entry.name == name; });
}

std::string MetricSet::result_line(bool correct, std::uint64_t attempted,
                                   std::uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
        out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench

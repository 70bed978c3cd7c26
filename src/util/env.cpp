#include "fptc/util/env.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace fptc::util {

namespace {

[[noreturn]] void bad_knob(const std::string& name, const char* raw, const char* why)
{
    throw EnvError(name + "='" + raw + "': " + why);
}

} // namespace

std::optional<std::int64_t> env_int(const std::string& name)
{
    const char* raw = std::getenv(name.c_str());
    if (raw == nullptr || *raw == '\0') {
        return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(raw, &end, 10);
    if (end == raw || *end != '\0') {
        bad_knob(name, raw, "not an integer");
    }
    if (errno == ERANGE) {
        bad_knob(name, raw, "overflows 64-bit integer");
    }
    if (value < 0) {
        bad_knob(name, raw, "must be non-negative");
    }
    return static_cast<std::int64_t>(value);
}

std::optional<double> env_double(const std::string& name)
{
    const char* raw = std::getenv(name.c_str());
    if (raw == nullptr || *raw == '\0') {
        return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(raw, &end);
    if (end == raw || *end != '\0') {
        bad_knob(name, raw, "not a number");
    }
    if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
        bad_knob(name, raw, "overflows double");
    }
    if (!std::isfinite(value)) {
        bad_knob(name, raw, "must be finite");
    }
    if (value < 0.0) {
        bad_knob(name, raw, "must be non-negative");
    }
    return value;
}

std::size_t env_size(const std::string& name, std::size_t fallback, std::size_t minimum)
{
    const auto value = env_int(name);
    if (!value.has_value()) {
        return fallback;
    }
    const auto parsed = static_cast<std::size_t>(*value);
    if (parsed < minimum) {
        throw EnvError(name + " must be >= " + std::to_string(minimum) + ", got " +
                       std::to_string(parsed));
    }
    return parsed;
}

double env_positive(const std::string& name, double fallback, bool allow_zero)
{
    const auto value = env_double(name);
    if (!value.has_value()) {
        return fallback;
    }
    if (*value == 0.0 && !allow_zero) {
        throw EnvError(name + " must be positive, got " + std::to_string(*value));
    }
    return *value;
}

std::string env_string(const std::string& name)
{
    const char* value = std::getenv(name.c_str());
    return value != nullptr ? std::string(value) : std::string();
}

bool full_scale()
{
    return env_int("FPTC_FULL").value_or(0) != 0;
}

CampaignScale resolve_scale(int paper_splits, int paper_seeds, int default_splits, int default_seeds,
                            int max_epochs)
{
    CampaignScale scale{};
    scale.full = full_scale();
    scale.splits = scale.full ? paper_splits : default_splits;
    scale.seeds = scale.full ? paper_seeds : default_seeds;
    // Reduced-scale runs also cap the epoch budget; FPTC_EPOCHS overrides.
    scale.max_epochs = scale.full ? max_epochs : std::min(max_epochs, 12);
    if (const auto v = env_int("FPTC_SPLITS")) {
        scale.splits = static_cast<int>(*v);
    }
    if (const auto v = env_int("FPTC_SEEDS")) {
        scale.seeds = static_cast<int>(*v);
    }
    if (const auto v = env_int("FPTC_EPOCHS")) {
        scale.max_epochs = static_cast<int>(*v);
    }
    if (scale.splits < 1) {
        scale.splits = 1;
    }
    if (scale.seeds < 1) {
        scale.seeds = 1;
    }
    if (scale.max_epochs < 1) {
        scale.max_epochs = 1;
    }
    return scale;
}

} // namespace fptc::util

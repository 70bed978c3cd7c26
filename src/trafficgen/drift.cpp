#include "fptc/trafficgen/drift.hpp"

#include "fptc/util/env.hpp"

#include <algorithm>
#include <string>

namespace fptc::trafficgen {

namespace {

double env_fraction(const char* name, double fallback, double max_value)
{
    const auto value = util::env_double(name);
    if (!value.has_value()) {
        return fallback;
    }
    if (*value < 0.0 || *value > max_value) {
        throw util::EnvError(std::string(name) + " must be in [0, " + std::to_string(max_value) +
                             "], got " + std::to_string(*value));
    }
    return *value;
}

} // namespace

double DriftSchedule::shift_weight(double progress) const noexcept
{
    const double p = std::clamp(progress, 0.0, 1.0);
    switch (mode) {
    case Mode::none:
        return 0.0;
    case Mode::step:
        return p >= at ? magnitude : 0.0;
    case Mode::linear: {
        if (p <= at) {
            return 0.0;
        }
        const double span = 1.0 - at;
        return span <= 0.0 ? magnitude : magnitude * std::min(1.0, (p - at) / span);
    }
    }
    return 0.0;
}

DriftSchedule DriftSchedule::from_env()
{
    DriftSchedule schedule;
    if (const std::string value = util::env_string("FPTC_DRIFT_MODE"); !value.empty()) {
        if (value == "step") {
            schedule.mode = Mode::step;
        } else if (value == "linear") {
            schedule.mode = Mode::linear;
        } else if (value == "none") {
            schedule.mode = Mode::none;
        } else {
            throw util::EnvError("FPTC_DRIFT_MODE must be step|linear|none, got '" + value + "'");
        }
    }
    schedule.at = env_fraction("FPTC_DRIFT_AT", schedule.at, 1.0);
    schedule.magnitude = env_fraction("FPTC_DRIFT_MAGNITUDE", schedule.magnitude, 1.0);
    schedule.unknown_rate = env_fraction("FPTC_DRIFT_UNKNOWN", schedule.unknown_rate, 1.0);
    return schedule;
}

ClassProfile blend_profiles(const ClassProfile& base, const ClassProfile& shifted, double t)
{
    const double w = std::clamp(t, 0.0, 1.0);
    const auto lerp = [w](double a, double b) { return a + (b - a) * w; };
    // Structural vectors have no meaningful interpolation (different counts,
    // different meanings per slot) — they switch wholesale at the midpoint.
    ClassProfile out = w < 0.5 ? base : shifted;
    out.name = base.name + "+drift";
    out.handshake_gap = lerp(base.handshake_gap, shifted.handshake_gap);
    out.burst_period = lerp(base.burst_period, shifted.burst_period);
    out.burst_period_jitter = lerp(base.burst_period_jitter, shifted.burst_period_jitter);
    out.burst_phase_jitter = lerp(base.burst_phase_jitter, shifted.burst_phase_jitter);
    out.burst_packets = lerp(base.burst_packets, shifted.burst_packets);
    out.burst_packets_jitter = lerp(base.burst_packets_jitter, shifted.burst_packets_jitter);
    out.burst_width = lerp(base.burst_width, shifted.burst_width);
    out.chatter_rate = lerp(base.chatter_rate, shifted.chatter_rate);
    out.chatter_size_mean = lerp(base.chatter_size_mean, shifted.chatter_size_mean);
    out.chatter_size_std = lerp(base.chatter_size_std, shifted.chatter_size_std);
    out.duration_log_mean = lerp(base.duration_log_mean, shifted.duration_log_mean);
    out.duration_log_std = lerp(base.duration_log_std, shifted.duration_log_std);
    out.down_fraction = lerp(base.down_fraction, shifted.down_fraction);
    out.ack_fraction = lerp(base.ack_fraction, shifted.ack_fraction);
    out.rate_jitter = lerp(base.rate_jitter, shifted.rate_jitter);
    out.window = lerp(base.window, shifted.window);
    return out;
}

ClassProfile unknown_app_profile(std::uint64_t seed)
{
    // A mobile-app profile from a seed-space disjoint from anything the
    // serve backends train on; class index 7 is outside every 5-class set.
    ClassProfile profile = make_mobile_app_profile(seed ^ 0xD21F7000ULL, 7, false);
    profile.name = "unknown_app";
    return profile;
}

} // namespace fptc::trafficgen

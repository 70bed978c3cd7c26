#include "fptc/serve/stream.hpp"

#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/rng.hpp"

#include <algorithm>
#include <limits>

namespace fptc::serve {

InterleavedStream::InterleavedStream(const StreamConfig& config)
{
    util::Rng rng(util::mix_seed(config.seed, 0x5E47E));
    const std::size_t num_classes = std::max<std::size_t>(1, config.num_classes);

    std::vector<trafficgen::ClassProfile> profiles;
    profiles.reserve(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
        profiles.push_back(trafficgen::ucdavis19_profile(c % 5, config.human_shift));
    }
    // Drift targets, built lazily only when a schedule is active so an
    // inactive schedule draws nothing extra from the RNG and the stream
    // stays bit-identical to the pre-drift one.
    const trafficgen::DriftSchedule& drift = config.drift;
    std::vector<trafficgen::ClassProfile> shifted;
    trafficgen::ClassProfile unknown_profile;
    std::vector<double> class_cdf;
    if (drift.active()) {
        shifted.reserve(num_classes);
        for (std::size_t c = 0; c < num_classes; ++c) {
            // The shift target is the *other* partition of the same class —
            // the paper's script-vs-human drift.
            shifted.push_back(trafficgen::ucdavis19_profile(c % 5, !config.human_shift));
        }
        unknown_profile = trafficgen::unknown_app_profile(config.seed);
        if (drift.imbalance > 0.0) {
            // Geometric class weights s^c, normalized into a CDF.
            double total = 0.0;
            double weight = 1.0;
            for (std::size_t c = 0; c < num_classes; ++c) {
                total += weight;
                class_cdf.push_back(total);
                weight *= drift.imbalance;
            }
            for (double& edge : class_cdf) {
                edge /= total;
            }
        }
    }

    for (std::size_t i = 0; i < config.flows; ++i) {
        std::size_t label = i % num_classes;
        flow::Flow flow;
        double start = 0.0;
        if (!drift.active()) {
            flow = trafficgen::generate_flow(profiles[label], label, rng);
            start = rng.uniform(0.0, std::max(config.arrival_window, 0.0));
        } else {
            // Start time first: the schedule keys off arrival progress.
            start = rng.uniform(0.0, std::max(config.arrival_window, 0.0));
            const double progress =
                config.arrival_window > 0.0 ? start / config.arrival_window : 0.0;
            if (!class_cdf.empty()) {
                const double u = rng.uniform(0.0, 1.0);
                label = 0;
                while (label + 1 < num_classes && u > class_cdf[label]) {
                    ++label;
                }
            }
            const bool inject_unknown = drift.unknown_rate > 0.0 && progress >= drift.at &&
                                        rng.uniform(0.0, 1.0) < drift.unknown_rate;
            if (inject_unknown) {
                label = num_classes;  // ground truth: outside every trained class
                flow = trafficgen::generate_flow(unknown_profile, label, rng);
            } else {
                const double w = drift.shift_weight(progress);
                flow = w > 0.0
                           ? trafficgen::generate_flow(
                                 trafficgen::blend_profiles(profiles[label], shifted[label], w),
                                 label, rng)
                           : trafficgen::generate_flow(profiles[label], label, rng);
            }
        }
        if (flow.packets.empty()) {
            continue;
        }
        if (label == num_classes) {
            ++unknown_flows_;
        }
        const std::uint64_t flow_id = static_cast<std::uint64_t>(i) + 1;  // 0 is invalid
        for (std::size_t p = 0; p < flow.packets.size(); ++p) {
            const flow::Packet& packet = flow.packets[p];
            events_.push_back(PacketEvent{
                .flow_id = flow_id,
                .label = static_cast<std::uint32_t>(label),
                .timestamp = start + packet.timestamp,
                .size = static_cast<double>(packet.size),
                .direction = packet.direction,
                .flow_end = p + 1 == flow.packets.size(),
            });
        }
        ++flow_count_;
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const PacketEvent& a, const PacketEvent& b) {
                         return a.timestamp < b.timestamp;
                     });
    mangle_rng_state_ = util::mix_seed(config.seed, 0x3A46);
}

namespace {

/// Corrupt an event so that serve::validate is guaranteed to reject it.
/// `selector` cycles through the corruption modes deterministically.
void mangle_event(PacketEvent& event, std::uint64_t selector)
{
    switch (selector % 4) {
    case 0: event.timestamp = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: event.timestamp = -1.0 - event.timestamp; break;
    case 2: event.size = -static_cast<double>(42 + selector % 1000); break;
    default: event.size = 1e9; break;
    }
}

} // namespace

std::optional<PacketEvent> InterleavedStream::next()
{
    if (pending_burst_ > 0 && cursor_ > 0) {
        // Burst clones replay the previous event verbatim (same timestamp,
        // same flow) — but never its flow_end marker.
        PacketEvent clone = events_[cursor_ - 1];
        clone.flow_end = false;
        --pending_burst_;
        ++emitted_;
        return clone;
    }
    if (cursor_ >= events_.size()) {
        return std::nullopt;
    }
    PacketEvent event = events_[cursor_++];
    util::FaultInjector& faults = util::fault_injector();
    pending_burst_ = faults.inject_serve_burst();
    if (faults.inject_serve_mangle()) {
        mangle_event(event, ++mangle_rng_state_);
        ++mangled_;
    }
    ++emitted_;
    return event;
}

} // namespace fptc::serve

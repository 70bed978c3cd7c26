#include "fptc/serve/stream.hpp"

#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/rng.hpp"

#include <algorithm>
#include <limits>

namespace fptc::serve {

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

/// Apply the armed stream fault classes; returns the events mangled.  Per
/// base event: the burst draw, then the mangle draw.  Burst clones replay
/// their event unmangled, same timestamp and flow, but never its flow_end.
std::uint64_t apply_stream_faults(std::vector<PacketEvent>& events, std::uint64_t seed)
{
    util::FaultInjector& faults = util::fault_injector();
    if (const util::FaultPlan plan = faults.plan();
        plan.serve_mangle_percent <= 0.0 && plan.serve_burst <= 0) {
        return 0;
    }
    std::vector<PacketEvent> faulted;
    faulted.reserve(events.size());
    std::uint64_t selector = util::mix_seed(seed, 0x3A46);
    std::uint64_t mangled = 0;
    for (const PacketEvent& base : events) {
        const int burst = faults.inject_serve_burst();
        faulted.push_back(base);
        if (faults.inject_serve_mangle()) {
            mangle_event(faulted.back(), ++selector);
            ++mangled;
        }
        PacketEvent clone = base;
        clone.flow_end = false;
        faulted.insert(faulted.end(), static_cast<std::size_t>(burst), clone);
    }
    events = std::move(faulted);
    return mangled;
}

} // namespace

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
    if (drift.active()) {
        shifted.reserve(num_classes);
        for (std::size_t c = 0; c < num_classes; ++c) {
            // The shift target is the *other* partition of the same class —
            // the paper's script-vs-human drift.
            shifted.push_back(trafficgen::ucdavis19_profile(c % 5, !config.human_shift));
        }
        unknown_profile = trafficgen::unknown_app_profile(config.seed);
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
    base_events_ = events_.size();
    mangled_ = apply_stream_faults(events_, config.seed);
}

} // namespace fptc::serve

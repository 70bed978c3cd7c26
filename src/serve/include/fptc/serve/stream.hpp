// Interleaved packet-event stream driven by the trafficgen models.
//
// Materializes a deterministic stream of PacketEvents for many concurrent
// flows: each flow is sampled from a ucdavis19 class profile, offset by a
// uniform start time within the arrival window, and all packets are merged
// into one globally time-sorted event sequence — the input shape a capture
// tap would deliver.  The constructor also applies the two serve fault
// classes that corrupt the *input*, drawing them from the process-wide
// injector once per base event:
//
//   * FPTC_FAULT_SERVE_MANGLE_PACKETS=p  — ~p% of events are mangled
//     (NaN/negative timestamps, out-of-range sizes); the service's ingest
//     validation must quarantine every one (mangled() is the test oracle).
//   * FPTC_FAULT_SERVE_BURST=k — every 64th event erupts into k extra
//     same-timestamp clones, a synthetic microburst that drives the bounded
//     ingest queue into its queue_full shed path.
// After construction the stream is immutable data: next() and take() move a
// cursor, take() hands out views that the serve driver queues without
// copying, and a copy of a stream replays the same faulted sequence.
// A DriftSchedule (trafficgen/drift.hpp) blends class profiles toward their
// human-partition variants and injects unknown-class flows (label =
// num_classes) on a seed-deterministic schedule; an inactive schedule
// leaves the stream bit-identical to one built without it.
#pragma once

#include "fptc/serve/event.hpp"

#include "fptc/trafficgen/drift.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fptc::serve {

/// Stream shape.  Defaults give a few-second single-process replay.
struct StreamConfig {
    std::size_t flows = 200;         ///< concurrent flows to interleave
    std::size_t num_classes = 5;     ///< ucdavis19 classes, round-robin
    double arrival_window = 30.0;    ///< flow start times ~ U[0, arrival_window)
    std::uint64_t seed = 1;          ///< generator seed (stream is deterministic)
    bool human_shift = false;        ///< use the human-partition profiles
    trafficgen::DriftSchedule drift{}; ///< scripted non-stationarity (FPTC_DRIFT_*)
};

class InterleavedStream {
public:
    explicit InterleavedStream(const StreamConfig& config);

    /// Next event in global time order (burst clones included), or nullopt
    /// at end of stream.
    [[nodiscard]] std::optional<PacketEvent> next()
    {
        return cursor_ < events_.size() ? std::optional(events_[cursor_++]) : std::nullopt;
    }

    /// The next min(n, remaining) events, as a view valid while the stream
    /// lives; empty at end of stream.
    [[nodiscard]] std::span<const PacketEvent> take(std::size_t n)
    {
        const std::size_t begin = cursor_;
        cursor_ += std::min(n, events_.size() - begin);
        return {events_.data() + begin, cursor_ - begin};
    }

    /// Events handed out so far (burst clones included).
    [[nodiscard]] std::uint64_t events_emitted() const noexcept { return cursor_; }

    /// Events corrupted by the mangle fault class — the quarantine oracle:
    /// the service must report exactly this many quarantined events.
    [[nodiscard]] std::uint64_t mangled() const noexcept { return mangled_; }

    /// Flows materialized into the stream.
    [[nodiscard]] std::size_t flow_count() const noexcept { return flow_count_; }

    /// Flows injected from outside the trained classes (label =
    /// num_classes) — the open-set oracle for the unknown-flood gate.
    [[nodiscard]] std::size_t unknown_flows() const noexcept { return unknown_flows_; }

    /// Total events in the base stream (before faults).
    [[nodiscard]] std::size_t base_events() const noexcept { return base_events_; }

private:
    std::vector<PacketEvent> events_;  ///< time-sorted, faults applied
    std::size_t cursor_ = 0;
    std::size_t base_events_ = 0;
    std::uint64_t mangled_ = 0;
    std::size_t flow_count_ = 0;
    std::size_t unknown_flows_ = 0;
};

} // namespace fptc::serve

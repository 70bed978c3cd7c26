#include "pipeline.hpp"

#include "fptc/util/shutdown.hpp"

namespace fptc::serve {

void Driver::run()
{
    using C = ServeCounter;
    // The stream is seed-deterministic (bursts and mangles included), so
    // skipping exactly `watermark` draws resumes the identical sequence the
    // crashed generation had not yet delivered.
    for (std::uint64_t skipped = 0; skipped < watermark_; ++skipped) {
        if (!stream_.next().has_value()) {
            break;
        }
        if ((skipped & 0x3FF) == 0) {
            watchdog_.beat(slot_);
        }
    }
    FPTC_TRACE_SPAN("serve_ingest");
    const std::size_t ingest_batch = ingest_batch_events(config_);
    const bool snapshots_on =
        !config_.snapshot_path.empty() &&
        (config_.snapshot_period_s > 0.0 || config_.snapshot_every > 0);
    auto last_marker = std::chrono::steady_clock::now();
    std::uint64_t events_since_marker = 0;
    // The driver's exact running total; its counter slot is caught up
    // once per published batch.
    std::uint64_t events_total = counters_.get<C::events_total>();
    IngestBatch staged;
    std::vector<std::uint64_t> noted_flows;
    const auto publish = [&] {
        if (staged.events.empty()) {
            return;
        }
        watchdog_.beat(slot_);
        const std::uint64_t size = staged.events.size();
        counters_.add<C::events_total>(size);
        // push_wait consumes the batch even when it refuses it: keep the
        // flow ids the driver ring notes after the push.
        noted_flows.clear();
        if (recording_) {
            for (const PacketEvent& event : staged.events) {
                noted_flows.push_back(event.flow_id);
            }
        }
        // Bounded backpressure: tolerate a short stall (a capture
        // buffer's worth), then shed the whole batch with a typed
        // reason — the driver never blocks indefinitely on a wedged
        // assembler.  A batch carrying a marker gets the marker's
        // longer grace.
        const auto grace = std::chrono::milliseconds(staged.has_marker ? 200 : 20);
        const bool queued = ingest_.push_wait(std::move(staged), grace);
        if (!queued) {
            counters_.add<C::events_dropped_queue>(size);
        }
        std::uint64_t total = events_total - size;
        for (const std::uint64_t flow_id : noted_flows) {
            if (queued) {
                frec_note(FrecRing::driver, FrecKind::ingest, flow_id, ++total);
            } else {
                frec_note(FrecRing::driver, FrecKind::shed, flow_id, 1,
                          static_cast<std::uint32_t>(FrecShed::queue_full));
            }
        }
        staged = IngestBatch{};
    };
    while (auto event = stream_.next()) {
        if (staged.events.empty()) {
            staged.events.reserve(ingest_batch);
            staged.enqueued = std::chrono::steady_clock::now();
        }
        staged.events.push_back(*event);
        ++events_total;
        ++events_since_marker;
        const bool full = staged.events.size() >= ingest_batch;
        if (snapshots_on &&
            ((config_.snapshot_every > 0 && events_since_marker >= config_.snapshot_every) ||
             (full && config_.snapshot_period_s > 0.0 &&
              elapsed_ms(last_marker) >= config_.snapshot_period_s * 1000.0))) {
            // Consistent cut: the marker follows the batch's last event
            // through the FIFO queue, carrying the driver's exact
            // counters, so when the assembler reaches it, table +
            // assembler counters agree with the watermark precisely.
            // A refused batch takes its marker along: that skips one
            // snapshot period, and the cadence resets either way so a
            // saturated queue is not hammered with markers.
            staged.has_marker = true;
            staged.cut =
                SnapshotMarker{events_total, counters_.get<C::events_dropped_queue>()};
            publish();
            last_marker = std::chrono::steady_clock::now();
            events_since_marker = 0;
        } else if (full) {
            publish();
        }
        if (util::shutdown_requested()) {
            break;
        }
    }
    publish();  // the end of the stream, or a shutdown
    watchdog_.mark_done(slot_);
    ingest_.close();
}

} // namespace fptc::serve

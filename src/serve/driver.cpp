#include "pipeline.hpp"

#include "fptc/util/shutdown.hpp"

namespace fptc::serve {

void Driver::run()
{
    using C = ServeCounter;
    // The stream is seed-deterministic data (bursts and mangles included),
    // so skipping exactly `watermark` events resumes the identical sequence
    // the crashed generation had not yet delivered.
    (void)stream_.take(watermark_);
    FPTC_TRACE_SPAN("serve_ingest");
    const std::size_t ingest_batch = ingest_batch_events(config_);
    const std::uint64_t marker_every = config_.snapshot_path.empty() ? 0 : config_.snapshot_every;
    std::uint64_t until_marker = marker_every;
    while (!util::shutdown_requested()) {
        // A batch ends where it fills, or where the next marker cuts.
        const std::size_t want =
            marker_every > 0 ? std::min<std::uint64_t>(ingest_batch, until_marker) : ingest_batch;
        IngestBatch batch{.events = stream_.take(want),
                          .enqueued = std::chrono::steady_clock::now()};
        if (batch.events.empty()) {
            break;
        }
        watchdog_.beat(slot_);
        const std::uint64_t size = batch.events.size();
        const std::uint64_t events_total = counters_.add<C::events_total>(size);  // sole writer
        if (marker_every > 0 && (until_marker -= size) == 0) {
            // Consistent cut: the marker follows the batch's last event
            // through the FIFO queue, carrying the driver's exact
            // counters, so when the assembler reaches it, table +
            // assembler counters agree with the watermark precisely.
            // A refused batch takes its marker along: that snapshot is
            // skipped, and the cadence restarts either way.
            batch.has_marker = true;
            batch.cut = SnapshotMarker{events_total, counters_.get<C::events_dropped_queue>()};
            until_marker = marker_every;
        }
        // Bounded backpressure: tolerate a short stall (a capture buffer's
        // worth), then shed the whole batch with a typed reason — the
        // driver never blocks indefinitely on a wedged assembler.  A batch
        // carrying a marker gets the marker's longer grace.
        const auto grace = std::chrono::milliseconds(batch.has_marker ? 200 : 20);
        const bool queued = ingest_.push_wait(batch, grace);
        if (!queued) {
            counters_.add<C::events_dropped_queue>(size);
        }
        if (recording_) {
            std::uint64_t total = events_total - size;
            for (const PacketEvent& event : batch.events) {
                if (queued) {
                    frec_note(FrecRing::driver, FrecKind::ingest, event.flow_id, ++total);
                } else {
                    frec_note(FrecRing::driver, FrecKind::shed, event.flow_id, 1,
                              static_cast<std::uint32_t>(FrecShed::queue_full));
                }
            }
        }
        if (!queued && ingest_.closed()) {
            break;  // only a failed stage closes the queue early
        }
    }
    watchdog_.mark_done(slot_);
    ingest_.close();
}

} // namespace fptc::serve

#include "pipeline.hpp"

#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"

#include <algorithm>
#include <optional>

#include <signal.h>

namespace fptc::serve {

void Assembler::write_snapshot(const SnapshotMarker& cut, const FlowTable& table,
                               double stream_now)
{
    ServeSnapshot out;
    out.watermark = cut.events_total;
    out.stream_now = stream_now;
    out.generation = config_.generation;
    out.model_generation = model_generation_.load(std::memory_order_relaxed);
    out.config_fingerprint = config_.fingerprint();
    // The assembler's counters are exact here (FIFO: every event before the
    // watermark is folded in), the driver's come with the marker, the
    // classifier's may lag (absorbed as restart_loss).
    out.counters = counters_.load();
    out.counters.events_total = cut.events_total;
    out.counters.events_dropped_queue = cut.events_dropped_queue;
    out.flows = table.snapshot_entries();
    try {
        save_snapshot(config_.snapshot_path, out);
    } catch (const std::exception& e) {
        // A failed snapshot costs recovery freshness, never the stream: log
        // and keep serving; the next marker retries.
        util::log_info(std::string("serve: snapshot write failed (") + e.what() +
                       "); continuing without");
        return;
    }
    counters_.add<ServeCounter::snapshots_written>();
    // Recorded after the durable commit and before the injected SIGKILL
    // below: a postmortem sealed from the ring file always ends at (or
    // after) the watermark the restarted worker resumes from.
    frec_note(FrecRing::assembler, FrecKind::snapshot_marker, 0, cut.events_total);
    if (util::fault_injector().inject_serve_kill()) {
        util::log_info("serve: fault injector SIGKILLing worker after snapshot commit");
        ::raise(SIGKILL);
    }
}

void Assembler::offer(ReadyFlow&& flow, bool final_flush)
{
    // The assembly stage ends here: first packet seen -> window closed and
    // offered downstream.
    const std::uint64_t flow_id = flow.flow_id;
    const std::uint64_t assembly_ns = elapsed_ns(flow.first_seen);
    instruments_.stage_assembly.observe(assembly_ns);
    frec_exemplar(FrecStage::assembly, assembly_ns, flow_id);
    frec_note(FrecRing::assembler, FrecKind::window_close, flow_id, assembly_ns);
    // Bounded backpressure, like the ingest side: a busy classifier gets a
    // grace window (longer at the final flush, when it is known to be
    // draining), then the flow is shed with a typed reason.  A wedged
    // classifier can never block shutdown.
    const auto grace = std::chrono::milliseconds(final_flush ? 2000 : 200);
    const bool queued =
        ready_.push_wait(StampedFlow{std::move(flow), std::chrono::steady_clock::now()}, grace);
    if (!queued) {
        // The refused ReadyFlow dies inside the push call; its Charge
        // destructor credits the bytes back right here.
        counters_.add<ServeCounter::shed_queue_full>();
        frec_note(FrecRing::assembler, FrecKind::shed, flow_id, 1,
                  static_cast<std::uint32_t>(FrecShed::queue_full));
    } else if (recording_) {
        // ready.size() locks the ready queue: read it only when the note is
        // recorded, so a disabled probe stays one load.
        frec_note(FrecRing::assembler, FrecKind::batch_enqueue, flow_id, ready_.size());
    }
}

void Assembler::run()
{
    using C = ServeCounter;
    FPTC_TRACE_SPAN("serve_assembler");
    FlowTable table(config_.mem_mb * 1024 * 1024, config_.window_seconds);
    double stream_now = 0.0;
    if (snap_ != nullptr) {
        // Charges go through the MemBudget exactly like live admission; a
        // shrunken post-restart budget turns refusals into typed mem_budget
        // sheds instead of a crash loop.
        const std::size_t refused = table.restore(snap_->flows);
        report_.restored_flows = snap_->flows.size() - refused;
        report_.restore_refused = refused;
        counters_.add<C::shed_mem_budget>(refused);
        stream_now = snap_->stream_now;
    }
    CoDelAdmission admission({.target_ms = config_.slo_ms});
    for (;;) {
        watchdog_.beat(slot_);
        std::optional<IngestBatch> batch = ingest_.pop(std::chrono::milliseconds(20));
        if (batch.has_value()) {
            // The ingest-wait stage ends at dequeue, whatever each event's
            // fate below.  Every event of a batch is timed from the batch's
            // stamp, and CoDel judges that sojourn.
            const std::uint64_t wait_ns = elapsed_ns(batch->enqueued);
            const double sojourn_ms = static_cast<double>(wait_ns) / 1e6;
            const double now_ms = admission.enabled() ? steady_now_ms() : 0.0;
            for (const PacketEvent& event : batch->events) {
                instruments_.stage_ingest_wait.observe(wait_ns);
                frec_exemplar(FrecStage::ingest_wait, wait_ns, event.flow_id);
                if (admission.enabled() && admission.should_drop(sojourn_ms, now_ms)) {
                    // Sojourn over the SLO for a sustained interval: the
                    // event is doomed work — drop it before it costs table
                    // space and classify time (event-level, typed).
                    counters_.add<C::events_dropped_slo>();
                    frec_note(FrecRing::assembler, FrecKind::codel_drop, event.flow_id, wait_ns);
                    continue;
                }
                if (validate(event) != nullptr) {
                    counters_.add<C::events_quarantined>();
                    frec_note(FrecRing::assembler, FrecKind::quarantine, event.flow_id);
                    continue;
                }
                stream_now = std::max(stream_now, event.timestamp);
                const AddOutcome outcome = table.add_packet(event);
                if (outcome.quarantined_backwards) {
                    // Trust boundary: a packet time-warping backwards inside
                    // its flow is dropped before it can poison the window.
                    // Event-level, typed; the flow itself keeps serving.
                    counters_.add<C::events_quarantined_backwards>();
                    frec_note(FrecRing::assembler, FrecKind::quarantine, event.flow_id, 0, 1);
                    continue;
                }
                if (outcome.new_flow) {
                    counters_.add<C::flows_ingested>();
                    frec_note(FrecRing::assembler, FrecKind::admit, event.flow_id, table.size());
                }
                if (outcome.evicted > 0 || outcome.shed_self) {
                    const std::uint64_t shed = outcome.evicted + (outcome.shed_self ? 1 : 0);
                    counters_.add<C::shed_mem_budget>(shed);
                    frec_note(FrecRing::assembler, FrecKind::shed, event.flow_id, shed,
                              static_cast<std::uint32_t>(FrecShed::mem_budget));
                }
                if (!outcome.admitted && !outcome.new_flow && !outcome.shed_self) {
                    counters_.add<C::events_dropped_mem>();
                }
            }
            if (batch->has_marker) {
                write_snapshot(batch->cut, table, stream_now);
            }
        }
        for (ReadyFlow& flow : table.pop_ready(stream_now)) {
            offer(std::move(flow), false);
        }
        instruments_.flows_active.set(static_cast<std::int64_t>(table.size()));
        if (!batch.has_value() && ingest_.closed() && ingest_.size() == 0) {
            break;
        }
    }
    // The final flush blocks up to 2 s per flow by design (the classifier is
    // draining) — tell the watchdog this is intentional.
    watchdog_.set_idle(slot_, true);
    for (ReadyFlow& flow : table.flush_all()) {
        offer(std::move(flow), true);
    }
    instruments_.flows_active.set(0);
    ready_.close();
    watchdog_.mark_done(slot_);
}

} // namespace fptc::serve

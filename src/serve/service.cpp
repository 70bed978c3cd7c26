#include "fptc/serve/service.hpp"

#include "fptc/serve/admission.hpp"
#include "fptc/serve/drift.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/flow_table.hpp"
#include "fptc/serve/queue.hpp"
#include "fptc/serve/reload.hpp"
#include "fptc/serve/snapshot.hpp"
#include "fptc/serve/status.hpp"
#include "fptc/serve/supervisor.hpp"
#include "fptc/serve/watchdog.hpp"

#include "fptc/util/cancel.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/shutdown.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

namespace fptc::serve {

namespace {

std::size_t env_size(const char* name, std::size_t fallback, std::size_t minimum)
{
    const auto value = util::env_int(name);
    if (!value.has_value()) {
        return fallback;
    }
    const auto parsed = static_cast<std::size_t>(*value);
    if (parsed < minimum) {
        throw util::EnvError(std::string(name) + " must be >= " + std::to_string(minimum) +
                             ", got " + std::to_string(parsed));
    }
    return parsed;
}

double env_positive(const char* name, double fallback, bool allow_zero)
{
    const auto value = util::env_double(name);
    if (!value.has_value()) {
        return fallback;
    }
    if (*value <= 0.0 && !(allow_zero && *value == 0.0)) {
        throw util::EnvError(std::string(name) + " must be positive, got " +
                             std::to_string(*value));
    }
    return *value;
}

} // namespace

std::uint64_t ServeConfig::fingerprint() const
{
    // FNV-1a over the fields a watermark-skip resume depends on: the window
    // decides which flows close when, the dims/classes decide what the
    // backends see, and fingerprint_extra carries the stream identity.
    const auto mix = [](std::uint64_t hash, std::uint64_t value) {
        hash ^= value;
        return hash * 1099511628211ULL;
    };
    std::uint64_t hash = 14695981039346656037ULL;
    hash = mix(hash, std::bit_cast<std::uint64_t>(window_seconds));
    hash = mix(hash, num_classes);
    hash = mix(hash, flowpic_dim);
    hash = mix(hash, reduced_dim);
    hash = mix(hash, fingerprint_extra);
    return hash | 1;  // 0 means "don't check" to load_snapshot
}

ServeConfig ServeConfig::from_env()
{
    ServeConfig config;
    config.queue_depth = env_size("FPTC_SERVE_QUEUE_DEPTH", config.queue_depth, 1);
    config.ready_depth = env_size("FPTC_SERVE_READY_DEPTH", config.ready_depth, 1);
    config.batch_size = env_size("FPTC_SERVE_BATCH", config.batch_size, 1);
    config.window_seconds = env_positive("FPTC_SERVE_WINDOW_S", config.window_seconds, false);
    config.deadline_ms = env_positive("FPTC_SERVE_DEADLINE_MS", config.deadline_ms, true);
    config.mem_mb = env_size("FPTC_SERVE_MEM_MB", config.mem_mb, 1);
    config.breaker_p99_ms = env_positive("FPTC_SERVE_BREAKER_P99_MS", config.breaker_p99_ms, false);
    config.breaker_failures = static_cast<int>(
        env_size("FPTC_SERVE_BREAKER_FAILURES", static_cast<std::size_t>(config.breaker_failures), 1));
    config.breaker_cooldown = static_cast<int>(
        env_size("FPTC_SERVE_BREAKER_COOLDOWN", static_cast<std::size_t>(config.breaker_cooldown), 1));
    config.slo_ms = env_positive("FPTC_SERVE_SLO_MS", config.slo_ms, true);
    config.slo_interval_ms =
        env_positive("FPTC_SERVE_SLO_INTERVAL_MS", config.slo_interval_ms, false);
    config.snapshot_path = util::env_string("FPTC_SERVE_SNAPSHOT");
    config.snapshot_period_s =
        env_positive("FPTC_SERVE_SNAPSHOT_S", config.snapshot_period_s, true);
    config.snapshot_every = static_cast<std::uint64_t>(
        util::env_int("FPTC_SERVE_SNAPSHOT_EVERY").value_or(0));
    config.unknown_thresh = env_positive("FPTC_SERVE_UNKNOWN_THRESH", config.unknown_thresh, true);
    if (config.unknown_thresh > 1.0) {
        throw util::EnvError("FPTC_SERVE_UNKNOWN_THRESH must be in [0, 1], got " +
                             std::to_string(config.unknown_thresh));
    }
    config.drift_lambda = env_positive("FPTC_SERVE_DRIFT_LAMBDA", config.drift_lambda, true);
    config.drift_delta = env_positive("FPTC_SERVE_DRIFT_DELTA", config.drift_delta, false);
    config.drift_min_samples = env_size("FPTC_SERVE_DRIFT_MIN", config.drift_min_samples, 1);
    config.drift_rate_window = env_size("FPTC_SERVE_DRIFT_RATE_WINDOW", config.drift_rate_window, 8);
    config.drift_rate_thresh =
        env_positive("FPTC_SERVE_DRIFT_RATE_THRESH", config.drift_rate_thresh, true);
    config.reload_path = util::env_string("FPTC_SERVE_RELOAD");
    config.reload_tolerance = env_positive("FPTC_SERVE_RELOAD_TOL", config.reload_tolerance, true);
    config.reload_canary_flows = env_size("FPTC_SERVE_RELOAD_CANARY", config.reload_canary_flows, 1);
    config.reload_every = env_size("FPTC_SERVE_RELOAD_EVERY", config.reload_every, 1);
    config.hang_stall_s = env_positive("FPTC_SERVE_HANG_S", config.hang_stall_s, true);
    config.heartbeat_path = util::env_string("FPTC_SERVE_HEARTBEAT");
    config.gbt_only = util::env_int("FPTC_SERVE_GBT_ONLY").value_or(0) != 0;
    config.generation = serve_generation();
    config.postmortem_path = util::env_string("FPTC_SERVE_POSTMORTEM");
    // A crash dump needs rings to dump: the postmortem knob implies the
    // recorder (its rings then live in frec_ring_path's file).
    config.flightrec = util::env_int("FPTC_SERVE_FLIGHTREC").value_or(0) != 0 ||
                       !config.postmortem_path.empty();
    config.status_path = util::env_string("FPTC_SERVE_STATUS");
    config.status_period_s = env_positive("FPTC_SERVE_STATUS_S", config.status_period_s, false);
    return config;
}

std::string ServeReport::summary() const
{
    std::ostringstream out;
    out << "serve:";
    for (const ServeCounterSpec& spec : kServeCounters) {
        out << ' ' << spec.summary_key << '=' << this->*spec.field;
    }
    out << " tier=" << final_tier << " restored=" << (restored ? 1 : 0)
        << " generation=" << generation << " model_generation=" << model_generation
        << " frec_events=" << frec_events << " frec_dropped=" << frec_dropped
        << " status_writes=" << status_writes << " accounted=" << (accounted() ? 1 : 0);
    return out.str();
}

namespace {

/// The per-run counters: a slot per counters.hpp row plus its registry
/// counter.  Each counter has one writing thread, so counting is a relaxed
/// load + store; the snapshot cut and the status writer take relaxed samples.
/// Each slot has its own cache line, so the driver's per-event counts share
/// none with the other stages.  A restored run seeds the slots from the
/// snapshot cut, so the report spans process generations.
class LiveCounters {
public:
    explicit LiveCounters(const ServeCounters& seed)
    {
        for (std::size_t i = 0; i < kServeCounterCount; ++i) {
            slots_[i].value.store(seed.*kServeCounters[i].field, std::memory_order_relaxed);
            if (kServeCounters[i].metric != nullptr) {
                metrics_[i] = &util::metrics().counter(kServeCounters[i].metric);
            }
        }
    }

    /// Count `n` more and return the new total (writing thread only).
    template <ServeCounter id>
    std::uint64_t add(std::uint64_t n = 1) noexcept
    {
        constexpr auto i = static_cast<std::size_t>(id);
        const std::uint64_t total = slots_[i].value.load(std::memory_order_relaxed) + n;
        slots_[i].value.store(total, std::memory_order_relaxed);
        if constexpr (kServeCounters[i].metric != nullptr) {
            metrics_[i]->add(n);
        }
        return total;
    }

    /// Catch up with a running total kept by the counter's owner (the
    /// breaker's trips and recoveries).
    template <ServeCounter id>
    void raise_to(std::uint64_t total) noexcept
    {
        const std::uint64_t now = get<id>();
        if (total > now) {
            add<id>(total - now);
        }
    }

    template <ServeCounter id>
    [[nodiscard]] std::uint64_t get() const noexcept
    {
        return slots_[static_cast<std::size_t>(id)].value.load(std::memory_order_relaxed);
    }

    [[nodiscard]] ServeCounters load() const noexcept
    {
        ServeCounters out;
        for (std::size_t i = 0; i < kServeCounterCount; ++i) {
            out.*kServeCounters[i].field = slots_[i].value.load(std::memory_order_relaxed);
        }
        return out;
    }

private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Slot, kServeCounterCount> slots_{};
    std::array<util::Counter*, kServeCounterCount> metrics_{};
};

/// Cached registry gauges and histograms (lookups mutex, instruments
/// lock-free); the counters live in LiveCounters.
struct ServeMetrics {
    util::Gauge& flows_active = util::metrics().gauge("fptc_serve_flows_active");
    util::Gauge& breaker_state = util::metrics().gauge("fptc_serve_breaker_state");
    util::Gauge& generation = util::metrics().gauge("fptc_serve_generation");
    util::Gauge& model_generation = util::metrics().gauge("fptc_serve_model_generation");
    util::Gauge& frec_events = util::metrics().gauge("fptc_serve_flightrec_events");
    util::Gauge& frec_dropped = util::metrics().gauge("fptc_serve_flightrec_dropped");
    util::Histogram& latency = util::metrics().histogram("fptc_serve_classify_latency_ns");
    // Stage attribution sub-histograms (ns, same bit-width buckets as the
    // end-to-end latency histogram).  backend_compute observes the *same*
    // value as `latency`, so the two reconcile exactly in count and sum.
    util::Histogram& stage_ingest_wait =
        util::metrics().histogram(frec_stage_metric_name(FrecStage::ingest_wait));
    util::Histogram& stage_assembly =
        util::metrics().histogram(frec_stage_metric_name(FrecStage::assembly));
    util::Histogram& stage_ready_wait =
        util::metrics().histogram(frec_stage_metric_name(FrecStage::ready_wait));
    util::Histogram& stage_backend =
        util::metrics().histogram(frec_stage_metric_name(FrecStage::backend_compute));
};

double elapsed_ms(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
        .count();
}

double steady_now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Nanoseconds since a steady stamp; 0 for a default-constructed (unset)
/// stamp so a missing origin never inflates a stage histogram.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since)
{
    if (since.time_since_epoch().count() == 0) {
        return 0;
    }
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - since)
                                          .count());
}

/// The driver's exact counter cut carried by a snapshot marker.
struct SnapshotMarker {
    std::uint64_t events_total = 0;
    std::uint64_t events_dropped_queue = 0;
};

/// Events per ingest push, and so per assembler loop.  A push per event
/// wakes an assembler that keeps pace for nearly every event, and such
/// replays run at half the events/sec of those where it lags.
constexpr std::size_t kIngestBatch = 256;

/// Ingest-queue payload: up to kIngestBatch events, stamped once when the
/// first of them was staged, and an optional snapshot marker that follows
/// the last of them.
struct IngestBatch {
    std::vector<PacketEvent> events;
    std::chrono::steady_clock::time_point enqueued{};
    bool has_marker = false;
    SnapshotMarker cut{};
};

/// Ready-queue payload: a window-closed flow stamped at enqueue.
struct StampedFlow {
    ReadyFlow flow;
    std::chrono::steady_clock::time_point enqueued{};
};

} // namespace

StreamingClassifier::StreamingClassifier(const ServeConfig& config, Backend& full,
                                         Backend& reduced, Backend& fallback)
    : config_(config), full_(full), reduced_(reduced), fallback_(fallback)
{
}

ServeReport StreamingClassifier::run(InterleavedStream& stream)
{
    const auto wall_start = std::chrono::steady_clock::now();
    std::optional<ServeSnapshot> snap;
    if (!config_.snapshot_path.empty()) {
        // Sweep half-written snapshot temps whose writer died mid-commit
        // (same dead-pid-guarded scavenger the journal layer uses).
        (void)util::scavenge_orphan_temps(util::parent_dir_of(config_.snapshot_path));
        snap = load_snapshot(config_.snapshot_path, config_.fingerprint());
    }
    using C = ServeCounter;
    LiveCounters counters(snap.has_value() ? snap->counters : ServeCounters{});
    ServeMetrics instruments;
    // Accepted reloads; persisted in the snapshot header, not a counter row.
    std::atomic<std::uint32_t> model_generation{snap.has_value() ? snap->model_generation : 0};
    instruments.generation.set(static_cast<std::int64_t>(config_.generation));
    // The ingest capacity stays counted in events, rounded up to whole
    // batches: queue_depth 1 still holds one event.
    const std::size_t ingest_batch = std::clamp(config_.queue_depth, std::size_t{1}, kIngestBatch);
    BoundedQueue<IngestBatch> ingest((config_.queue_depth + ingest_batch - 1) / ingest_batch);
    BoundedQueue<StampedFlow> ready(config_.ready_depth);

    // ---- flight recorder: per-thread lifecycle rings ----------------------
    // Constructed before any pipeline thread so every frec_note() in the
    // stages sees an armed gate; when disabled, each call site costs one
    // relaxed load + predicted branch (the <=2% contract).
    std::optional<FlightRecorder> recorder;
    if (config_.flightrec) {
        recorder.emplace(FrecConfig{
            .ring_path = frec_ring_path(config_.postmortem_path),
            .generation = config_.generation,
        });
    }
    // One postmortem per process: watchdog stall and breaker hard-trip race
    // only in pathological runs, and the first dump is the interesting one.
    std::atomic<bool> postmortem_taken{false};
    const auto take_postmortem = [&](PostmortemReason reason, const std::string& detail) {
        if (!recorder.has_value() || config_.postmortem_path.empty() ||
            postmortem_taken.exchange(true)) {
            return;
        }
        counters.add<C::postmortems_written>();
        instruments.frec_events.set(static_cast<std::int64_t>(recorder->recorded_total()));
        instruments.frec_dropped.set(static_cast<std::int64_t>(recorder->dropped_total()));
        recorder->dump(config_.postmortem_path, reason, detail);
    };

    // ---- crash recovery: type the restored generation's loss window -------
    if (snap.has_value()) {
        const ServeCounters& base = snap->counters;
        // The loss window: flows the cut says were ingested but are neither
        // classified, shed, nor in the persisted table — they sat in the
        // ready queue or a half-classified batch when the process died.
        // Classifier-side counters in the cut are relaxed samples that can
        // only *lag* (under-count), so the deficit can only over-estimate —
        // a conservative, typed bound on what the crash cost.
        const std::uint64_t accounted_at_cut =
            base.flows_classified + base.flows_unknown + base.shed_total() + snap->flows.size();
        const std::uint64_t loss = base.flows_ingested > accounted_at_cut
                                       ? base.flows_ingested - accounted_at_cut
                                       : 0;
        counters.add<C::shed_restart_loss>(loss);
        util::log_info("serve: restored snapshot (watermark=" + std::to_string(snap->watermark) +
                       " flows=" + std::to_string(snap->flows.size()) +
                       " restart_loss=" + std::to_string(loss) + " from generation " +
                       std::to_string(snap->generation) + ")");
    }

    // ---- watchdog: per-thread stall detection + supervisor heartbeat ------
    WatchdogConfig wd_config{
        .stall_seconds = config_.hang_stall_s,
        .poll_seconds = 0.25,
        .heartbeat_path = config_.heartbeat_path,
        .on_stall = {},
    };
    if (recorder.has_value() && !config_.postmortem_path.empty()) {
        // Mirror the default stall action (log + _Exit) but seal a
        // postmortem first: the rings hold the stalled thread's last steps.
        wd_config.on_stall = [&take_postmortem](const std::string& name) {
            take_postmortem(PostmortemReason::watchdog_stall, "stalled thread: " + name);
            util::log_info("serve watchdog: thread '" + name +
                           "' stalled; postmortem sealed; hang-exiting");
            std::_Exit(kHangExitCode);
        };
    }
    Watchdog watchdog(wd_config);
    const std::size_t wd_driver = watchdog.add_thread("driver");
    const std::size_t wd_assembler = watchdog.add_thread("assembler");
    const std::size_t wd_classifier = watchdog.add_thread("classifier");
    watchdog.start();

    // Each pipeline thread fills its own fields of the report, read after
    // join() (the join is the synchronization point, so plain fields suffice).
    ServeReport report;
    report.generation = config_.generation;
    std::vector<double> latencies;

    // --- assembler: validate events, fold into the flow table, release
    // window-closed flows into the ready queue -----------------------------
    std::thread assembler([&] {
        FPTC_TRACE_SPAN("serve_assembler");
        FlowTable table(config_.mem_mb * 1024 * 1024, config_.window_seconds);
        double stream_now = 0.0;
        if (snap.has_value()) {
            // Charges go through the MemBudget exactly like live admission;
            // a shrunken post-restart budget turns refusals into typed
            // mem_budget sheds instead of a crash loop.
            const std::size_t refused = table.restore(snap->flows);
            report.restored_flows = snap->flows.size() - refused;
            report.restore_refused = refused;
            counters.add<C::shed_mem_budget>(refused);
            stream_now = snap->stream_now;
        }
        CoDelAdmission admission(
            {.target_ms = config_.slo_ms, .interval_ms = config_.slo_interval_ms});
        const auto write_snapshot = [&](const SnapshotMarker& cut) {
            ServeSnapshot out;
            out.watermark = cut.events_total;
            out.stream_now = stream_now;
            out.generation = config_.generation;
            out.model_generation = model_generation.load(std::memory_order_relaxed);
            out.config_fingerprint = config_.fingerprint();
            // The assembler's counters are exact here (FIFO: every event
            // before the watermark is folded in), the driver's come with the
            // marker, the classifier's may lag (absorbed as restart_loss).
            out.counters = counters.load();
            out.counters.events_total = cut.events_total;
            out.counters.events_dropped_queue = cut.events_dropped_queue;
            out.flows = table.snapshot_entries();
            try {
                save_snapshot(config_.snapshot_path, out);
            } catch (const std::exception& e) {
                // A failed snapshot costs recovery freshness, never the
                // stream: log and keep serving; the next marker retries.
                util::log_info(std::string("serve: snapshot write failed (") + e.what() +
                               "); continuing without");
                return;
            }
            counters.add<C::snapshots_written>();
            // Recorded after the durable commit and before the injected
            // SIGKILL below: a postmortem sealed from the ring file always
            // ends at (or after) the watermark the restarted worker resumes
            // from.
            frec_note(FrecRing::assembler, FrecKind::snapshot_marker, 0, cut.events_total);
            if (util::fault_injector().inject_serve_kill()) {
                util::log_info("serve: fault injector SIGKILLing worker after snapshot commit");
                ::raise(SIGKILL);
            }
        };
        const auto offer = [&](ReadyFlow&& flow, bool final_flush) {
            // The assembly stage ends here: first packet seen -> window
            // closed and offered downstream.
            const std::uint64_t flow_id = flow.flow_id;
            const std::uint64_t assembly_ns = elapsed_ns(flow.first_seen);
            instruments.stage_assembly.observe(assembly_ns);
            frec_exemplar(FrecStage::assembly, assembly_ns, flow_id);
            frec_note(FrecRing::assembler, FrecKind::window_close, flow_id, assembly_ns);
            // Bounded backpressure, like the ingest side: a busy classifier
            // gets a grace window (longer at the final flush, when it is
            // known to be draining), then the flow is shed with a typed
            // reason.  A wedged classifier can never block shutdown.
            const auto grace = std::chrono::milliseconds(final_flush ? 2000 : 200);
            const bool queued = ready.push_wait(
                StampedFlow{std::move(flow), std::chrono::steady_clock::now()}, grace);
            if (!queued) {
                // The refused ReadyFlow dies inside the push call; its
                // Charge destructor credits the bytes back right here.
                counters.add<C::shed_queue_full>();
                frec_note(FrecRing::assembler, FrecKind::shed, flow_id, 1,
                          static_cast<std::uint32_t>(FrecShed::queue_full));
            } else if (recorder.has_value()) {
                // ready.size() locks the ready queue: read it only when the
                // note is recorded, so a disabled probe stays one load.
                frec_note(FrecRing::assembler, FrecKind::batch_enqueue, flow_id,
                          ready.size());
            }
        };
        for (;;) {
            watchdog.beat(wd_assembler);
            std::optional<IngestBatch> batch = ingest.pop(std::chrono::milliseconds(20));
            if (batch.has_value()) {
                // The ingest-wait stage ends at dequeue, whatever each
                // event's fate below.  Every event of a batch is timed from
                // the batch's stamp, and CoDel judges that sojourn.
                const std::uint64_t wait_ns = elapsed_ns(batch->enqueued);
                const double sojourn_ms = static_cast<double>(wait_ns) / 1e6;
                const double now_ms = admission.enabled() ? steady_now_ms() : 0.0;
                for (const PacketEvent& event : batch->events) {
                    instruments.stage_ingest_wait.observe(wait_ns);
                    frec_exemplar(FrecStage::ingest_wait, wait_ns, event.flow_id);
                    if (admission.enabled() && admission.should_drop(sojourn_ms, now_ms)) {
                        // Sojourn over the SLO for a sustained interval: the
                        // event is doomed work — drop it before it costs
                        // table space and classify time (event-level, typed).
                        counters.add<C::events_dropped_slo>();
                        frec_note(FrecRing::assembler, FrecKind::codel_drop, event.flow_id,
                                  wait_ns);
                        continue;
                    }
                    if (const char* reason = validate(event); reason != nullptr) {
                        (void)reason;
                        counters.add<C::events_quarantined>();
                        frec_note(FrecRing::assembler, FrecKind::quarantine, event.flow_id);
                        continue;
                    }
                    stream_now = std::max(stream_now, event.timestamp);
                    const AddOutcome outcome = table.add_packet(event);
                    if (outcome.quarantined_backwards) {
                        // Trust boundary: a packet time-warping backwards inside
                        // its flow is dropped before it can poison the window.
                        // Event-level, typed; the flow itself keeps serving.
                        counters.add<C::events_quarantined_backwards>();
                        frec_note(FrecRing::assembler, FrecKind::quarantine, event.flow_id, 0, 1);
                        continue;
                    }
                    if (outcome.new_flow) {
                        counters.add<C::flows_ingested>();
                        frec_note(FrecRing::assembler, FrecKind::admit, event.flow_id,
                                  table.size());
                    }
                    if (outcome.evicted > 0 || outcome.shed_self) {
                        const std::uint64_t shed =
                            outcome.evicted + (outcome.shed_self ? 1 : 0);
                        counters.add<C::shed_mem_budget>(shed);
                        frec_note(FrecRing::assembler, FrecKind::shed, event.flow_id, shed,
                                  static_cast<std::uint32_t>(FrecShed::mem_budget));
                    }
                    if (!outcome.admitted && !outcome.new_flow && !outcome.shed_self) {
                        counters.add<C::events_dropped_mem>();
                    }
                }
                if (batch->has_marker) {
                    write_snapshot(batch->cut);
                }
            }
            for (ReadyFlow& flow : table.pop_ready(stream_now)) {
                offer(std::move(flow), false);
            }
            instruments.flows_active.set(static_cast<std::int64_t>(table.size()));
            if (!batch.has_value() && ingest.closed() && ingest.size() == 0) {
                break;
            }
        }
        // The final flush blocks up to 2 s per flow by design (the
        // classifier is draining) — tell the watchdog this is intentional.
        watchdog.set_idle(wd_assembler, true);
        for (ReadyFlow& flow : table.flush_all()) {
            offer(std::move(flow), true);
        }
        instruments.flows_active.set(0);
        ready.close();
        watchdog.mark_done(wd_assembler);
    });

    // --- classifier: micro-batch ready flows into the breaker-picked
    // backend under a per-batch deadline ------------------------------------
    std::thread classifier([&] {
        FPTC_TRACE_SPAN("serve_classifier");
        CircuitBreaker breaker({.p99_ms = config_.breaker_p99_ms,
                                .failure_threshold = config_.breaker_failures,
                                .cooldown_batches = config_.breaker_cooldown});
        CoDelAdmission admission(
            {.target_ms = config_.slo_ms, .interval_ms = config_.slo_interval_ms});
        DriftMonitor drift(DriftMonitorConfig{
            .lambda = config_.drift_lambda,
            .delta = config_.drift_delta,
            .min_samples = config_.drift_min_samples,
            .num_classes = config_.num_classes,
            .rate_window = config_.drift_rate_window,
            .rate_threshold = config_.drift_rate_thresh,
        });
        // The reload target is the full-tier CNN; a non-CNN full tier (or
        // the gbt_only degraded worker) leaves the reloader disabled.
        ModelReloader reloader(
            ReloadConfig{
                .path = config_.reload_path,
                .tolerance = config_.reload_tolerance,
                .canary_flows = config_.reload_canary_flows,
                .check_every = config_.reload_every,
                .num_classes = config_.num_classes,
                .seed = config_.fingerprint_extra != 0 ? config_.fingerprint_extra : 1,
            },
            config_.gbt_only ? nullptr : dynamic_cast<CnnBackend*>(&full_));
        // Generations survive SIGKILL: the counter continues from the
        // restored snapshot cut, so an accepted reload before the crash is
        // still visible in the restarted worker's report.
        reloader.set_model_generation(model_generation.load(std::memory_order_relaxed));
        instruments.model_generation.set(
            static_cast<std::int64_t>(reloader.model_generation()));
        std::uint64_t last_drift_alarms = 0;
        const auto apply_reload = [&](ModelReloader::Outcome outcome) {
            if (outcome == ModelReloader::Outcome::reloaded) {
                counters.add<C::reloads>();
                model_generation.store(reloader.model_generation(), std::memory_order_relaxed);
                instruments.model_generation.set(
                    static_cast<std::int64_t>(reloader.model_generation()));
                util::log_info("serve: hot-reloaded model (generation " +
                               std::to_string(reloader.model_generation()) +
                               ", candidate golden accuracy " +
                               std::to_string(reloader.stats().candidate_accuracy) + ")");
            } else if (outcome == ModelReloader::Outcome::rolled_back) {
                counters.add<C::reload_rollbacks>();
                util::log_info("serve: reload candidate rejected, incumbent kept (" +
                               reloader.stats().last_error + ")");
            }
        };
        std::vector<StampedFlow> staged;
        std::vector<ReadyFlow> batch;
        for (;;) {
            watchdog.beat(wd_classifier);
            staged.clear();
            batch.clear();
            const std::size_t taken =
                ready.drain(staged, config_.batch_size, std::chrono::milliseconds(20));
            if (taken == 0) {
                if (ready.closed() && ready.size() == 0) {
                    break;
                }
                continue;
            }
            for (StampedFlow& stamped : staged) {
                // The ready-wait stage ends at dequeue (the existing
                // sojourn, now also attributed in ns).
                const std::uint64_t sojourn_ns = elapsed_ns(stamped.enqueued);
                const double sojourn = static_cast<double>(sojourn_ns) / 1e6;
                instruments.stage_ready_wait.observe(sojourn_ns);
                frec_exemplar(FrecStage::ready_wait, sojourn_ns, stamped.flow.flow_id);
                if (config_.slo_ms > 0.0) {
                    counters.add<C::slo_considered>();
                    if (sojourn > config_.slo_ms) {
                        counters.add<C::slo_violations>();
                    }
                    if (admission.should_drop(sojourn, steady_now_ms())) {
                        // Hard SLO: a flow that queued past the target for
                        // a sustained interval is dropped *ahead of* the
                        // breaker — the ladder never sees doomed work.  The
                        // StampedFlow dies here; its Charge credits back.
                        counters.add<C::shed_slo>();
                        frec_note(FrecRing::classifier, FrecKind::shed,
                                  stamped.flow.flow_id, 1,
                                  static_cast<std::uint32_t>(FrecShed::slo));
                        continue;
                    }
                }
                batch.push_back(std::move(stamped.flow));
            }
            if (batch.empty()) {
                continue;
            }
            if (util::fault_injector().inject_serve_hang()) {
                // Wedge without heartbeating: the watchdog must detect the
                // stall and hang-exit.  The failsafe cap below keeps an
                // un-watched configuration from hanging forever.
                util::log_info("serve: fault injector wedging classifier thread (serve_hang)");
                const double cap_s =
                    config_.hang_stall_s > 0.0 ? config_.hang_stall_s * 10.0 : 5.0;
                const auto wedged_at = std::chrono::steady_clock::now();
                while (elapsed_ms(wedged_at) < cap_s * 1000.0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                }
                util::log_info("serve: wedge failsafe cap elapsed; resuming");
            }
            counters.add<C::batches>();
            Tier tier = breaker.plan_batch();
            if (config_.gbt_only && tier != Tier::shed) {
                // Degraded mode (supervisor's last restart): the CNN tiers
                // are suspected of the crash loop, so serve from the cheap
                // GBT fallback only.
                tier = Tier::fallback;
            }
            instruments.breaker_state.set(static_cast<std::int64_t>(breaker.tier()));
            if (tier == Tier::shed) {
                counters.add<C::shed_breaker>(batch.size());
                for (const ReadyFlow& flow : batch) {
                    frec_note(FrecRing::classifier, FrecKind::shed, flow.flow_id, 1,
                              static_cast<std::uint32_t>(FrecShed::breaker));
                }
                // Hard trip: the ladder has run out of cheaper tiers and is
                // refusing whole batches — exactly the state a postmortem
                // should capture while the evidence is still in the rings.
                take_postmortem(PostmortemReason::breaker_hard_trip,
                                "breaker ladder at shed tier");
                continue;
            }
            Backend& backend = tier == Tier::full      ? full_
                               : tier == Tier::reduced ? reduced_
                                                       : fallback_;
            util::CancelToken token;
            if (config_.deadline_ms > 0.0) {
                token.set_timeout(config_.deadline_ms / 1000.0);
            }
            if (util::fault_injector().inject_serve_backend_stall()) {
                // Stall until the deadline trips the token, or a hard cap
                // elapses so a deadline-less configuration cannot hang.
                const auto cap = std::chrono::milliseconds(
                    config_.deadline_ms > 0.0
                        ? static_cast<std::int64_t>(config_.deadline_ms * 2.0) + 100
                        : 250);
                token.arm_stall(cap);
            }
            frec_note(FrecRing::classifier, FrecKind::classify_start, batch.front().flow_id,
                      batch.size(), static_cast<std::uint32_t>(tier));
            const auto batch_start = std::chrono::steady_clock::now();
            bool deadline_hit = false;
            bool failed = false;
            std::vector<ScoredPrediction> predictions;
            try {
                FPTC_TRACE_SPAN("serve_classify", {{"backend", backend.name()}});
                predictions = backend.classify_scored({batch.data(), batch.size()}, token);
            } catch (const util::CancelledError&) {
                deadline_hit = true;
            } catch (const std::exception&) {
                failed = true;
            }
            const double latency = elapsed_ms(batch_start);
            const auto latency_ns = static_cast<std::uint64_t>(latency * 1e6);
            instruments.latency.observe(latency_ns);
            // The backend-compute stage observes the identical value as the
            // end-to-end histogram: the two reconcile exactly.
            instruments.stage_backend.observe(latency_ns);
            frec_exemplar(FrecStage::backend_compute, latency_ns, batch.front().flow_id);
            frec_note(FrecRing::classifier, FrecKind::classify_end, batch.front().flow_id,
                      latency_ns, static_cast<std::uint32_t>(tier));
            latencies.push_back(latency);
            if (deadline_hit || failed) {
                // deadline → typed deadline shed; any other backend failure
                // rides the breaker reason (it is the breaker's trigger).
                const auto reason_count = static_cast<std::uint64_t>(batch.size());
                if (deadline_hit) {
                    counters.add<C::shed_deadline>(reason_count);
                } else {
                    counters.add<C::shed_breaker>(reason_count);
                }
                for (const ReadyFlow& flow : batch) {
                    frec_note(FrecRing::classifier, FrecKind::shed, flow.flow_id, 1,
                              static_cast<std::uint32_t>(deadline_hit ? FrecShed::deadline
                                                                      : FrecShed::breaker));
                }
                breaker.record_failure(deadline_hit);
            } else {
                breaker.record_success(latency);
                std::uint64_t correct = 0;
                std::uint64_t unknown = 0;
                std::uint64_t unknown_truth = 0;
                std::uint64_t unknown_rejected = 0;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const ReadyFlow& flow = batch[i];
                    const ScoredPrediction prediction =
                        i < predictions.size() ? predictions[i] : ScoredPrediction{};
                    // Open-set rejection: a score below the threshold means
                    // "none of the trained classes" — the typed `unknown`
                    // outcome, never a forced label.
                    const bool rejected = config_.unknown_thresh > 0.0 &&
                                          prediction.confidence < config_.unknown_thresh;
                    const bool truth_unknown = flow.label >= config_.num_classes;
                    if (truth_unknown) {
                        ++unknown_truth;
                        if (rejected) {
                            ++unknown_rejected;
                        }
                    }
                    if (rejected) {
                        ++unknown;
                        frec_note(FrecRing::classifier, FrecKind::unknown_route,
                                  flow.flow_id);
                    } else if (prediction.label == flow.label) {
                        ++correct;
                    }
                    double mean_size = 0.0;
                    for (const flow::Packet& packet : flow.flow.packets) {
                        mean_size += static_cast<double>(packet.size);
                    }
                    if (!flow.flow.packets.empty()) {
                        mean_size /= static_cast<double>(flow.flow.packets.size());
                    }
                    (void)drift.observe(DriftObservation{
                        .confidence = prediction.confidence,
                        .predicted = rejected ? config_.num_classes : prediction.label,
                        .mean_packet_size = mean_size,
                        .packet_count = flow.flow.packets.size(),
                    });
                }
                counters.add<C::flows_classified>(batch.size() - unknown);
                counters.add<C::flows_correct>(correct);
                if (unknown > 0) {
                    counters.add<C::flows_unknown>(unknown);
                }
                if (unknown_truth > 0) {
                    counters.add<C::unknown_truth_total>(unknown_truth);
                    counters.add<C::unknown_truth_rejected>(unknown_rejected);
                }
            }
            instruments.breaker_state.set(static_cast<std::int64_t>(breaker.tier()));
            // Drift response ladder: count the alarm, step the breaker one
            // tier down (cheap tiers are cheaper to be wrong with), and
            // canary any pending reload candidate immediately.  Without an
            // alarm the candidate path is still polled on its cadence.
            const std::uint64_t drift_total = drift.stats().total();
            if (drift_total > last_drift_alarms) {
                const std::uint64_t fired = drift_total - last_drift_alarms;
                last_drift_alarms = drift_total;
                counters.add<C::drift_alarms>(fired);
                util::log_info("serve: drift alarm at sample " +
                               std::to_string(drift.stats().samples) + " (confidence mean " +
                               std::to_string(drift.stats().confidence_mean) + ")");
                breaker.drift_trip();
                apply_reload(reloader.check_now());
            } else {
                apply_reload(reloader.poll());
            }
            counters.raise_to<C::breaker_trips>(breaker.trips());
            counters.raise_to<C::breaker_recoveries>(breaker.recoveries());
        }
        report.final_tier = static_cast<int>(breaker.tier());
        report.drift = drift.stats();
        report.reload_attempts = reloader.stats().attempts;
        watchdog.mark_done(wd_classifier);
    });

    // ---- live introspection: periodic atomic status-file export -----------
    // The render callback reads only lock-free instruments and relaxed
    // atomics, so the writer thread never contends with the pipeline.
    const auto render_status = [&]() {
        util::Histogram* stages[kFrecStageCount] = {
            &instruments.stage_ingest_wait, &instruments.stage_assembly,
            &instruments.stage_ready_wait, &instruments.stage_backend};
        const ServeCounters now = counters.load();
        const auto tier = static_cast<Tier>(instruments.breaker_state.value());
        std::ostringstream out;
        out << "{\n";
        out << "  \"pid\": " << ::getpid() << ",\n";
        out << "  \"generation\": " << config_.generation << ",\n";
        out << "  \"model_generation\": " << model_generation.load(std::memory_order_relaxed)
            << ",\n";
        out << "  \"uptime_s\": "
            << std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                   .count()
            << ",\n";
        out << "  \"breaker_tier\": " << static_cast<int>(tier) << ",\n";
        out << "  \"breaker_tier_name\": \"" << tier_name(tier) << "\",\n";
        out << "  \"flows_active\": " << instruments.flows_active.value() << ",\n";
        for (const ServeCounterSpec& spec : kServeCounters) {
            out << "  \"" << spec.name << "\": " << now.*spec.field << ",\n";
        }
        out << "  \"shed_total\": " << now.shed_total() << ",\n";
        out << "  \"slo_compliance\": " << now.slo_compliance() << ",\n";
        out << "  \"flightrec\": {\"enabled\": " << (recorder.has_value() ? "true" : "false")
            << ", \"events\": " << (recorder.has_value() ? recorder->recorded_total() : 0)
            << ", \"dropped\": " << (recorder.has_value() ? recorder->dropped_total() : 0)
            << "},\n";
        out << "  \"stages\": [";
        for (std::size_t s = 0; s < kFrecStageCount; ++s) {
            const util::Histogram& h = *stages[s];
            const auto p99 = static_cast<std::uint64_t>(h.quantile(0.99));
            out << (s == 0 ? "\n" : ",\n");
            out << "    {\"stage\": \"" << frec_stage_name(static_cast<std::uint32_t>(s))
                << "\", \"count\": " << h.count() << ", \"p50_ns\": "
                << static_cast<std::uint64_t>(h.quantile(0.50))
                << ", \"p95_ns\": " << static_cast<std::uint64_t>(h.quantile(0.95))
                << ", \"p99_ns\": " << p99
                << ", \"p99_exemplar_flow\": "
                << (recorder.has_value()
                        ? recorder->exemplar(static_cast<FrecStage>(s), frec_bucket(p99))
                        : 0)
                << "}";
        }
        out << "\n  ]\n}\n";
        return out.str();
    };
    std::optional<StatusWriter> status;
    if (!config_.status_path.empty()) {
        status.emplace(
            StatusWriterConfig{.path = config_.status_path, .period_s = config_.status_period_s},
            render_status);
    }

    // --- driver (this thread): pump the stream into the ingest queue -------
    if (snap.has_value()) {
        report.restored = true;
        report.watermark = snap->watermark;
        // The stream is seed-deterministic (bursts and mangles included), so
        // skipping exactly `watermark` draws resumes the identical sequence
        // the crashed generation had not yet delivered.
        for (std::uint64_t skipped = 0; skipped < snap->watermark; ++skipped) {
            if (!stream.next().has_value()) {
                break;
            }
            if ((skipped & 0x3FF) == 0) {
                watchdog.beat(wd_driver);
            }
        }
    }
    {
        FPTC_TRACE_SPAN("serve_ingest");
        const bool snapshots_on =
            !config_.snapshot_path.empty() &&
            (config_.snapshot_period_s > 0.0 || config_.snapshot_every > 0);
        auto last_marker = std::chrono::steady_clock::now();
        std::uint64_t events_since_marker = 0;
        // The driver's exact running total; its counter slot is caught up
        // once per published batch.
        std::uint64_t events_total = counters.get<C::events_total>();
        IngestBatch staged;
        std::vector<std::uint64_t> noted_flows;
        const auto publish = [&] {
            if (staged.events.empty()) {
                return;
            }
            watchdog.beat(wd_driver);
            const std::uint64_t size = staged.events.size();
            counters.add<C::events_total>(size);
            // push_wait consumes the batch even when it refuses it: keep the
            // flow ids the driver ring notes after the push.
            noted_flows.clear();
            if (recorder.has_value()) {
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
            const bool queued = ingest.push_wait(std::move(staged), grace);
            if (!queued) {
                counters.add<C::events_dropped_queue>(size);
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
        while (auto event = stream.next()) {
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
                staged.cut = SnapshotMarker{events_total, counters.get<C::events_dropped_queue>()};
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
    }
    watchdog.mark_done(wd_driver);
    ingest.close();
    assembler.join();
    classifier.join();
    watchdog.stop();
    if (recorder.has_value()) {
        instruments.frec_events.set(static_cast<std::int64_t>(recorder->recorded_total()));
        instruments.frec_dropped.set(static_cast<std::int64_t>(recorder->dropped_total()));
        report.frec_events = recorder->recorded_total();
        report.frec_dropped = recorder->dropped_total();
    }
    if (status.has_value()) {
        status->stop();  // the final export reflects the fully drained pipeline
        report.status_writes = status->writes();
    }

    const bool clean_finish = !util::shutdown_requested();
    if (!config_.snapshot_path.empty() && clean_finish) {
        // The stream is fully served and accounted: a leftover snapshot
        // would make the *next* run believe it crashed.  Remove it; only a
        // crash leaves one behind.
        ::unlink(config_.snapshot_path.c_str());
    }
    if (recorder.has_value() && clean_finish) {
        // A leftover ring file would let a later seal describe a run that
        // finished fine; only a crash leaves one behind (that is the point).
        recorder->remove_backing();
    }
    static_cast<ServeCounters&>(report) = counters.load();
    report.model_generation = model_generation.load();
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        const auto rank = [&](double q) {
            return latencies[std::min(latencies.size() - 1,
                                      static_cast<std::size_t>(q * static_cast<double>(
                                                                       latencies.size())))];
        };
        report.p50_latency_ms = rank(0.50);
        report.p99_latency_ms = rank(0.99);
    }
    return report;
}

} // namespace fptc::serve

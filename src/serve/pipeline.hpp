// The serve pipeline's private parts: the counters, instruments and queue
// payloads the stages share, and the three stage classes that
// StreamingClassifier::run wires together (layout: service.hpp).
#pragma once

#include "fptc/serve/admission.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/flow_table.hpp"
#include "fptc/serve/queue.hpp"
#include "fptc/serve/reload.hpp"
#include "fptc/serve/service.hpp"  // backend, breaker, counters, drift, stream
#include "fptc/serve/snapshot.hpp"
#include "fptc/serve/watchdog.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fptc::serve {

/// The per-run counters: a slot per counters.hpp row plus its registry
/// counter.  Each counter has one writing thread, so counting is a relaxed
/// load + store; the snapshot cut and the status export take relaxed samples.
/// Each slot has its own cache line, so the stages' counts share none.  A
/// restored run seeds the slots from the snapshot cut, so the report spans
/// process generations.
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

inline double elapsed_ms(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
        .count();
}

inline double steady_now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Nanoseconds since a steady stamp; 0 for a default-constructed (unset)
/// stamp so a missing origin never inflates a stage histogram.
inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since)
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

/// Events per ingest push, and so per assembler loop (queue.hpp).
inline constexpr std::size_t kIngestBatch = 256;

/// Events per ingest batch.  The ingest capacity stays counted in events,
/// rounded up to whole batches: queue_depth 1 still holds one event.
inline std::size_t ingest_batch_events(const ServeConfig& config)
{
    return std::clamp(config.queue_depth, std::size_t{1}, kIngestBatch);
}

/// Ingest-queue payload: a view of up to kIngestBatch events of the stream
/// (which outlives the run), stamped once when it was taken, and an optional
/// snapshot marker that follows the last of them.
struct IngestBatch {
    std::span<const PacketEvent> events;
    std::chrono::steady_clock::time_point enqueued{};
    bool has_marker = false;
    SnapshotMarker cut{};
};

/// Ready-queue payload: a window-closed flow stamped at enqueue.
struct StampedFlow {
    ReadyFlow flow;
    std::chrono::steady_clock::time_point enqueued{};
};

/// One postmortem per process: watchdog stall and breaker hard-trip race
/// only in pathological runs, and the first dump is the interesting one.
/// Inert without a recorder or a postmortem path (service.cpp).
struct PostmortemHook {
    FlightRecorder* recorder;
    const std::string& path;
    LiveCounters& counters;
    ServeMetrics& instruments;
    std::atomic<bool> taken{false};

    [[nodiscard]] bool armed() const noexcept { return recorder != nullptr && !path.empty(); }
    void take(PostmortemReason reason, const std::string& detail);
};

/// The driver stage, on the caller's thread: skips a restored run's
/// watermark, slices the stream into batches for the ingest queue with the
/// snapshot markers between them, and closes the queue at the end of the
/// stream or on a shutdown request.  Reads queue_depth, snapshot_path and
/// snapshot_every of the config.
class Driver {
public:
    Driver(InterleavedStream& stream, BoundedQueue<IngestBatch>& ingest, LiveCounters& counters,
           Watchdog& watchdog, const ServeConfig& config, std::uint64_t watermark, bool recording)
        : stream_(stream), ingest_(ingest), counters_(counters), watchdog_(watchdog),
          slot_(watchdog.add_thread("driver")), config_(config), watermark_(watermark),
          recording_(recording)
    {
    }
    Driver(const Driver&) = delete;  // the run() loop's thread holds its address

    void run();

private:
    InterleavedStream& stream_;
    BoundedQueue<IngestBatch>& ingest_;
    LiveCounters& counters_;
    Watchdog& watchdog_;
    std::size_t slot_;
    const ServeConfig& config_;
    std::uint64_t watermark_;
    bool recording_;
};

/// The assembler stage: restores `snap`'s flows, validates events behind
/// CoDel admission, folds them into the FlowTable, writes a snapshot at each
/// marker, offers window-closed flows to the ready queue, and at the end
/// flushes the table and closes the ready queue.  Reads mem_mb,
/// window_seconds, slo_ms, snapshot_path, generation and fingerprint().
class Assembler {
public:
    Assembler(BoundedQueue<IngestBatch>& ingest, BoundedQueue<StampedFlow>& ready,
              LiveCounters& counters, ServeMetrics& instruments, Watchdog& watchdog,
              const ServeConfig& config, const ServeSnapshot* snap,
              const std::atomic<std::uint32_t>& model_generation, bool recording,
              ServeReport& report)
        : ingest_(ingest), ready_(ready), counters_(counters), instruments_(instruments),
          watchdog_(watchdog), slot_(watchdog.add_thread("assembler")), config_(config),
          snap_(snap), model_generation_(model_generation), recording_(recording),
          report_(report)
    {
    }
    Assembler(const Assembler&) = delete;

    void run();

private:
    void offer(ReadyFlow&& flow, bool final_flush);
    void write_snapshot(const SnapshotMarker& cut, const FlowTable& table, double stream_now);

    BoundedQueue<IngestBatch>& ingest_;
    BoundedQueue<StampedFlow>& ready_;
    LiveCounters& counters_;
    ServeMetrics& instruments_;
    Watchdog& watchdog_;
    std::size_t slot_;
    const ServeConfig& config_;
    const ServeSnapshot* snap_;
    const std::atomic<std::uint32_t>& model_generation_;
    bool recording_;
    ServeReport& report_;
};

/// The classifier stage: micro-batches ready flows behind CoDel admission,
/// classifies each batch on the breaker-picked backend under the deadline,
/// scores it (open-set rejection, drift) and polls the reload candidate.
/// Reads batch_size, slo_ms, deadline_ms, hang_stall_s, breaker_cooldown,
/// unknown_thresh, num_classes, gbt_only, fingerprint_extra and the drift_*
/// and reload_* config fields; fills the report's tier, drift, reload and
/// latency fields.
class Classifier {
public:
    Classifier(BoundedQueue<StampedFlow>& ready, Backend& full, Backend& reduced,
               Backend& fallback, LiveCounters& counters, ServeMetrics& instruments,
               Watchdog& watchdog, const ServeConfig& config,
               std::atomic<std::uint32_t>& model_generation, PostmortemHook& postmortem,
               ServeReport& report);
    Classifier(const Classifier&) = delete;

    void run();

private:
    void classify(std::vector<ReadyFlow>& batch);
    void apply_reload(ModelReloader::Outcome outcome);

    BoundedQueue<StampedFlow>& ready_;
    std::array<Backend*, 3> tiers_;  ///< indexed by Tier: full, reduced, fallback
    LiveCounters& counters_;
    ServeMetrics& instruments_;
    Watchdog& watchdog_;
    std::size_t slot_;
    const ServeConfig& config_;
    std::atomic<std::uint32_t>& model_generation_;
    PostmortemHook& postmortem_;
    ServeReport& report_;
    CircuitBreaker breaker_;
    CoDelAdmission admission_;
    DriftMonitor drift_;
    ModelReloader reloader_;
    std::uint64_t last_drift_alarms_ = 0;
    std::vector<double> latencies_;
};

/// The live status document (JSON) that tools/fptc_servestat renders.  It
/// reads only lock-free instruments and relaxed atomics, so it is safe
/// against the running pipeline (status.cpp).
[[nodiscard]] std::string render_status(const LiveCounters& counters,
                                        const ServeMetrics& instruments,
                                        const FlightRecorder* recorder, std::uint32_t generation,
                                        std::uint32_t model_generation,
                                        std::chrono::steady_clock::time_point started);

/// Publish `body` at `path` with the temp + rename idiom, so a concurrent
/// reader sees the previous complete document or this one, never a prefix.
/// Plain writes, no fsync: the status file is a freshness artifact, not a
/// durability one.  False when any step fails.
[[nodiscard]] bool write_status_file(const std::string& path, const std::string& body);

} // namespace fptc::serve

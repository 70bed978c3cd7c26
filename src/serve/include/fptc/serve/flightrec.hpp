// Serve flight recorder: per-flow lifecycle events, stage-latency
// exemplars, and crash postmortems.
//
// The serve pipeline already *counts* everything (fptc_serve_* metrics) —
// this module records *which flow* did what, *when*.  Three per-stage
// util::EventRing rings (driver / assembler / classifier, one producer
// thread each — the ring trace spans push into too) hold compact 32-byte
// binary events: ingest, quarantine, admit, CoDel drop, window close,
// batch enqueue, classify start/end with backend tier, shed with typed
// reason, unknown-route, snapshot-marker.  Events are keyed by flow id and
// carry a kind-specific argument (queue-sojourn ns, batch latency ns,
// snapshot watermark).
//
// Crash survivability.  The rings live in a little mmap(MAP_SHARED) file,
// <postmortem>.ring (frec_ring_path): stores land in the page cache, so they
// survive the *process* dying — including SIGKILL, which runs no handlers.
// The supervisor reaps a signalled worker, reads the ring file, and seals a
// CRC-checked postmortem (encode/decode below, via DurableFile) stamped
// with the worker generation.  In-process crash paths that do get a chance
// to run (watchdog hang-exit, breaker hard-trip) dump the postmortem
// directly, with a live metrics snapshot attached.  With no postmortem path
// the rings live in private heap memory: fully functional for tests and
// status export, just not SIGKILL-durable.
//
// Cost model.  Disabled (FPTC_SERVE_FLIGHTREC=0, no recorder installed):
// frec_note() is one inlined relaxed atomic load and a predictable branch —
// the same contract as the disabled TraceSpan, gated <= 2% by the
// BM_FlightRecDisabled / BM_FlightRecEnabled micro-benchmark pair.
// Enabled: one steady_clock read plus one EventRing push — four relaxed
// atomic stores into the slot and one release store of the ring head.  No
// locks, no allocation, no syscalls on the hot path.
//
// Thread safety: one producer per ring (its pipeline thread); readers
// (status export, postmortem dump, tests) snapshot concurrently under
// EventRing's memory-order contract (fptc/util/event_ring.hpp).
#pragma once

#include "fptc/util/event_ring.hpp"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fptc::serve {

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

/// One ring per pipeline stage; the producer thread owns its ring.
enum class FrecRing : std::uint32_t {
    driver = 0,      ///< stream pump (the caller's thread)
    assembler = 1,   ///< validate + flow table + window close
    classifier = 2,  ///< batching, breaker, backend
};
inline constexpr std::size_t kFrecRingCount = 3;
[[nodiscard]] const char* frec_ring_name(std::uint32_t ring) noexcept;

/// What happened to a flow (or event) at this point of its lifecycle.
/// `arg` and `detail` carry the kind-specific payload noted per value.
enum class FrecKind : std::uint32_t {
    ingest = 1,       ///< event entered the ingest queue (arg = events_total)
    quarantine = 2,   ///< event failed validation (detail = 1 backwards-ts)
    admit = 3,        ///< new flow admitted to the table (arg = table size)
    codel_drop = 4,   ///< CoDel dropped the event at ingest (arg = sojourn ns)
    window_close = 5, ///< flow's window closed (arg = assembly ns)
    batch_enqueue = 6,///< flow entered the ready queue (arg = queue depth)
    classify_start = 7, ///< batch handed to a backend (arg = batch size, detail = tier)
    classify_end = 8, ///< batch returned (arg = latency ns, detail = tier)
    shed = 9,         ///< flow shed (arg = count, detail = FrecShed reason)
    unknown_route = 10, ///< open-set rejection routed the flow to `unknown`
    snapshot_marker = 11, ///< snapshot committed (arg = watermark)
};
[[nodiscard]] const char* frec_kind_name(std::uint32_t kind) noexcept;

/// Typed shed reason carried in `detail` of a FrecKind::shed event —
/// mirrors the fptc_serve_shed_*_total counter taxonomy.
enum class FrecShed : std::uint32_t {
    mem_budget = 1,
    queue_full = 2,
    deadline = 3,
    breaker = 4,
    slo = 5,
};
[[nodiscard]] const char* frec_shed_name(std::uint32_t reason) noexcept;

/// One recorded lifecycle event.  32 bytes; a ring slot holds its bytes as
/// four 64-bit words (kind and detail share the last word).
struct FlightEvent {
    std::uint64_t ts_ns = 0;    ///< steady-clock ns since recorder init
    std::uint64_t flow_id = 0;  ///< 0 for flow-less events (markers, batches)
    std::uint64_t arg = 0;      ///< kind-specific payload (see FrecKind)
    std::uint32_t kind = 0;     ///< FrecKind
    std::uint32_t detail = 0;   ///< kind-specific discriminator (tier, reason)
};

// ---------------------------------------------------------------------------
// Stage-latency attribution
// ---------------------------------------------------------------------------

/// The classify-latency decomposition: where a flow's wall time went.
/// Each stage has a registry histogram (frec_stage_metric_name) observed by
/// the pipeline unconditionally, plus a per-bucket last-flow-id exemplar
/// table maintained by the recorder so a p99 spike names a concrete flow.
enum class FrecStage : std::uint32_t {
    ingest_wait = 0,     ///< event enqueue -> assembler dequeue
    assembly = 1,        ///< first packet seen -> window close
    ready_wait = 2,      ///< ready enqueue -> classifier dequeue
    backend_compute = 3, ///< backend classify call (== classify latency)
};
inline constexpr std::size_t kFrecStageCount = 4;
inline constexpr std::size_t kFrecBuckets = 65;  ///< util::Histogram::kBuckets
[[nodiscard]] const char* frec_stage_name(std::uint32_t stage) noexcept;
[[nodiscard]] const char* frec_stage_metric_name(FrecStage stage) noexcept;

/// The log2 bucket a value lands in — identical to util::Histogram's
/// bucketing (bucket 0 collects exactly 0, bucket b collects bit width b),
/// so exemplars align with histogram quantiles.
[[nodiscard]] std::size_t frec_bucket(std::uint64_t value) noexcept;

// ---------------------------------------------------------------------------
// Postmortem
// ---------------------------------------------------------------------------

/// Why a postmortem was written.
enum class PostmortemReason : std::uint32_t {
    watchdog_stall = 1,    ///< watchdog hang-exit (in-process dump)
    breaker_hard_trip = 2, ///< breaker ladder hit the shed tier
    sigkill_reap = 3,      ///< supervisor sealed a signalled worker's rings
    manual = 4,            ///< explicit dump (tests, tooling)
};
[[nodiscard]] const char* postmortem_reason_name(std::uint32_t reason) noexcept;

/// Postmortem format version.  v2 frames the payload with util::frame
/// (v1 carried a redundant u64 length); any other version is refused.
inline constexpr std::uint32_t kPostmortemVersion = 2;

/// A decoded postmortem: the last-window rings, the stage exemplar tables,
/// and (for in-process dumps) a Prometheus-text metrics snapshot.
struct Postmortem {
    std::uint32_t reason = 0;      ///< PostmortemReason
    std::uint32_t generation = 0;  ///< worker generation (supervisor-stamped)
    std::string detail;            ///< free text (stalled thread, signal)

    struct RingDump {
        std::uint32_t ring = 0;       ///< FrecRing
        std::uint64_t recorded = 0;   ///< events ever recorded (ring head)
        std::uint64_t dropped = 0;    ///< overwritten by wrap-around
        std::vector<FlightEvent> events;  ///< surviving window, oldest first
    };
    std::vector<RingDump> rings;

    struct Exemplar {
        std::uint32_t stage = 0;   ///< FrecStage
        std::uint32_t bucket = 0;  ///< histogram bucket index
        std::uint64_t flow_id = 0; ///< last flow observed in that bucket
    };
    std::vector<Exemplar> exemplars;

    std::string metrics_text;  ///< prometheus snapshot ("" when sealed post-SIGKILL)

    /// Highest-timestamp snapshot_marker argument across all rings — the
    /// watermark of the last snapshot the dead worker committed.  nullopt
    /// when no marker survived the window.
    [[nodiscard]] std::optional<std::uint64_t> last_watermark() const;

    /// Total surviving events across rings.
    [[nodiscard]] std::uint64_t event_count() const noexcept;
};

/// Binary codec in the shared util/codec.hpp frame (magic "FPTCPMRT"):
/// decode returns nullopt on any structural defect — short file, bad magic,
/// version skew, CRC mismatch, trailing garbage.
[[nodiscard]] std::string encode_postmortem(const Postmortem& postmortem);
[[nodiscard]] std::optional<Postmortem> decode_postmortem(std::string_view bytes);

/// Durable write via DurableFile (temp + fsync + rename).  Returns false —
/// never throws — on I/O failure: a crash path must not crash harder.
bool save_postmortem(const std::string& path, const Postmortem& postmortem);
[[nodiscard]] std::optional<Postmortem> load_postmortem(const std::string& path);

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// The ring backing file of a run whose postmortem goes to
/// `postmortem_path`: "<postmortem_path>.ring", or "" (private memory) when
/// there is no postmortem.  The worker maps it and the supervisor seals it,
/// both through this one function.
[[nodiscard]] std::string frec_ring_path(const std::string& postmortem_path);

struct FrecConfig {
    std::string ring_path;           ///< mmap backing file ("" = private memory)
    std::size_t ring_capacity = 4096; ///< events per ring (clamped to [64, 1M])
    std::uint32_t generation = 0;    ///< stamped into the ring file header
};

namespace frec_detail {
/// 0 = no recorder installed (fast inert path), 1 = recorder armed.
extern std::atomic<int> gate;
void note_slow(FrecRing ring, FrecKind kind, std::uint64_t flow_id, std::uint64_t arg,
               std::uint32_t detail) noexcept;
void exemplar_slow(FrecStage stage, std::uint64_t value, std::uint64_t flow_id) noexcept;
} // namespace frec_detail

/// Record one lifecycle event on `ring`.  Inert (one relaxed load + branch)
/// when no recorder is installed.
inline void frec_note(FrecRing ring, FrecKind kind, std::uint64_t flow_id,
                      std::uint64_t arg = 0, std::uint32_t detail = 0) noexcept
{
    if (frec_detail::gate.load(std::memory_order_relaxed) != 1) {
        return;
    }
    frec_detail::note_slow(ring, kind, flow_id, arg, detail);
}

/// Update the stage exemplar table: remember `flow_id` as the last flow
/// whose `value` landed in its histogram bucket.  Inert when disabled.
inline void frec_exemplar(FrecStage stage, std::uint64_t value, std::uint64_t flow_id) noexcept
{
    if (frec_detail::gate.load(std::memory_order_relaxed) != 1) {
        return;
    }
    frec_detail::exemplar_slow(stage, value, flow_id);
}

/// The flight recorder.  Constructing one installs it as the process-wide
/// recorder and opens the frec_note gate; destruction closes the gate.  At
/// most one instance may exist at a time, and it must outlive every thread
/// that calls frec_note (the serve run joins its pipeline threads before
/// the recorder leaves scope).
class FlightRecorder {
public:
    explicit FlightRecorder(const FrecConfig& config);
    ~FlightRecorder();
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// True when the ring storage is an mmap'd file (SIGKILL-durable);
    /// false for the private-memory fallback.
    [[nodiscard]] bool file_backed() const noexcept { return mapped_; }

    void note(FrecRing ring, FrecKind kind, std::uint64_t flow_id, std::uint64_t arg,
              std::uint32_t detail) noexcept;
    void observe_exemplar(FrecStage stage, std::uint64_t value,
                          std::uint64_t flow_id) noexcept;

    /// Last-window snapshot of one ring, oldest first.
    [[nodiscard]] std::vector<FlightEvent> ring_snapshot(FrecRing ring) const;
    [[nodiscard]] std::uint64_t recorded(FrecRing ring) const noexcept;
    [[nodiscard]] std::uint64_t dropped(FrecRing ring) const noexcept;
    [[nodiscard]] std::uint64_t recorded_total() const noexcept;
    [[nodiscard]] std::uint64_t dropped_total() const noexcept;
    [[nodiscard]] std::uint64_t exemplar(FrecStage stage, std::size_t bucket) const noexcept;

    /// Assemble a postmortem from the live rings + exemplar tables.
    [[nodiscard]] Postmortem build_postmortem(PostmortemReason reason, std::string detail,
                                              std::string metrics_text) const;

    /// build + attach the registry's Prometheus snapshot + save.  The
    /// in-process crash-path dump (watchdog stall, breaker hard-trip).
    bool dump(const std::string& path, PostmortemReason reason, std::string detail) const;

    /// Unlink the ring backing file (clean shutdown: a leftover ring would
    /// make a later seal describe a run that finished fine).
    void remove_backing() noexcept;

    /// Parse a ring file left behind by a dead worker into a postmortem
    /// skeleton (rings + exemplars; no metrics), decoded by the same code
    /// as build_postmortem.  nullopt on bad magic / version / size.
    [[nodiscard]] static std::optional<Postmortem> read_ring_file(const std::string& ring_path);

    /// Supervisor-side seal: read the dead worker's ring file, stamp reason
    /// + generation + detail, and durably write the postmortem.  False when
    /// the ring file is missing/corrupt or the write fails.
    static bool seal_from_ring_file(const std::string& ring_path, const std::string& out_path,
                                    PostmortemReason reason, std::uint32_t generation,
                                    std::string detail);

private:
    FrecConfig config_;
    std::uint64_t* base_ = nullptr;  ///< whole region, u64 words: mmap'd or heap_
    std::vector<std::uint64_t> heap_;  ///< the region when it is not file-backed
    std::array<util::EventRing<FlightEvent>, kFrecRingCount> rings_;  ///< views into base_
    bool mapped_ = false;            ///< true: munmap
    std::uint64_t epoch_ns_ = 0;     ///< steady ns at construction
};

} // namespace fptc::serve

// The streaming classification service.
//
// Three-stage pipeline over two bounded queues, one thread per stage:
//
//   driver (caller)  --events-->  [ingest queue]  --assembler thread-->
//   flow table (rolling 15 s windows, LRU eviction)  --ready flows-->
//   [ready queue]  --classifier thread-->  breaker-picked backend --> labels
//
// Source layout: each stage is one class with a run() loop in its own file
// (src/serve/driver.cpp, assembler.cpp, classifier.cpp), declared with the
// counters, instruments and queue payloads they share in the private
// src/serve/pipeline.hpp.  service.cpp holds this header's config and
// report, and StreamingClassifier::run wires the stages, the snapshot
// restore, the flight recorder, the postmortem hook and the watchdog
// together.  status.cpp renders and writes the live status file.
//
// Robustness contract (the torture gate's assertions):
//
//   * The service never aborts: malformed events are quarantined, overload
//     is shed, backend stalls are cut by the batch deadline, repeated
//     failures walk the breaker down the degradation ladder.
//   * Every dropped *flow* carries exactly one typed shed reason —
//     queue_full (ready queue backpressure), mem_budget (LRU eviction /
//     budget refusal), deadline (batch deadline expired), breaker (ladder
//     bottom), slo (sojourn-time admission control, admission.hpp),
//     restart_loss (in flight across a crash, bounded by the snapshot
//     period) — and flows_ingested == flows_classified + flows_unknown +
//     sheds, checked by ServeReport::accounted() (flows_unknown is the
//     typed open-set rejection outcome, not a shed: the flow *was* served,
//     the service declined to force a label on it).  With snapshots
//     enabled the invariant
//     holds *across process generations*: a restarted worker re-bases its
//     counters on the snapshot cut and types the loss window.
//   * Event-level drops are separate, also typed: quarantined (validation),
//     queue_full (ingest queue), mem_budget (refused admission), slo
//     (sojourn admission at the ingest queue).
//   * After run() returns and the report is dropped, every byte charged to
//     the MemBudget has been credited back (in_use() returns to its
//     pre-run level; 0 in a dedicated process).
//
// Crash recovery (snapshot.hpp, watchdog.hpp, supervisor.hpp): the driver
// injects consistent-cut markers into the ingest queue; the assembler
// serializes the flow table + counter cut through DurableFile when a marker
// arrives; a restarted worker restores the snapshot, skips the
// deterministic stream past the watermark, and accounts the bounded loss
// window as restart_loss sheds.  A watchdog thread detects wedged pipeline
// threads (FPTC_FAULT_SERVE_HANG) and hang-exits so the supervisor can
// recover; its poll also refreshes a supervised worker's heartbeat file and
// exports the live status file, so a worker runs at most four threads.
//
// Metric names: the registry's JSON export does not escape instrument
// names, so the shed taxonomy uses plain suffixed counters
// (fptc_serve_shed_<reason>_total) instead of Prometheus-style labels.
#pragma once

#include "fptc/serve/backend.hpp"
#include "fptc/serve/breaker.hpp"
#include "fptc/serve/counters.hpp"
#include "fptc/serve/drift.hpp"
#include "fptc/serve/stream.hpp"

#include <cstddef>
#include <cstdint>
#include <string>

namespace fptc::serve {

/// Service knobs, each with an FPTC_SERVE_* environment override (strictly
/// validated by from_env(); a malformed knob throws util::EnvError).
struct ServeConfig {
    std::size_t queue_depth = 4096;   ///< FPTC_SERVE_QUEUE_DEPTH: ingest events
    std::size_t ready_depth = 64;     ///< FPTC_SERVE_READY_DEPTH: window-closed flows
    std::size_t batch_size = 16;      ///< FPTC_SERVE_BATCH: flows per classify batch
    double window_seconds = 15.0;     ///< FPTC_SERVE_WINDOW_S: flowpic window
    double deadline_ms = 500.0;       ///< FPTC_SERVE_DEADLINE_MS: per-batch (0 = off)
    std::size_t mem_mb = 64;          ///< FPTC_SERVE_MEM_MB: flow-table byte cap
    int breaker_cooldown = 8;         ///< FPTC_SERVE_BREAKER_COOLDOWN batches (breaker.hpp)
    std::size_t flowpic_dim = 32;     ///< full-tier flowpic resolution
    std::size_t reduced_dim = 16;     ///< reduced-tier flowpic resolution
    std::size_t num_classes = 5;

    // Hard latency SLO (CoDel sojourn admission at both queues, 100 ms
    // interval; admission.hpp).
    double slo_ms = 0.0;              ///< FPTC_SERVE_SLO_MS: queue-sojourn target (0 = off)

    // Durable flow-state snapshots (snapshot.hpp).
    std::string snapshot_path;        ///< FPTC_SERVE_SNAPSHOT: snapshot file (empty = off)
    double snapshot_period_s = 1.0;   ///< FPTC_SERVE_SNAPSHOT_S: wall-clock cadence (0 = off)
    std::uint64_t snapshot_every = 0; ///< FPTC_SERVE_SNAPSHOT_EVERY: event cadence (0 = off)

    // Open-set rejection (backend.hpp): a flow whose calibrated max-class
    // score is below the threshold is routed to the typed `unknown` outcome
    // instead of a forced label.  The accounting invariant becomes
    // flows_ingested == flows_classified + flows_unknown + sheds.
    double unknown_thresh = 0.0;      ///< FPTC_SERVE_UNKNOWN_THRESH: 0 = off

    // Online drift detection (drift.hpp).  lambda = 0 disables the monitor.
    double drift_lambda = 0.0;        ///< FPTC_SERVE_DRIFT_LAMBDA: PH alarm threshold
    double drift_delta = 0.05;        ///< FPTC_SERVE_DRIFT_DELTA: PH slack (sigma units)
    std::size_t drift_min_samples = 64; ///< FPTC_SERVE_DRIFT_MIN: PH warmup samples
    std::size_t drift_rate_window = 128; ///< FPTC_SERVE_DRIFT_RATE_WINDOW
    double drift_rate_thresh = 0.0;   ///< FPTC_SERVE_DRIFT_RATE_THRESH: L1 (0 = off)

    // Canary-gated hot reload (reload.hpp: 12 golden flows per class, 0.1
    // accuracy slack).  Empty path disables.
    std::string reload_path;          ///< FPTC_SERVE_RELOAD: candidate checkpoint
    std::uint64_t reload_every = 8;   ///< FPTC_SERVE_RELOAD_EVERY: poll cadence (batches)

    // Supervision (watchdog.hpp, supervisor.hpp).  A supervised worker with a
    // snapshot also refreshes serve_heartbeat_path(snapshot_path).
    double hang_stall_s = 0.0;        ///< FPTC_SERVE_HANG_S: watchdog stall budget (0 = off)
    bool gbt_only = false;            ///< FPTC_SERVE_GBT_ONLY: clamp ladder to fallback tier
    std::uint32_t generation = 0;     ///< FPTC_SERVE_GENERATION: worker restart count

    // Flight recorder + crash postmortems (flightrec.hpp).  A non-empty
    // postmortem path implies the recorder, backed by frec_ring_path's file.
    bool flightrec = false;           ///< FPTC_SERVE_FLIGHTREC: record lifecycle events
    std::string postmortem_path;      ///< FPTC_SERVE_POSTMORTEM: crash dump file ("" = off)

    // Live introspection: the watchdog thread exports the status file.
    std::string status_path;          ///< FPTC_SERVE_STATUS: status file ("" = off)
    double status_period_s = 1.0;     ///< FPTC_SERVE_STATUS_S: export cadence (>= 0.05)

    /// Extra entropy mixed into fingerprint() — the bench sets this from the
    /// stream identity (seed/flows/arrival), so a snapshot is never restored
    /// against a *different* deterministic stream.
    std::uint64_t fingerprint_extra = 0;

    /// Replay-compatibility fingerprint persisted in snapshots: covers the
    /// fields that must match for a watermark-skip resume to be sound.
    /// Never 0 (0 means "don't check" to load_snapshot).
    [[nodiscard]] std::uint64_t fingerprint() const;

    /// Defaults overridden by the FPTC_SERVE_* environment knobs.
    [[nodiscard]] static ServeConfig from_env();
};

/// Everything the run did, for the harness and the bench emitter: the
/// counters from counters.hpp plus what is not a counter.  With a restored
/// snapshot, persisted counters continue from the snapshot cut — the report
/// describes the whole logical run, not just this process generation.
struct ServeReport : ServeCounters {
    int final_tier = 0;
    double p50_latency_ms = 0.0;  ///< per-batch classify latency
    double p99_latency_ms = 0.0;
    double wall_seconds = 0.0;

    DriftStats drift;                   ///< this generation's drift monitor (drift.hpp)
    std::uint64_t reload_attempts = 0;  ///< candidates canaried (reload.hpp)
    std::uint32_t model_generation = 0;  ///< accepted reloads (persists across restarts)

    // Crash recovery.
    bool restored = false;              ///< this run resumed from a snapshot
    std::uint64_t watermark = 0;        ///< stream events skipped on restore
    std::uint64_t restored_flows = 0;   ///< flows rebuilt into the table
    std::uint64_t restore_refused = 0;  ///< restored flows the budget refused (typed mem sheds)
    std::uint32_t generation = 0;       ///< worker generation (restart count)

    // Flight recorder + live status (flightrec.hpp, FPTC_SERVE_STATUS).
    std::uint64_t frec_events = 0;      ///< lifecycle events recorded across rings
    std::uint64_t frec_dropped = 0;     ///< events overwritten by ring wrap-around
    std::uint64_t status_writes = 0;    ///< status-file exports this generation

    /// One greppable line ("serve: events=... ingested=... accounted=1").
    [[nodiscard]] std::string summary() const;
};

class StreamingClassifier {
public:
    /// Backends must outlive the classifier.
    StreamingClassifier(const ServeConfig& config, Backend& full, Backend& reduced,
                        Backend& fallback)
        : config_(config), full_(full), reduced_(reduced), fallback_(fallback)
    {
    }

    /// Drive `stream` to completion (or until a SIGTERM shutdown request),
    /// then drain and join both pipeline threads.  Never throws for data-,
    /// load- or backend-level failures; those become typed sheds in the
    /// report.  When config.snapshot_path names a loadable snapshot, the run
    /// first restores it and skips `stream` past the persisted watermark;
    /// `stream` must be the same deterministic stream the crashed
    /// generation was consuming (enforced via the config fingerprint).
    [[nodiscard]] ServeReport run(InterleavedStream& stream);

private:
    ServeConfig config_;
    Backend& full_;
    Backend& reduced_;
    Backend& fallback_;
};

} // namespace fptc::serve

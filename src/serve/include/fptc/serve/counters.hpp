// The serve counter list.  Each counter the streaming service keeps is
// declared once, as a row of FPTC_SERVE_COUNTERS, and everything else is
// generated from the rows: the ServeCounters fields that ServeReport and
// ServeSnapshot embed, the per-run counting slots and Prometheus counters
// (service.cpp), the snapshot seed, cut and codec (persisted rows, in list
// order), the `serve:` summary line, the status file and the `counters`
// object of BENCH_serve.json.  Adding a counter is one row plus its
// counting site.  Adding, removing or reordering a persisted row changes the
// snapshot layout: bump kSnapshotVersion (snapshot.hpp) and the pinned
// encoding in the ServeSnapshotCodec.EncodingIsPinned test together.
//
// Each counter has exactly one writing thread; other threads take relaxed
// samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace fptc::serve {

// X(field, Prometheus counter or nullptr, persisted, summary-line key)
#define FPTC_SERVE_COUNTERS(X)                                                                                  \
    /* event-level accounting (driver, assembler) */                                                            \
    X(events_total, "fptc_serve_events_total", true, "events")                                                  \
    X(events_quarantined, "fptc_serve_events_quarantined_total", true, "quarantined")                           \
    X(events_quarantined_backwards, "fptc_serve_quarantined_backwards_ts_total", true, "quarantined_backwards") \
    X(events_dropped_queue, "fptc_serve_events_dropped_queue_total", true, "dropped_queue")                     \
    X(events_dropped_mem, "fptc_serve_events_dropped_mem_total", true, "dropped_mem")                           \
    X(events_dropped_slo, "fptc_serve_events_dropped_slo_total", true, "dropped_slo")                           \
    /* flow-level accounting: the invariant, see ServeCounters::accounted() */                                  \
    X(flows_ingested, "fptc_serve_flows_ingested_total", true, "ingested")                                      \
    X(flows_classified, "fptc_serve_flows_classified_total", true, "classified")                                \
    X(flows_correct, nullptr, true, "correct")                                                                  \
    X(flows_unknown, "fptc_serve_flows_unknown_total", true, "unknown")                                         \
    X(shed_mem_budget, "fptc_serve_shed_mem_budget_total", true, "shed_mem_budget")                             \
    X(shed_queue_full, "fptc_serve_shed_queue_full_total", true, "shed_queue_full")                             \
    X(shed_deadline, "fptc_serve_shed_deadline_total", true, "shed_deadline")                                   \
    X(shed_breaker, "fptc_serve_shed_breaker_total", true, "shed_breaker")                                      \
    X(shed_slo, "fptc_serve_shed_slo_total", true, "shed_slo")                                                  \
    X(shed_restart_loss, "fptc_serve_shed_restart_loss_total", true, "shed_restart_loss")                       \
    /* pipeline health (classifier) */                                                                          \
    X(batches, nullptr, true, "batches")                                                                        \
    X(breaker_trips, "fptc_serve_breaker_trips_total", false, "trips")                                          \
    X(breaker_recoveries, "fptc_serve_breaker_recoveries_total", false, "recoveries")                           \
    /* SLO compliance: a cut reads violations before considered, which the */                                   \
    /* classifier counts first */                                                                               \
    X(slo_violations, "fptc_serve_slo_violations_total", true, "slo_violations")                                \
    X(slo_considered, nullptr, true, "slo_considered")                                                          \
    /* open-set oracle: flows whose ground truth is outside the trained classes */                              \
    X(unknown_truth_total, nullptr, true, "unknown_truth")                                                      \
    X(unknown_truth_rejected, nullptr, true, "unknown_rejected")                                                \
    /* drift detection and hot reload (classifier) */                                                           \
    X(drift_alarms, "fptc_serve_drift_alarms_total", true, "drift_alarms")                                      \
    X(reloads, "fptc_serve_reloads_total", true, "reloads")                                                     \
    X(reload_rollbacks, "fptc_serve_reload_rollbacks_total", true, "rollbacks")                                 \
    /* this process generation only */                                                                          \
    X(snapshots_written, "fptc_serve_snapshots_total", false, "snapshots")                                      \
    X(postmortems_written, "fptc_serve_postmortems_total", false, "postmortems")

/// One field per counter row.  With a restored snapshot, persisted fields
/// continue from the snapshot cut, so they describe the whole logical run.
struct ServeCounters {
#define FPTC_SERVE_COUNTER_FIELD(field, metric, persisted, key) std::uint64_t field = 0;
    FPTC_SERVE_COUNTERS(FPTC_SERVE_COUNTER_FIELD)
#undef FPTC_SERVE_COUNTER_FIELD

    [[nodiscard]] std::uint64_t shed_total() const noexcept
    {
        return shed_mem_budget + shed_queue_full + shed_deadline + shed_breaker + shed_slo +
               shed_restart_loss;
    }

    /// The flow-accounting invariant (holds across process generations):
    /// every ingested flow ends as exactly one of a confident label, a
    /// typed `unknown` rejection, or a typed shed.
    [[nodiscard]] bool accounted() const noexcept
    {
        return flows_ingested == flows_classified + flows_unknown + shed_total();
    }

    /// Fraction of measured ready-queue sojourns that met the SLO target
    /// (1.0 when the SLO is off or nothing was measured).
    [[nodiscard]] double slo_compliance() const noexcept
    {
        if (slo_considered == 0) {
            return 1.0;
        }
        return 1.0 - static_cast<double>(slo_violations) / static_cast<double>(slo_considered);
    }
};

/// Row index, for compile-time selection of a counter.
enum class ServeCounter : std::size_t {
#define FPTC_SERVE_COUNTER_ID(field, metric, persisted, key) field,
    FPTC_SERVE_COUNTERS(FPTC_SERVE_COUNTER_ID)
#undef FPTC_SERVE_COUNTER_ID
};

/// One row; `name` (the field's name) is also its status-file and JSON key.
struct ServeCounterSpec {
    const char* name;
    const char* metric;
    bool persisted;
    const char* summary_key;
    std::uint64_t ServeCounters::*field;
};

inline constexpr ServeCounterSpec kServeCounters[] = {
#define FPTC_SERVE_COUNTER_SPEC(field, metric, persisted, key) \
    {#field, metric, persisted, key, &ServeCounters::field},
    FPTC_SERVE_COUNTERS(FPTC_SERVE_COUNTER_SPEC)
#undef FPTC_SERVE_COUNTER_SPEC
};

inline constexpr std::size_t kServeCounterCount = std::size(kServeCounters);

} // namespace fptc::serve

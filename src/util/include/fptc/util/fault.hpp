// Deterministic fault injection for testing recovery paths.
//
// The fault-tolerance layer only earns its keep if its failure paths run
// regularly, so the guarded code (training guards, checkpoints, CSV
// quarantine, the campaign executor, durable I/O, the memory accountant, the
// serve pipeline) consults a seeded, deterministic injector: one inject_*
// method per fault class.  Each class is declared once, as a row of
// FPTC_FAULT_CLASSES.  The plan and counter fields, enabled(), summary(),
// fault_plan_from_env(), the fptc_fault_<counter> gauges and the knobs the
// serve supervisor unsets after a restart are generated from the rows, and
// README's table documents the same knobs (FaultKnobsDocumented test).  An
// unset or 0 knob leaves its class off.  Adding a class is one row plus its
// inject_* method and call site.
//
// Thread safety: every method is internally synchronized.  For any
// FPTC_JOBS, NaN losses hit the same steps of the same loops (each loop
// passes its own step index), the unit classes hit the first n executions,
// and the alloc classes hit the same units (ALLOC_FAIL_AFTER_MB keeps a
// thread-local byte scope per unit execution, ALLOC_FAIL_UNITS picks units
// by submission index); CSV-row injections follow scheduling order.
#pragma once

#include "fptc/util/rng.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace fptc::util {

/// What a row's knob is.
enum class FaultKind : std::uint8_t {
    seed,      ///< seeds the injector's own stream; arms no class
    fault,     ///< a fault class
    one_shot,  ///< a fault class the serve supervisor unsets for generations > 0
};

// X(FaultPlan field type, FaultPlan field, knob, (FaultCounters field,
//   summary key) or () for a class that keeps no tally, kind, doc)
#define FPTC_FAULT_CLASSES(X)                                                                               \
    X(std::uint64_t, seed, "FPTC_FAULT_SEED", (), seed,                                                      \
      "seed of the injector's own stream, which the percentage classes draw from")                          \
    X(int, nan_loss_every, "FPTC_FAULT_NAN_EVERY", (nan_losses, "nan_loss"), fault,                          \
      "force the loss of every k-th step of each training loop to NaN")                                     \
    X(int, truncate_writes, "FPTC_FAULT_TRUNCATE_WRITES", (truncated_writes, "truncated_writes"), fault,     \
      "truncate the first n checkpoint writes")                                                             \
    X(double, csv_row_percent, "FPTC_FAULT_CSV_PERCENT", (corrupted_csv_rows, "csv_rows"), fault,            \
      "mangle ~p% of CSV rows in lenient reads")                                                            \
    X(int, stall_units, "FPTC_FAULT_STALL_UNITS", (stalled_units, "stalled_units"), fault,                   \
      "stall the first n campaign unit executions until the watchdog kills them")                           \
    X(int, transient_units, "FPTC_FAULT_TRANSIENT_UNITS", (transient_units, "transient_units"), fault,       \
      "fail the first n campaign unit executions with a transient UnitError")                               \
    X(std::int64_t, enospc_after_bytes, "FPTC_FAULT_ENOSPC_AFTER_BYTES", (enospc_failures, "enospc"), fault, \
      "fail durable writes with ENOSPC once n bytes in all went through the shim")                          \
    X(int, short_writes, "FPTC_FAULT_SHORT_WRITES", (short_write_clamps, "short_writes"), fault,             \
      "cut the first n durable writes to half their bytes")                                                 \
    X(int, fsync_failures, "FPTC_FAULT_FSYNC_FAIL", (fsync_failures, "fsync_fail"), fault,                   \
      "fail the first n durable fsyncs with EIO")                                                           \
    X(int, crash_at_write, "FPTC_FAULT_CRASH_AT_WRITE", (), fault,                                           \
      "_exit halfway through the k-th durable write of the process (a power loss)")                         \
    X(std::int64_t, alloc_fail_after_mb, "FPTC_FAULT_ALLOC_FAIL_AFTER_MB", (alloc_rejections,               \
      "alloc_reject"), fault, "refuse a unit execution's reservations once it has charged m MB")            \
    X(int, alloc_fail_units, "FPTC_FAULT_ALLOC_FAIL_UNITS", (alloc_unit_failures, "alloc_units"), fault,     \
      "refuse the first reservation of the first n submitted units (a shrink retry is spared)")             \
    X(int, serve_stall_backend, "FPTC_FAULT_SERVE_STALL_BACKEND", (serve_backend_stalls, "serve_stalls"),    \
      fault, "stall the first n serve backend classify calls until the batch deadline trips them")          \
    X(double, serve_mangle_percent, "FPTC_FAULT_SERVE_MANGLE_PACKETS", (serve_mangled_packets,              \
      "serve_mangled"), fault, "mangle ~p% of stream packet events (NaN/negative time, bad size)")          \
    X(int, serve_burst, "FPTC_FAULT_SERVE_BURST", (serve_bursts, "serve_bursts"), fault,                     \
      "erupt every 64th stream event into k extra same-timestamp packets")                                  \
    X(int, serve_hang_at_batch, "FPTC_FAULT_SERVE_HANG", (serve_hangs, "serve_hangs"), one_shot,             \
      "wedge the serve classifier (no more heartbeats) at its k-th batch")                                  \
    X(int, kill_serve_at_snapshot, "FPTC_FAULT_KILL_SERVE", (serve_kills, "serve_kills"), one_shot,          \
      "SIGKILL the serve worker right after its k-th snapshot commit")

// A row's counter column, (field, key) or (), expands through this into
// FPTC_FAULT_COUNTED(field, key), which each user defines, or to nothing.
#define FPTC_FAULT_IF_COUNTED(...) __VA_OPT__(FPTC_FAULT_COUNTED(__VA_ARGS__))

/// What to inject, one field per row.  A default plan injects nothing.
struct FaultPlan {
#define FPTC_FAULT_PLAN_FIELD(type, field, knob, counter, kind, doc) type field = 0;
    FPTC_FAULT_CLASSES(FPTC_FAULT_PLAN_FIELD)
#undef FPTC_FAULT_PLAN_FIELD
};

/// Tallies of injected faults since the last configure(), one per counted row.
struct FaultCounters {
#define FPTC_FAULT_COUNTED(field, key) std::uint64_t field = 0;
#define FPTC_FAULT_COUNTER_FIELD(type, plan, knob, counter, kind, doc) FPTC_FAULT_IF_COUNTED counter
    FPTC_FAULT_CLASSES(FPTC_FAULT_COUNTER_FIELD)
#undef FPTC_FAULT_COUNTER_FIELD
#undef FPTC_FAULT_COUNTED

    [[nodiscard]] std::uint64_t total() const noexcept;
};

struct FaultClassSpec {
    const char* knob;
    FaultKind kind;
};

/// Every row, in order.
inline constexpr FaultClassSpec kFaultClasses[] = {
#define FPTC_FAULT_CLASS_SPEC(type, field, knob, counter, kind, doc) {knob, FaultKind::kind},
    FPTC_FAULT_CLASSES(FPTC_FAULT_CLASS_SPEC)
#undef FPTC_FAULT_CLASS_SPEC
};

/// A counted row; `name`, the field's name, also names its gauge.
struct FaultCounterSpec {
    const char* name;
    const char* summary_key;
    std::uint64_t FaultCounters::*field;
};

/// The counted rows, in row order.
inline constexpr FaultCounterSpec kFaultCounters[] = {
#define FPTC_FAULT_COUNTED(field, key) {#field, key, &FaultCounters::field},
#define FPTC_FAULT_COUNTER_SPEC(type, plan, knob, counter, kind, doc) FPTC_FAULT_IF_COUNTED counter
    FPTC_FAULT_CLASSES(FPTC_FAULT_COUNTER_SPEC)
#undef FPTC_FAULT_COUNTER_SPEC
#undef FPTC_FAULT_COUNTED
};

inline std::uint64_t FaultCounters::total() const noexcept
{
    std::uint64_t sum = 0;
    for (const FaultCounterSpec& spec : kFaultCounters) {
        sum += this->*spec.field;
    }
    return sum;
}

/// Seeded deterministic fault injector.  Thread-safe: see the module note.
class FaultInjector {
public:
    FaultInjector() = default;  ///< inert: every inject_* returns false
    explicit FaultInjector(const FaultPlan& plan) { configure(plan); }

    /// Replace the plan and reset counters and the injection stream.
    void configure(const FaultPlan& plan);
    /// True when any fault class is armed.
    [[nodiscard]] bool enabled() const noexcept;
    [[nodiscard]] FaultPlan plan() const;  ///< the configured plan

    // One consultation point per class, named by its row's knob; each counts
    // what it injects.
    /// NAN_EVERY: per guarded training step, with the loop's own step index.
    [[nodiscard]] bool inject_nan_loss(std::uint64_t step);
    [[nodiscard]] bool inject_truncated_write()  ///< TRUNCATE_WRITES: per checkpoint write
    {
        return first_n(&FaultPlan::truncate_writes, &FaultCounters::truncated_writes);
    }
    [[nodiscard]] bool inject_csv_corruption();  ///< CSV_PERCENT: per CSV row of a lenient read
    [[nodiscard]] bool inject_unit_stall()  ///< STALL_UNITS: per unit execution
    {
        return first_n(&FaultPlan::stall_units, &FaultCounters::stalled_units);
    }
    [[nodiscard]] bool inject_unit_transient()  ///< TRANSIENT_UNITS: per unit execution
    {
        return first_n(&FaultPlan::transient_units, &FaultCounters::transient_units);
    }
    /// ENOSPC_AFTER_BYTES: by the durable I/O shim with every write's size.
    [[nodiscard]] bool inject_enospc(std::size_t bytes);
    /// SHORT_WRITES: a durable write's length, halved (>= 1) while it fires.
    [[nodiscard]] std::size_t clamp_write(std::size_t length)
    {
        return length >= 2 && first_n(&FaultPlan::short_writes, &FaultCounters::short_write_clamps)
                   ? length / 2
                   : length;
    }
    [[nodiscard]] bool inject_fsync_failure()  ///< FSYNC_FAIL: per durable fsync
    {
        return first_n(&FaultPlan::fsync_failures, &FaultCounters::fsync_failures);
    }
    [[nodiscard]] bool inject_crash_at_write();  ///< CRASH_AT_WRITE: per durable write
    /// ALLOC_FAIL_AFTER_MB: by MemBudget::reserve with every charge's size.
    /// Lock-free; the bytes add up in the thread's scope, which
    /// begin_alloc_scope() resets at each unit attempt.
    [[nodiscard]] bool inject_alloc_fail(std::size_t bytes);
    void begin_alloc_scope();
    /// ALLOC_FAIL_UNITS: per initial (non-shrunk) unit execution, with the
    /// unit's submission index.
    [[nodiscard]] bool inject_unit_alloc_fail(std::size_t unit_index);
    [[nodiscard]] bool inject_serve_backend_stall()  ///< SERVE_STALL_BACKEND: per classify call
    {
        return first_n(&FaultPlan::serve_stall_backend, &FaultCounters::serve_backend_stalls);
    }
    /// SERVE_MANGLE_PACKETS / SERVE_BURST: per base event of a serve stream,
    /// when it is built; the burst draw is the number of extra packets.
    [[nodiscard]] bool inject_serve_mangle();
    [[nodiscard]] int inject_serve_burst();
    [[nodiscard]] bool inject_serve_hang();  ///< SERVE_HANG: per classifier batch
    [[nodiscard]] bool inject_serve_kill();  ///< KILL_SERVE: per committed snapshot

    [[nodiscard]] FaultCounters counters() const;
    /// `key=count` per counted row, space-separated, in row order.
    [[nodiscard]] std::string summary() const;

private:
    mutable std::mutex mutex_;
    FaultPlan plan_{};
    Rng rng_{0};
    FaultCounters counters_{};

    /// The "first n" rule: fires while `fired` is below the plan's `n`.
    bool first_n(int FaultPlan::*n, std::uint64_t FaultCounters::*fired);

    /// Call indexes of the rows whose rule counts calls; reset by configure().
    struct Calls {
        std::uint64_t durable_bytes = 0;           ///< ENOSPC_AFTER_BYTES: bytes through the shim
        std::uint64_t durable_writes = 0;          ///< CRASH_AT_WRITE: shim write calls
        std::uint64_t serve_stream_events = 0;     ///< SERVE_BURST: cadence (every 64th)
        std::uint64_t serve_batches = 0;           ///< SERVE_HANG: classifier batches
        std::uint64_t serve_snapshot_commits = 0;  ///< KILL_SERVE: snapshot commits
    } calls_{};

    // Hot-path gates, read without the mutex and kept last, lines away from
    // it: inject_alloc_fail runs per tensor charge (its byte tally is
    // thread-local, keyed by the epoch each configure() takes).  Aligning
    // them to a line of their own cost serve_gbt ~17% events/s.
    std::atomic<std::uint64_t> alloc_fail_threshold_bytes_{0};  ///< 0 = unarmed
    std::atomic<std::uint64_t> alloc_scope_epoch_{1};
    std::atomic<std::uint64_t> alloc_rejections_{0};  ///< written only while armed
};

/// The process-wide injector, configured from the environment on first use.
[[nodiscard]] FaultInjector& fault_injector();

/// Parse the rows' knobs into a plan.  A value that does not fit its field
/// throws EnvError naming the knob.
[[nodiscard]] FaultPlan fault_plan_from_env();

} // namespace fptc::util

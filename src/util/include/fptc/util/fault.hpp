// Deterministic fault injection for testing recovery paths.
//
// The fault-tolerance layer (divergence guards, checksummed checkpoints,
// CSV quarantine, the supervised campaign executor) only earns its keep if
// the failure paths themselves are exercised regularly.  This module
// provides a seeded, deterministic injector that the guarded code paths
// consult at well-defined points:
//
//   * training steps may have their loss forced to NaN,
//   * checkpoint writes may be truncated mid-stream,
//   * CSV rows may be mangled before parsing (lenient reads only),
//   * campaign unit executions may stall (hang until the watchdog deadline
//     kills them) or throw a transient UnitError (exercising the executor's
//     retry/backoff path),
//   * the durable I/O layer (util/durable.hpp) may fail at the syscall
//     level: ENOSPC after a cumulative byte budget, short (partial) writes,
//     fsync failures, and a hard _exit at the K-th durable write (the
//     kill-point knob of the crash-consistency torture harness),
//   * the memory accountant (util/membudget.hpp) may refuse reservations:
//     after a per-unit-execution byte budget (simulated memory pressure
//     inside a unit), or for the first n submitted units outright
//     (exercising the executor's shrink-then-degrade OOM path).
//
// A process-wide injector is configured once from environment variables:
//
//   FPTC_FAULT_SEED=n             stream seed (default 0)
//   FPTC_FAULT_NAN_EVERY=k        force the loss of every k-th step of each
//                                 training loop to NaN (0 = off)
//   FPTC_FAULT_TRUNCATE_WRITES=n  truncate the first n checkpoint writes
//   FPTC_FAULT_CSV_PERCENT=p      mangle ~p% of CSV rows in lenient reads
//   FPTC_FAULT_STALL_UNITS=n      stall the first n campaign unit executions
//   FPTC_FAULT_TRANSIENT_UNITS=n  fail the first n campaign unit executions
//                                 with a transient error
//   FPTC_FAULT_ENOSPC_AFTER_BYTES=n  durable writes fail with ENOSPC once n
//                                 cumulative bytes went through the shim
//   FPTC_FAULT_SHORT_WRITES=n     the first n durable writes only take half
//                                 their bytes (exercises the write loop)
//   FPTC_FAULT_FSYNC_FAIL=n       the first n durable fsyncs fail with EIO
//   FPTC_FAULT_CRASH_AT_WRITE=k   hard _exit mid-payload at the k-th durable
//                                 write of the process (simulated power loss)
//   FPTC_FAULT_ALLOC_FAIL_AFTER_MB=m  the memory accountant refuses further
//                                 reservations once a unit execution has
//                                 charged m MB (per-execution byte scope:
//                                 the executor resets it at each attempt)
//   FPTC_FAULT_ALLOC_FAIL_UNITS=n refuse the first reservation of the first
//                                 n *submitted* units (by submission index,
//                                 initial executions only — a shrink retry
//                                 is spared, so targeted units shrink once
//                                 and then succeed deterministically)
//   FPTC_FAULT_SERVE_STALL_BACKEND=n  the first n streaming-serve backend
//                                 classify calls stall until the batch
//                                 deadline trips them (or a hard cap
//                                 elapses) — exercises the circuit breaker's
//                                 degradation ladder
//   FPTC_FAULT_SERVE_MANGLE_PACKETS=p mangle ~p% of generated stream packet
//                                 events (NaN/negative timestamps,
//                                 out-of-range sizes); the serve ingest
//                                 validation must quarantine every one
//   FPTC_FAULT_SERVE_BURST=k      every 64th stream event erupts into k
//                                 extra same-timestamp packets (a synthetic
//                                 microburst driving queue_full shedding)
//   FPTC_FAULT_SERVE_HANG=k       the serve classifier thread wedges (stops
//                                 heartbeating) at its k-th batch; the
//                                 in-worker watchdog must detect the stall
//                                 and hang-exit so the supervisor restarts
//   FPTC_FAULT_KILL_SERVE=k       SIGKILL the serve worker right after its
//                                 k-th flow-state snapshot *commits* — the
//                                 restarted worker must restore that
//                                 snapshot and keep the accounting invariant
//                                 across generations (commit-indexed so a
//                                 snapshot provably exists at the kill)
//
// All injections are counted per class so campaign summaries can report
// exactly how many faults were injected and survived.
//
// Thread safety: the injector is consulted from executor worker threads
// (unit-level faults) and from the training loops they run (NaN losses), so
// every method is internally synchronized.  NaN losses are deterministic in
// *target* for any FPTC_JOBS: each training loop passes its own step index,
// so the same steps of the same loops fault however workers interleave.
// With FPTC_JOBS > 1 the CSV-row class interleaves across workers in
// scheduling order, so which unit absorbs a given injection is no longer
// deterministic; the unit-granular classes (stall, transient) stay
// deterministic in *count* — exactly the first n executions are hit.  The
// alloc classes are deterministic in *target* for any FPTC_JOBS: AFTER_MB
// scopes its byte budget per unit execution (thread-local, reset by
// begin_alloc_scope()), and ALLOC_FAIL_UNITS selects units by submission
// index, so the same units are hit regardless of worker interleaving.
#pragma once

#include "fptc/util/rng.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace fptc::util {

/// What to inject.  Default-constructed plan injects nothing.
struct FaultPlan {
    std::uint64_t seed = 0;        ///< seed of the injector's own stream
    int nan_loss_every = 0;        ///< every k-th step of each training loop diverges (0 = off)
    int truncate_writes = 0;       ///< first n checkpoint writes are truncated
    double csv_row_percent = 0.0;  ///< % of CSV rows mangled in lenient reads
    int stall_units = 0;           ///< first n unit executions stall
    int transient_units = 0;       ///< first n unit executions throw transient
    std::int64_t enospc_after_bytes = 0;  ///< durable-write byte budget before ENOSPC (0 = off)
    int short_writes = 0;          ///< first n durable writes are cut to half
    int fsync_failures = 0;        ///< first n durable fsyncs fail with EIO
    int crash_at_write = 0;        ///< _exit at the k-th durable write (0 = off)
    std::int64_t alloc_fail_after_mb = 0;  ///< per-unit-execution charge budget in MB (0 = off)
    int alloc_fail_units = 0;      ///< refuse the first reservation of units 0..n-1 (0 = off)
    int serve_stall_backend = 0;   ///< first n serve backend classify calls stall
    double serve_mangle_percent = 0.0;  ///< % of stream packet events mangled
    int serve_burst = 0;           ///< extra packets injected per burst point (0 = off)
    int serve_hang_at_batch = 0;   ///< classifier wedges at its k-th batch (0 = off)
    int kill_serve_at_snapshot = 0; ///< SIGKILL worker after its k-th snapshot commit (0 = off)
};

/// Tallies of injected faults since the last configure().
struct FaultCounters {
    std::uint64_t nan_losses = 0;
    std::uint64_t truncated_writes = 0;
    std::uint64_t corrupted_csv_rows = 0;
    std::uint64_t stalled_units = 0;
    std::uint64_t transient_units = 0;
    std::uint64_t enospc_failures = 0;   ///< durable writes refused with ENOSPC
    std::uint64_t short_write_clamps = 0;///< durable writes cut short
    std::uint64_t fsync_failures = 0;    ///< durable fsyncs failed with EIO
    std::uint64_t alloc_rejections = 0;  ///< accountant reservations refused (AFTER_MB)
    std::uint64_t alloc_unit_failures = 0; ///< units targeted by ALLOC_FAIL_UNITS
    std::uint64_t serve_backend_stalls = 0;  ///< serve backend classify calls stalled
    std::uint64_t serve_mangled_packets = 0; ///< stream packet events mangled
    std::uint64_t serve_bursts = 0;          ///< burst points injected into the stream
    std::uint64_t serve_hangs = 0;           ///< classifier wedge points reached
    std::uint64_t serve_kills = 0;           ///< post-snapshot SIGKILL points reached

    [[nodiscard]] std::uint64_t total() const noexcept
    {
        return nan_losses + truncated_writes + corrupted_csv_rows + stalled_units +
               transient_units + enospc_failures + short_write_clamps + fsync_failures +
               alloc_rejections + alloc_unit_failures + serve_backend_stalls +
               serve_mangled_packets + serve_bursts + serve_hangs + serve_kills;
    }
};

/// Seeded deterministic fault injector.  Thread-safe: see the module note.
class FaultInjector {
public:
    /// Inert injector (all inject_* return false).
    FaultInjector() = default;

    explicit FaultInjector(const FaultPlan& plan);

    /// Replace the plan and reset counters and the injection stream.
    void configure(const FaultPlan& plan);

    /// True when any fault class is armed.
    [[nodiscard]] bool enabled() const noexcept;

    /// Consulted once per guarded training step with the loop's own step
    /// index (1 for its first step); true = treat this step's loss as NaN.
    /// Fires when step % k == 0, whatever other loops run in the process.
    [[nodiscard]] bool inject_nan_loss(std::uint64_t step);

    /// Consulted once per checkpoint write; true = truncate the write.
    [[nodiscard]] bool inject_truncated_write();

    /// Consulted once per CSV row in lenient reads; Bernoulli(p).
    [[nodiscard]] bool inject_csv_corruption();

    /// Consulted once per campaign unit execution (including retries); true =
    /// this execution should stall until the watchdog kills it.
    [[nodiscard]] bool inject_unit_stall();

    /// Consulted once per campaign unit execution; true = this execution
    /// should fail with a transient UnitError before doing any work.
    [[nodiscard]] bool inject_unit_transient();

    /// Consulted by the durable I/O shim before every write with the byte
    /// count about to go to disk; true = the cumulative budget
    /// (enospc_after_bytes) is exhausted and the write must fail with
    /// ENOSPC.  Bytes are accumulated across the whole process.
    [[nodiscard]] bool inject_enospc(std::size_t bytes);

    /// Clamp a durable write length: the first short_writes calls return
    /// half the requested length (>= 1), exercising the caller's
    /// partial-write loop.  Later calls return `length` unchanged.
    [[nodiscard]] std::size_t clamp_write(std::size_t length);

    /// Consulted once per durable fsync; true = fail it with EIO.
    [[nodiscard]] bool inject_fsync_failure();

    /// Consulted once per durable write; true exactly at the k-th
    /// (crash_at_write) durable write of the process: the caller must write
    /// a partial payload and _exit — the kill point of the torture harness.
    [[nodiscard]] bool inject_crash_at_write();

    /// Consulted by MemBudget::reserve with every charge's byte count; true =
    /// the calling thread's current allocation scope has exhausted its
    /// alloc_fail_after_mb budget and the reservation must be refused.
    /// Lock-free fast path (one atomic load when the class is unarmed);
    /// bytes accumulate in a thread-local scope reset by begin_alloc_scope(),
    /// so the refusal point depends only on the unit's own charges — the
    /// same unit fails for any FPTC_JOBS.
    [[nodiscard]] bool inject_alloc_fail(std::size_t bytes);

    /// Reset the calling thread's allocation-fault byte scope.  The executor
    /// calls this at the start of every unit execution (each attempt).
    void begin_alloc_scope();

    /// Consulted once per initial (non-shrunk) unit execution with the
    /// unit's submission index; true = this unit's first reservation must be
    /// refused (alloc_fail_units class).  Index-targeted, so deterministic
    /// for any FPTC_JOBS.
    [[nodiscard]] bool inject_unit_alloc_fail(std::size_t unit_index);

    /// Consulted once per streaming-serve backend classify call; true = this
    /// call must stall (sleep polling its CancelToken) until the batch
    /// deadline trips it or the caller's hard cap elapses.  First-n
    /// semantics, like the unit stall class.
    [[nodiscard]] bool inject_serve_backend_stall();

    /// Consulted once per generated stream packet event; Bernoulli(p) from
    /// the injector's own stream: true = the event must be mangled (NaN or
    /// negative timestamp, out-of-range size) before it reaches ingest.
    [[nodiscard]] bool inject_serve_mangle();

    /// Consulted once per generated stream packet event; returns the number
    /// of extra same-timestamp packets to inject at this point (0 almost
    /// always; serve_burst at every 64th event when the class is armed).
    [[nodiscard]] int inject_serve_burst();

    /// Consulted once per serve classifier batch; true exactly at the k-th
    /// (serve_hang_at_batch) batch: the classifier must wedge — stop
    /// heartbeating and spin — so the watchdog's stall detection fires.
    [[nodiscard]] bool inject_serve_hang();

    /// Consulted once per committed serve flow-state snapshot; true exactly
    /// at the k-th (kill_serve_at_snapshot) commit: the worker must
    /// raise(SIGKILL), leaving the just-committed snapshot as the restart
    /// point with maximal in-flight loss.
    [[nodiscard]] bool inject_serve_kill();

    [[nodiscard]] FaultCounters counters() const;

    /// One-line report, e.g. "nan_loss=3 truncated_writes=1 csv_rows=12
    /// stalled_units=1 transient_units=2".
    [[nodiscard]] std::string summary() const;

private:
    mutable std::mutex mutex_;
    FaultPlan plan_{};
    Rng rng_{0};
    FaultCounters counters_{};
    std::uint64_t unit_executions_stall_ = 0;
    std::uint64_t unit_executions_transient_ = 0;
    std::uint64_t durable_bytes_ = 0;   ///< cumulative bytes through the shim
    std::uint64_t durable_writes_ = 0;  ///< shim write calls (crash kill-point index)
    std::uint64_t serve_backend_calls_ = 0;     ///< serve stall first-n index
    std::uint64_t serve_stream_events_ = 0;     ///< burst cadence counter (every 64th)
    std::uint64_t serve_batches_ = 0;           ///< serve-hang trigger index
    std::uint64_t serve_snapshot_commits_ = 0;  ///< serve-kill trigger index

    // Alloc-fault state lives outside the mutex: inject_alloc_fail sits on
    // the tensor-allocation hot path, so the armed check is a single relaxed
    // atomic load and the per-scope byte tally is thread-local (keyed by an
    // epoch that configure() bumps, which lazily resets every thread's scope).
    std::atomic<std::uint64_t> alloc_fail_threshold_bytes_{0};  ///< 0 = unarmed
    std::atomic<std::uint64_t> alloc_scope_epoch_{1};
    std::atomic<std::uint64_t> alloc_rejections_{0};

    // The two stream classes are consulted for every generated packet event
    // on the serve driver's hot path; while neither is armed, one relaxed
    // load answers both instead of two lock round trips.
    std::atomic<bool> serve_stream_armed_{false};
};

/// The process-wide injector.  First use configures it from the
/// FPTC_FAULT_* environment variables; tests may reconfigure it directly.
[[nodiscard]] FaultInjector& fault_injector();

/// Parse the FPTC_FAULT_* environment variables into a plan.
[[nodiscard]] FaultPlan fault_plan_from_env();

} // namespace fptc::util

// Supervised parallel campaign executor.
//
// The paper's evaluation protocol is a large grid of (config, split, seed)
// campaign units — Tables 4-9 alone are hundreds of independent trainings.
// CampaignExecutor runs those units on a fixed worker pool where every unit
// executes under a supervisor:
//
//   * watchdog   — a per-unit deadline (FPTC_UNIT_TIMEOUT_S) armed on a
//                  CancelToken that the training loops poll per batch,
//   * taxonomy   — failures are classified transient / fatal / timeout /
//                  cancelled (UnitError carries the class explicitly),
//   * retry      — transient failures re-execute the unit after a
//                  seeded-deterministic exponential backoff, up to
//                  FPTC_UNIT_RETRIES re-executions,
//   * admission  — when FPTC_MEM_BUDGET_MB is set, each unit's estimated
//                  footprint (estimate_unit_bytes) is checked against the
//                  remaining budget before a worker picks it up; units that
//                  do not fit are deferred until running units release
//                  memory.  Deadlock-free: a unit is always admitted when
//                  the pool is otherwise idle,
//   * shrink     — a unit that still hits util::BudgetExceeded mid-flight is
//                  re-executed once at half batch size (UnitContext::batch)
//                  before the degrade path takes over,
//   * degrade    — a unit that exhausts its budget (or fails terminally) is
//                  recorded as degraded with its full error chain and the
//                  campaign continues; aggregation marks the affected table
//                  cells instead of aborting the whole bench.
//
// Determinism: units are pure functions of their seeds and aggregation
// happens in submission order, so campaign tables are bit-identical for any
// FPTC_JOBS value (per-unit RNG streams already exist; the pool only changes
// *when* a unit runs, never *what* it computes).  Completed units are
// committed to the one RunJournal file (thread-safe appends), so a killed
// campaign resumes bit-identically too.  A campaign runs in one process:
// FPTC_JOBS threads are the only unit of parallelism.
//
// Retry accounting: epoch-level divergence rollbacks (DivergenceGuard) are
// reported by the *successful* attempt only — each re-execution constructs
// fresh guards, so rollbacks from abandoned attempts are never folded into
// the recorded TrainResult.  Unit-level re-executions are counted separately
// in UnitOutcome::unit_retries and the campaign summary reports both.
//
// Telemetry: the executor is the primary producer of the observability
// layer (util/telemetry.hpp).  Every unit runs under a "unit" trace span
// (args: campaign, key) nesting per-attempt / backoff / admission-wait
// spans, and the lifecycle events (retry, defer, shrink, degrade, execute,
// replay, cancel) increment `fptc_executor_*` registry counters at the
// moment they happen.  The per-instance tallies behind summary() /
// timing_summary() are *derived from outcomes()* — the outcome vector is
// the single source of truth, the registry aggregates across every executor
// in the process.  The constructor calls util::telemetry_init(), so a
// misconfigured FPTC_TRACE / FPTC_METRICS sink fails before any unit runs.
//
// Shutdown (util/shutdown.hpp): the constructor installs cooperative
// SIGTERM/SIGINT handlers; the scheduling loop polls the latched signal and
// trips the campaign token, and run_all() then journals a `__shutdown__`
// record, flushes telemetry, and exits 128+signum.  The constructor also
// scavenges orphan durable-I/O temp files (crash debris of a previous
// incarnation) from the journal and artifact directories.
#pragma once

#include "fptc/util/cancel.hpp"
#include "fptc/util/journal.hpp"
#include "fptc/util/membudget.hpp"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace fptc::core {

/// Failure classes of the executor's error taxonomy.
enum class ErrorClass {
    transient,  ///< plausibly succeeds on re-execution (retried with backoff)
    fatal,      ///< deterministic failure; retrying cannot help
    timeout,    ///< killed by the per-unit watchdog deadline
    cancelled,  ///< campaign-wide cancellation reached the unit
};

[[nodiscard]] constexpr const char* error_class_name(ErrorClass klass) noexcept
{
    switch (klass) {
    case ErrorClass::transient: return "transient";
    case ErrorClass::fatal: return "fatal";
    case ErrorClass::timeout: return "timeout";
    case ErrorClass::cancelled: return "cancelled";
    }
    return "unknown";
}

/// Typed unit failure.  Unit functions may throw this directly to pick their
/// class; all other exceptions are classified by the executor (see
/// classify_exception).
class UnitError : public std::runtime_error {
public:
    UnitError(ErrorClass klass, const std::string& message)
        : std::runtime_error(message), class_(klass)
    {
    }

    [[nodiscard]] ErrorClass error_class() const noexcept { return class_; }

private:
    ErrorClass class_;
};

/// Executor tuning; defaults preserve the exact sequential seed behaviour.
struct ExecutorConfig {
    int jobs = 1;                 ///< worker threads (FPTC_JOBS)
    double unit_timeout_s = 0.0;  ///< per-unit watchdog deadline, 0 = off
    int unit_retries = 2;         ///< transient re-executions per unit budget
    double backoff_base_ms = 50.0;   ///< first retry delay (doubles per retry)
    double backoff_max_ms = 5000.0;  ///< delay cap
    std::uint64_t backoff_seed = 0x5EED;  ///< jitter stream seed
    /// Admission-control budget (FPTC_MEM_BUDGET_MB, bytes; 0 = off): a unit
    /// whose footprint estimate does not fit what running units leave of the
    /// budget is deferred instead of spawned.
    std::size_t mem_budget_bytes = 0;
};

/// Resolve the executor configuration from FPTC_JOBS, FPTC_UNIT_TIMEOUT_S,
/// FPTC_UNIT_RETRIES, FPTC_UNIT_BACKOFF_MS and FPTC_MEM_BUDGET_MB.
[[nodiscard]] ExecutorConfig executor_config_from_env();

/// Inputs of a unit's memory-footprint estimate.
struct FootprintEstimate {
    std::size_t resolution = 32;    ///< native flowpic resolution
    std::size_t samples = 0;        ///< training samples (after augmentation)
    std::size_t eval_samples = 0;   ///< validation/test samples
    std::size_t batch = 32;         ///< training batch size
    std::size_t channels = 1;       ///< flowpic channels (1 or 2)
};

/// Estimate the accounted working-set bytes of one campaign unit: the stored
/// sample sets at the network's effective input dimension, the transient
/// native-resolution rasterization grids, and the per-batch tensor traffic
/// of a training step.  Intentionally coarse (admission control needs the
/// right order of magnitude, not allocator truth) but monotone in every
/// input, so bigger cells always report bigger estimates.
[[nodiscard]] std::size_t estimate_unit_bytes(const FootprintEstimate& estimate);

/// Deterministic backoff before re-execution `retry` (1-based) of `key`:
/// exponential in the retry index with seeded jitter in [0.5, 1.5), capped
/// at backoff_max_ms.  Pure in (config, key, retry) — tests rely on this.
[[nodiscard]] double backoff_delay_ms(const ExecutorConfig& config, const std::string& key,
                                      int retry);

/// How a unit ended.
enum class UnitStatus {
    ok,         ///< executed and committed
    replayed,   ///< resumed from the journal without executing
    degraded,   ///< failed terminally; campaign continued without it
    cancelled,  ///< campaign cancelled before/while the unit ran
};

/// Per-unit record of one supervised execution.
struct UnitOutcome {
    std::string key;
    UnitStatus status = UnitStatus::ok;
    std::map<std::string, std::string> fields;  ///< metrics (ok / replayed)
    std::vector<std::string> error_chain;       ///< "class: message" per attempt
    int attempts = 0;      ///< executions performed (0 when replayed)
    int unit_retries = 0;  ///< re-executions after transient failures
    int shrinks = 0;       ///< batch halvings after BudgetExceeded (0 or 1)
    bool deferred = false; ///< waited at least once for admission-control memory
    double busy_seconds = 0.0;  ///< wall time spent executing this unit
    ErrorClass final_error = ErrorClass::transient;  ///< set when degraded/cancelled

    [[nodiscard]] bool succeeded() const noexcept
    {
        return status == UnitStatus::ok || status == UnitStatus::replayed;
    }
};

/// Per-attempt execution context handed to a unit function.  Carries the
/// watchdog token (wire it into the campaign options' TrainHooks) and the
/// resource-governance state of this attempt: `shrink` counts the batch
/// halvings applied after a BudgetExceeded, and batch() maps a nominal batch
/// size to the effective one.
struct UnitContext {
    const util::CancelToken& cancel;  ///< per-attempt watchdog token
    int shrink = 0;                   ///< halvings applied (0 on the first try)

    /// Effective batch size for this attempt: `base` halved `shrink` times,
    /// never below 1.
    [[nodiscard]] std::size_t batch(std::size_t base) const noexcept
    {
        const std::size_t halved = base >> static_cast<unsigned>(shrink);
        return halved < 1 ? 1 : halved;
    }
};

/// Fixed-pool supervised executor for one campaign's units.
///
/// Usage: submit() every unit (cheap closures capturing seeds/options), then
/// run_all() once, then aggregate outcomes() in submission order.  The unit
/// function receives the per-attempt UnitContext; wire its cancel token into
/// the campaign options' TrainHooks so the watchdog reaches the training
/// loops, and size batches with ctx.batch() so the shrink retry works.
class CampaignExecutor {
public:
    using UnitFn = std::function<std::map<std::string, std::string>(const UnitContext&)>;

    /// `campaign` namespaces journal keys (journaling armed by FPTC_JOURNAL,
    /// exactly as CampaignJournal does).
    explicit CampaignExecutor(std::string campaign,
                              ExecutorConfig config = executor_config_from_env());

    /// Queue a unit; returns its index.  Not thread-safe; submit everything
    /// before run_all().  `estimated_bytes` (estimate_unit_bytes) feeds the
    /// admission control; 0 = unknown, always admissible.
    std::size_t submit(std::string key, UnitFn run, std::size_t estimated_bytes = 0);

    /// Execute all submitted units on the pool (blocks).  Journal-completed
    /// units are replayed without occupying a worker.  Safe to call once.
    void run_all();

    /// Trip the campaign-wide token: running units unwind at their next
    /// poll, pending units are marked cancelled.  Callable from any thread.
    void cancel_all() const noexcept { campaign_cancel_.cancel(util::CancelKind::cancelled); }

    [[nodiscard]] const std::vector<UnitOutcome>& outcomes() const noexcept
    {
        return outcomes_;
    }
    [[nodiscard]] const UnitOutcome& outcome(std::size_t index) const
    {
        return outcomes_.at(index);
    }

    // Tallies are derived from outcomes() — the outcome vector is the single
    // source of truth after run_all() returns (the registry counters mirror
    // the same events process-wide).  Call after run_all(), like outcomes().
    [[nodiscard]] std::size_t units() const noexcept { return units_.size(); }
    [[nodiscard]] std::size_t executed() const noexcept;
    [[nodiscard]] std::size_t resumed() const noexcept;
    [[nodiscard]] std::size_t degraded() const noexcept;
    [[nodiscard]] std::size_t retried_units() const noexcept;
    /// Units that waited at least once because their footprint estimate did
    /// not fit the remaining admission budget.
    [[nodiscard]] std::size_t deferred_units() const noexcept;
    /// Units re-executed at half batch size after a BudgetExceeded.
    [[nodiscard]] std::size_t shrunk_units() const noexcept;

    /// Deterministic one-line summary for campaign stdout (counts only — no
    /// timings, so bench output stays bit-identical across FPTC_JOBS).
    [[nodiscard]] std::string summary() const;

    /// Wall-clock / busy-time / speedup line for stderr logging (timings are
    /// inherently nondeterministic, so they never go to stdout).
    [[nodiscard]] std::string timing_summary() const;

    [[nodiscard]] const ExecutorConfig& config() const noexcept { return config_; }

private:
    struct Unit {
        std::string key;
        UnitFn run;
        std::size_t estimated_bytes = 0;  ///< admission-control footprint
    };

    void run_unit(std::size_t index);
    void worker_loop();
    /// Trip the campaign token when a shutdown signal is latched.
    void poll_shutdown() const noexcept;

    std::string campaign_;
    ExecutorConfig config_;
    util::CampaignJournal journal_;
    mutable util::CancelToken campaign_cancel_;
    std::vector<Unit> units_;
    std::vector<UnitOutcome> outcomes_;
    std::vector<std::size_t> pending_;  ///< indexes needing execution
    bool ran_ = false;

    // Admission scheduler: workers claim pending slots under sched_mutex_,
    // skipping units whose estimate does not fit what the running set leaves
    // of mem_budget_bytes; they park on sched_cv_ until a completion frees
    // estimated memory.  A unit is always admitted when nothing is running,
    // so the scheduler cannot deadlock on an oversized estimate.
    std::mutex sched_mutex_;
    std::condition_variable sched_cv_;
    std::vector<char> claimed_;          ///< pending slot picked by a worker
    std::vector<char> deferred_marked_;  ///< pending slot counted as deferred
    std::size_t running_ = 0;            ///< units currently executing
    std::size_t est_outstanding_ = 0;    ///< estimate sum of running units

    double wall_seconds_ = 0.0;
};

/// Map an in-flight exception to the taxonomy.  UnitError keeps its class;
/// CancelledError maps to timeout/cancelled; DivergenceError is fatal (the
/// unit is deterministic in its seeds, so it would diverge again);
/// util::IoError follows its own transient() hint (ENOSPC/fsync failures
/// are retryable resource exhaustion, bad paths are not);
/// util::BudgetExceeded follows its transient() hint too (memory pressure
/// passes once concurrent units release their charges — and the executor
/// additionally grants it one shrink retry at half batch size);
/// std::bad_alloc is transient; anything else is fatal.
[[nodiscard]] ErrorClass classify_exception(const std::exception& error) noexcept;

} // namespace fptc::core

// Campaign telemetry: structured tracing, metrics registry, phase profiler.
//
// The paper's contribution is a careful measurement protocol (95% CIs,
// Friedman/Nemenyi, Tukey HSD over 13 campaigns); this module gives the
// execution substrate the same discipline about *itself*.  Three coordinated
// parts share one enablement switch:
//
//   * Tracing   — RAII spans (`FPTC_TRACE_SPAN("unit", {{"key", k}})`)
//                 recorded into per-thread lock-free ring buffers and
//                 exported as Chrome trace_event JSON (FPTC_TRACE=trace.json,
//                 loadable in chrome://tracing / Perfetto).  Span taxonomy:
//                 executor lifecycle (unit, attempt, backoff, admission_wait,
//                 journal_replay, degrade), training phases (epoch, datagen,
//                 flowpic, augment, forward, loss, backward, optimizer),
//                 gbt_round, and persistence (journal_commit, durable_write).
//   * Metrics   — a typed registry (counter / gauge / histogram with fixed
//                 log2 bucketing) of process-wide instruments named
//                 `fptc_<area>_<name>`.  Exported as a Prometheus-style text
//                 snapshot and a machine-readable JSON dump
//                 (FPTC_METRICS=metrics.json writes both, the text snapshot
//                 at <path>.prom).
//   * Profiler  — every finished span feeds a per-phase duration histogram
//                 (`fptc_phase_<name>_duration_ns`) plus an accounted-bytes
//                 counter (delta of MemBudget::reserved_total across the
//                 span).  profiler_report() renders the per-phase
//                 mean/p50/p95/alloc breakdown; telemetry_flush() prints it
//                 to stderr at FPTC_LOG>=2 and persists it durably next to
//                 the bench artifacts (FPTC_ARTIFACTS_DIR).
//
// Cost model.  Compile-time: defining FPTC_NO_TELEMETRY expands every
// FPTC_TRACE_SPAN to nothing.  Runtime: a disabled span is one inlined
// relaxed atomic load and a predictable branch (the cached span gate); no
// call, no allocation, no lock.  An enabled span is two steady_clock reads, two atomic loads of
// the accountant's running total, one lock-free ring push per trace event,
// and one small mutex-guarded map lookup at span end (phase stats).  Spans
// never touch stdout: campaign tables stay bit-identical for any FPTC_JOBS
// with telemetry on or off — trace/metrics ride on stderr and side files.
//
// Thread safety: each thread pushes into its own util::EventRing
// (event_ring.hpp) over a heap vector.  The exporter snapshots them after
// the executor's workers have joined; a snapshot taken earlier is race-free
// but its oldest slots may be mid-overwrite.  Instruments are atomics; the
// registry map is mutex-guarded on lookup only.  Ring capacity is bounded
// (FPTC_TRACE_EVENTS per thread, default 32768): on overflow the *oldest*
// events are overwritten, keeping the most recent window — histograms
// aggregate everything regardless.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace fptc::util {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Monotonic event count.  Lock-free.
class Counter {
public:
    void add(std::uint64_t delta = 1) noexcept
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    /// Test-isolation helper; production code never resets a counter.
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (peak bytes, budget bytes, snapshot tallies).
class Gauge {
public:
    void set(std::int64_t value) noexcept { value_.store(value, std::memory_order_relaxed); }

    /// Raise-only update, for high-water marks.
    void set_max(std::int64_t value) noexcept
    {
        std::int64_t current = value_.load(std::memory_order_relaxed);
        while (value > current &&
               !value_.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
        }
    }

    [[nodiscard]] std::int64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed log2-bucketed histogram of non-negative integer observations
/// (durations in ns, byte counts).  Bucket b collects values whose bit
/// width is b, i.e. [2^(b-1), 2^b); bucket 0 collects exactly 0.  Quantiles
/// are estimated at the geometric midpoint of the selected bucket, which is
/// the right error model for a log2 grid (at most ~41% relative error,
/// typically far less — plenty for a wall-clock breakdown).
class Histogram {
public:
    static constexpr std::size_t kBuckets = 65;  ///< bit widths 0..64

    void observe(std::uint64_t value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept
    {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const noexcept
    {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bucket(std::size_t index) const;

    /// Mean of all observations (0 when empty).
    [[nodiscard]] double mean() const noexcept;

    /// Estimated q-quantile (q in [0,1]); 0 when empty.
    [[nodiscard]] double quantile(double q) const noexcept;

    /// Inclusive upper bound of bucket `index` (2^index - 1; bucket 0 -> 0).
    [[nodiscard]] static std::uint64_t bucket_upper_bound(std::size_t index) noexcept;

    void reset() noexcept;

private:
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide registry of named instruments.  Naming convention:
/// `fptc_<area>_<name>` with Prometheus-style suffixes (`_total` for
/// counters, `_bytes` / `_ns` units).  Instruments are created on first
/// lookup and never destroyed, so references stay valid for the process
/// lifetime; lookups take a mutex, the instruments themselves are lock-free.
class MetricsRegistry {
public:
    [[nodiscard]] Counter& counter(const std::string& name);
    [[nodiscard]] Gauge& gauge(const std::string& name);
    [[nodiscard]] Histogram& histogram(const std::string& name);

    /// Prometheus text exposition of every instrument (sorted by name).
    [[nodiscard]] std::string prometheus_text() const;

    /// Machine-readable JSON snapshot: {"counters":{..},"gauges":{..},
    /// "histograms":{name:{count,sum,mean,p50,p95,buckets:[{le,count}..]}}}.
    [[nodiscard]] std::string json_text() const;

    /// Sorted histogram names with the given prefix (profiler enumeration).
    [[nodiscard]] std::vector<std::string> histogram_names(const std::string& prefix) const;

    /// Zero every instrument's value (objects survive, so cached references
    /// remain valid).  Test isolation only.
    void reset_values_for_tests();

private:
    struct Impl;
    [[nodiscard]] Impl& impl() const;
};

/// The process-wide registry.
[[nodiscard]] MetricsRegistry& metrics();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One trace-ring event.  `name` must be a string literal (never freed);
/// dynamic context travels in `args` — a pre-rendered JSON object body
/// ("\"key\":\"value\"", possibly empty), bounded so the hot path never
/// allocates.
struct TraceEvent {
    const char* name = nullptr;
    char phase = 'B';  ///< 'B' begin / 'E' end
    std::uint32_t tid = 0;
    std::uint64_t ts_ns = 0;  ///< steady-clock ns since process trace epoch
    char args[80] = {};       ///< JSON object body, '\0'-terminated
};

/// Resolved telemetry configuration (one per process).
struct TelemetryConfig {
    std::string trace_path;      ///< FPTC_TRACE ("" = tracing off)
    std::string metrics_path;    ///< FPTC_METRICS ("" = metrics dump off)
    std::size_t ring_capacity = 32768;  ///< FPTC_TRACE_EVENTS, per thread
    bool profile = false;        ///< FPTC_LOG >= 2: stderr profiler report
};

/// Resolve the configuration from the environment exactly once and arm the
/// flush-at-exit hook.  Strictly validated: an empty FPTC_TRACE/FPTC_METRICS
/// value, or one whose target cannot be opened for writing, throws EnvError
/// naming the knob — a campaign must refuse a bad sink up front, not die
/// hours in at the first flush.  The campaign executor calls this from its
/// constructor so the error surfaces before any unit runs.
const TelemetryConfig& telemetry_init();

/// Cached fast-path flag: true when any consumer (trace file, metrics dump,
/// FPTC_LOG>=2 profiler) is armed.  Never throws: if lazy initialization
/// hits a bad knob outside telemetry_init(), telemetry is disabled and the
/// error is logged once.
[[nodiscard]] bool telemetry_active() noexcept;

/// True when span events are recorded to the trace ring (FPTC_TRACE set).
[[nodiscard]] bool trace_enabled() noexcept;

/// Chronological snapshot of every thread's ring (post-join export; see the
/// thread-safety note above).
[[nodiscard]] std::vector<TraceEvent> trace_snapshot();

/// Events overwritten by ring wrap-around, across all threads.
[[nodiscard]] std::uint64_t trace_dropped();

/// Render the snapshot as Chrome trace_event JSON.  Per thread, orphan 'E'
/// events (their 'B' was overwritten by wrap-around) are dropped and spans
/// still open at export get a synthetic 'E', so the output always holds
/// balanced B/E pairs with monotone timestamps per tid.
[[nodiscard]] std::string chrome_trace_json();

/// Human per-phase breakdown (count, mean/p50/p95 wall, accounted alloc)
/// over every `fptc_phase_*_duration_ns` histogram; "" when nothing was
/// observed.
[[nodiscard]] std::string profiler_report();

/// Export everything that is armed: the Chrome trace (FPTC_TRACE), the
/// metrics JSON + Prometheus text (FPTC_METRICS, text at <path>.prom), and
/// the profiler report (stderr at FPTC_LOG>=2; durably persisted to
/// FPTC_ARTIFACTS_DIR/BENCH_profile.txt when that is set).  Snapshot
/// semantics — safe to call repeatedly; the final at-exit flush wins.
void telemetry_flush();

/// Test hooks: install a configuration without consulting the environment /
/// rewind so the next telemetry_init() re-reads it; empty ring heads.
void telemetry_configure_for_tests(const TelemetryConfig& config);
void telemetry_reset_for_tests();

/// Mirror the MemBudget accountant into the registry gauges
/// (fptc_membudget_{in_use,peak,budget}_bytes) — called by flush and by the
/// executor before it journals the __membudget__ record.  The rejections
/// counter (fptc_membudget_rejections_total) is incremented by the
/// accountant itself at refusal time.
void publish_membudget_metrics();

/// Snapshot the fault injector's tallies into one fptc_fault_<counter>
/// gauge per FaultCounters field.  Called by flush.
void publish_fault_metrics();

namespace detail {
/// Span fast-path gate: 0 = telemetry not yet initialized, 1 = initialized
/// and inactive, 2 = initialized and active.  Written only under the
/// telemetry state mutex; the inline span constructor reads it relaxed so
/// the common disabled case costs one load and a predictable branch.
extern std::atomic<int> span_gate;
} // namespace detail

/// RAII span: records B/E trace events and feeds the per-phase histograms.
/// Inert (one inlined relaxed load + branch) when telemetry is inactive.
/// `name` must be a string literal.  Args values are copied at
/// construction, so short-lived strings are safe.
class TraceSpan {
public:
    explicit TraceSpan(const char* name)
    {
        if (detail::span_gate.load(std::memory_order_relaxed) != 1) {
            open(name);
        }
    }

    TraceSpan(const char* name,
              std::initializer_list<std::pair<const char*, const char*>> args)
    {
        if (detail::span_gate.load(std::memory_order_relaxed) != 1) {
            open_with_args(name, args);
        }
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    ~TraceSpan()
    {
        if (active_) {
            close();
        }
    }

private:
    void open(const char* name);
    void open_with_args(const char* name,
                        std::initializer_list<std::pair<const char*, const char*>> args);
    void close();
    void begin(const char* args_body);

    const char* name_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t alloc_start_ = 0;
    bool active_ = false;
};

} // namespace fptc::util

// Span convenience macro.  FPTC_TRACE_SPAN("forward") opens a span for the
// rest of the enclosing scope; the two-argument-list form attaches context:
// FPTC_TRACE_SPAN("unit", {{"campaign", name.c_str()}, {"key", key.c_str()}}).
// Define FPTC_NO_TELEMETRY to compile every span out entirely.
#define FPTC_TELEMETRY_CONCAT_INNER(a, b) a##b
#define FPTC_TELEMETRY_CONCAT(a, b) FPTC_TELEMETRY_CONCAT_INNER(a, b)
#ifndef FPTC_NO_TELEMETRY
#define FPTC_TRACE_SPAN(...)                                                              \
    const ::fptc::util::TraceSpan FPTC_TELEMETRY_CONCAT(fptc_trace_span_, __COUNTER__)    \
    {                                                                                     \
        __VA_ARGS__                                                                       \
    }
#else
#define FPTC_TRACE_SPAN(...) static_cast<void>(0)
#endif

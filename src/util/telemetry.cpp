#include "fptc/util/telemetry.hpp"

#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/event_ring.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/journal.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/membudget.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace fptc::util {

namespace detail {
std::atomic<int> span_gate{0};
} // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

std::uint64_t now_ns() noexcept
{
    // Steady clock relative to a process-wide epoch so trace timestamps start
    // near zero and stay monotone per thread (Chrome's viewer sorts on them).
    static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - epoch)
                                          .count());
}

std::string format_double(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
}

} // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::observe(std::uint64_t value) noexcept
{
    const auto index = static_cast<std::size_t>(std::bit_width(value));
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t index) const
{
    if (index >= kBuckets) {
        throw std::out_of_range("Histogram::bucket: index " + std::to_string(index));
    }
    return buckets_[index].load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) noexcept
{
    if (index == 0) {
        return 0;
    }
    if (index >= 64) {
        return ~std::uint64_t{0};
    }
    return (std::uint64_t{1} << index) - 1;
}

double Histogram::quantile(double q) const noexcept
{
    const std::uint64_t n = count();
    if (n == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target observation (1-based), then walk the buckets.
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        cumulative += buckets_[b].load(std::memory_order_relaxed);
        if (cumulative >= rank) {
            if (b == 0) {
                return 0.0;
            }
            // Geometric midpoint of [2^(b-1), 2^b): right error model for a
            // log2 grid.
            const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
            const double hi = std::ldexp(1.0, static_cast<int>(b));
            return std::sqrt(lo * hi);
        }
    }
    return static_cast<double>(bucket_upper_bound(kBuckets - 1));
}

void Histogram::reset() noexcept
{
    for (auto& b : buckets_) {
        b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
    mutable std::mutex mutex;
    // Node-based maps: references handed out stay valid forever.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const
{
    // One registry per process; leaked intentionally so instruments outlive
    // every static destructor that might still record (atexit flush order).
    static Impl* instance = new Impl();
    return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name)
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    auto& slot = state.counters[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
    }
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name)
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    auto& slot = state.gauges[name];
    if (!slot) {
        slot = std::make_unique<Gauge>();
    }
    return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name)
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    auto& slot = state.histograms[name];
    if (!slot) {
        slot = std::make_unique<Histogram>();
    }
    return *slot;
}

std::string MetricsRegistry::prometheus_text() const
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    std::string out;
    for (const auto& [name, counter] : state.counters) {
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(counter->value()) + "\n";
    }
    for (const auto& [name, gauge] : state.gauges) {
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + std::to_string(gauge->value()) + "\n";
    }
    for (const auto& [name, histogram] : state.histograms) {
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t in_bucket = histogram->bucket(b);
            if (in_bucket == 0) {
                continue;  // sparse exposition: log2 grids are mostly empty
            }
            cumulative += in_bucket;
            out += name + "_bucket{le=\"" +
                   std::to_string(Histogram::bucket_upper_bound(b)) + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(histogram->count()) + "\n";
        out += name + "_sum " + std::to_string(histogram->sum()) + "\n";
        out += name + "_count " + std::to_string(histogram->count()) + "\n";
    }
    return out;
}

std::string MetricsRegistry::json_text() const
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, counter] : state.counters) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": " + std::to_string(counter->value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, gauge] : state.gauges) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": " + std::to_string(gauge->value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] : state.histograms) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": {\"count\": " + std::to_string(histogram->count()) +
               ", \"sum\": " + std::to_string(histogram->sum()) +
               ", \"mean\": " + format_double(histogram->mean()) +
               ", \"p50\": " + format_double(histogram->quantile(0.50)) +
               ", \"p95\": " + format_double(histogram->quantile(0.95)) + ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t in_bucket = histogram->bucket(b);
            if (in_bucket == 0) {
                continue;
            }
            out += first_bucket ? "" : ", ";
            first_bucket = false;
            out += "{\"le\": " + std::to_string(Histogram::bucket_upper_bound(b)) +
                   ", \"count\": " + std::to_string(in_bucket) + "}";
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

std::vector<std::string> MetricsRegistry::histogram_names(const std::string& prefix) const
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    std::vector<std::string> names;
    for (const auto& [name, histogram] : state.histograms) {
        if (name.rfind(prefix, 0) == 0) {
            names.push_back(name);
        }
    }
    return names;
}

void MetricsRegistry::reset_values_for_tests()
{
    Impl& state = impl();
    const std::lock_guard<std::mutex> lock(state.mutex);
    for (auto& [name, counter] : state.counters) {
        counter->reset();
    }
    for (auto& [name, gauge] : state.gauges) {
        gauge->set(0);
    }
    for (auto& [name, histogram] : state.histograms) {
        histogram->reset();
    }
}

MetricsRegistry& metrics()
{
    static MetricsRegistry registry;
    return registry;
}

// ---------------------------------------------------------------------------
// Tracing: per-thread rings
// ---------------------------------------------------------------------------

namespace {

/// One thread's trace ring: heap words viewed as an EventRing that only
/// the owning thread pushes into.
struct ThreadRing {
    ThreadRing(std::uint32_t id, std::size_t capacity)
        : tid(id), words(EventRing<TraceEvent>::words(capacity)), ring(words.data(), capacity)
    {
    }

    std::uint32_t tid;
    std::vector<std::uint64_t> words;
    EventRing<TraceEvent> ring;
};

struct TraceState {
    std::mutex mutex;  ///< guards ring registration and config, not pushes
    std::vector<std::unique_ptr<ThreadRing>> rings;
    TelemetryConfig config;
    bool config_valid = false;
    bool atexit_armed = false;
};

TraceState& trace_state()
{
    // Leaked: worker threads may still push while static destructors run.
    static TraceState* state = new TraceState();
    return *state;
}

// Fast-path flags, written only under trace_state().mutex.  The inline
// span constructor additionally reads detail::span_gate (declared in the
// header), kept in sync with these at every write site.
std::atomic<int> g_init_state{0};  // 0 = uninitialized, 1 = initialized
std::atomic<bool> g_active{false};
std::atomic<bool> g_trace{false};

void publish_span_gate()
{
    const int gate = g_init_state.load(std::memory_order_relaxed) == 0
                         ? 0
                         : (g_active.load(std::memory_order_relaxed) ? 2 : 1);
    detail::span_gate.store(gate, std::memory_order_relaxed);
}

TelemetryConfig read_config_from_env()
{
    TelemetryConfig config;
    const auto validate_sink = [](const char* knob) {
        const char* raw = std::getenv(knob);
        if (raw == nullptr) {
            return std::string{};
        }
        const std::string value(raw);
        if (value.empty()) {
            throw EnvError(std::string(knob) +
                           " is set but empty: it must name a writable file path");
        }
        try {
            probe_appendable(value);
        } catch (const IoError& error) {
            throw EnvError(std::string(knob) + "='" + value +
                           "' does not name a writable file: " + error.what());
        }
        return value;
    };
    config.trace_path = validate_sink("FPTC_TRACE");
    config.metrics_path = validate_sink("FPTC_METRICS");
    // The per-thread ring needs at least 64 slots.
    config.ring_capacity = env_size("FPTC_TRACE_EVENTS", config.ring_capacity, 64);
    config.profile = log_level() >= LogLevel::debug;
    return config;
}

void install_config_locked(TraceState& state, const TelemetryConfig& config)
{
    state.config = config;
    state.config_valid = true;
    g_trace.store(!config.trace_path.empty(), std::memory_order_relaxed);
    g_active.store(!config.trace_path.empty() || !config.metrics_path.empty() || config.profile,
                   std::memory_order_relaxed);
    g_init_state.store(1, std::memory_order_release);
    publish_span_gate();
    if (g_active.load(std::memory_order_relaxed) && !state.atexit_armed) {
        state.atexit_armed = true;
        std::atexit([] { telemetry_flush(); });
    }
}

/// Lazy non-throwing init for spans that fire before any executor exists.
/// A bad knob disables telemetry with one logged line; telemetry_init()
/// (called from the executor constructor) still throws the strict error.
void init_nothrow() noexcept
{
    TraceState& state = trace_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    if (g_init_state.load(std::memory_order_relaxed) != 0) {
        return;
    }
    try {
        install_config_locked(state, read_config_from_env());
    } catch (const std::exception& error) {
        state.config = TelemetryConfig{};
        state.config_valid = false;
        g_active.store(false, std::memory_order_relaxed);
        g_trace.store(false, std::memory_order_relaxed);
        g_init_state.store(1, std::memory_order_release);
        publish_span_gate();
        log_info(std::string("telemetry disabled: ") + error.what());
    }
}

thread_local ThreadRing* t_ring = nullptr;

/// Record one event on the calling thread's ring, registering the ring on
/// the thread's first event.
void push_trace(const char* name, char phase, const char* args_body)
{
    if (t_ring == nullptr) {
        TraceState& state = trace_state();
        const std::lock_guard<std::mutex> lock(state.mutex);
        const auto tid = static_cast<std::uint32_t>(state.rings.size() + 1);
        const std::size_t capacity = std::max<std::size_t>(state.config.ring_capacity, 1);
        state.rings.push_back(std::make_unique<ThreadRing>(tid, capacity));
        t_ring = state.rings.back().get();
    }
    TraceEvent event;
    event.name = name;
    event.phase = phase;
    event.tid = t_ring->tid;
    event.ts_ns = now_ns();
    for (std::size_t i = 0; args_body[i] != '\0' && i < sizeof(event.args) - 1; ++i) {
        event.args[i] = args_body[i];
    }
    t_ring->ring.push(event);
}

} // namespace

const TelemetryConfig& telemetry_init()
{
    TraceState& state = trace_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    if (g_init_state.load(std::memory_order_relaxed) == 0) {
        install_config_locked(state, read_config_from_env());  // may throw EnvError
    } else if (!state.config_valid) {
        // A span's nothrow init already swallowed the error; re-derive it so
        // the executor still refuses to start a campaign on a bad sink.
        install_config_locked(state, read_config_from_env());
    }
    return state.config;
}

bool telemetry_active() noexcept
{
    if (g_init_state.load(std::memory_order_acquire) == 0) {
        init_nothrow();
    }
    return g_active.load(std::memory_order_relaxed);
}

bool trace_enabled() noexcept
{
    if (g_init_state.load(std::memory_order_acquire) == 0) {
        init_nothrow();
    }
    return g_trace.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_snapshot()
{
    TraceState& state = trace_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    std::vector<TraceEvent> events;
    for (const auto& thread : state.rings) {
        const std::vector<TraceEvent> window = thread->ring.snapshot();
        events.insert(events.end(), window.begin(), window.end());
    }
    return events;
}

std::uint64_t trace_dropped()
{
    TraceState& state = trace_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    std::uint64_t dropped = 0;
    for (const auto& thread : state.rings) {
        dropped += thread->ring.dropped();
    }
    return dropped;
}

std::string chrome_trace_json()
{
    const std::vector<TraceEvent> events = trace_snapshot();
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    const auto emit = [&](const TraceEvent& event) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\": \"";
        out += json_escape(event.name != nullptr ? event.name : "?");
        out += "\", \"cat\": \"fptc\", \"ph\": \"";
        out += event.phase;
        out += "\", \"ts\": " + format_double(static_cast<double>(event.ts_ns) / 1000.0) +
               ", \"pid\": 1, \"tid\": " + std::to_string(event.tid);
        if (event.phase == 'B' && event.args[0] != '\0') {
            out += ", \"args\": {";
            out += event.args;  // pre-rendered, pre-escaped JSON body
            out += "}";
        }
        out += "}";
    };
    // Per tid: drop orphan 'E' events (their 'B' was overwritten by ring
    // wrap-around) and close still-open 'B' spans with synthetic 'E's so the
    // exported stream always holds balanced pairs.  Events within one ring
    // are already chronological.
    std::map<std::uint32_t, std::vector<const TraceEvent*>> per_tid;
    for (const TraceEvent& event : events) {
        per_tid[event.tid].push_back(&event);
    }
    for (const auto& [tid, stream] : per_tid) {
        std::vector<const TraceEvent*> open;
        std::uint64_t last_ts = 0;
        for (const TraceEvent* event : stream) {
            last_ts = std::max(last_ts, event->ts_ns);
            if (event->phase == 'B') {
                open.push_back(event);
                emit(*event);
            } else if (!open.empty()) {
                open.pop_back();
                emit(*event);
            }
            // orphan 'E' at depth 0: skipped
        }
        while (!open.empty()) {
            TraceEvent closing = *open.back();
            open.pop_back();
            closing.phase = 'E';
            closing.ts_ns = last_ts;
            closing.args[0] = '\0';
            emit(closing);
        }
    }
    out += first ? "]}\n" : "\n]}\n";
    return out;
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

void TraceSpan::open(const char* name)
{
    name_ = name;
    if (!telemetry_active()) {
        return;
    }
    begin("");
}

void TraceSpan::open_with_args(const char* name,
                               std::initializer_list<std::pair<const char*, const char*>> args)
{
    name_ = name;
    if (!telemetry_active()) {
        return;
    }
    // Render `"k": "v", ...` into a bounded stack buffer; a pair that does
    // not fully fit is dropped (never truncated mid-token, so the JSON body
    // stays well-formed).
    char body[sizeof(TraceEvent{}.args)];
    std::size_t used = 0;
    for (const auto& [key, value] : args) {
        char pair[sizeof(body)];
        const std::string escaped_value = json_escape(value != nullptr ? value : "");
        const int wrote = std::snprintf(pair, sizeof(pair), "%s\"%s\": \"%s\"",
                                        used == 0 ? "" : ", ", key, escaped_value.c_str());
        if (wrote <= 0 || used + static_cast<std::size_t>(wrote) >= sizeof(body)) {
            continue;
        }
        std::memcpy(body + used, pair, static_cast<std::size_t>(wrote));
        used += static_cast<std::size_t>(wrote);
    }
    body[used] = '\0';
    begin(body);
}

void TraceSpan::begin(const char* args_body)
{
    active_ = true;
    alloc_start_ = mem_budget().reserved_total();
    if (trace_enabled()) {
        push_trace(name_, 'B', args_body);
    }
    start_ns_ = now_ns();
}

void TraceSpan::close()
{
    const std::uint64_t duration_ns = now_ns() - start_ns_;
    const std::uint64_t alloc_bytes = mem_budget().reserved_total() - alloc_start_;
    if (trace_enabled()) {
        push_trace(name_, 'E', "");
    }
    MetricsRegistry& registry = metrics();
    const std::string prefix = std::string("fptc_phase_") + name_;
    registry.histogram(prefix + "_duration_ns").observe(duration_ns);
    if (alloc_bytes > 0) {
        registry.counter(prefix + "_alloc_bytes_total").add(alloc_bytes);
    }
}

// ---------------------------------------------------------------------------
// Profiler + flush
// ---------------------------------------------------------------------------

void publish_membudget_metrics()
{
    MemBudget& budget = mem_budget();
    MetricsRegistry& registry = metrics();
    registry.gauge("fptc_membudget_in_use_bytes").set(static_cast<std::int64_t>(budget.in_use()));
    registry.gauge("fptc_membudget_peak_bytes")
        .set_max(static_cast<std::int64_t>(budget.peak_bytes()));
    registry.gauge("fptc_membudget_budget_bytes")
        .set(static_cast<std::int64_t>(budget.budget_bytes()));
}

void publish_fault_metrics()
{
    const FaultCounters counters = fault_injector().counters();
    MetricsRegistry& registry = metrics();
    const auto set = [&registry](const char* name, std::uint64_t value) {
        registry.gauge(name).set(static_cast<std::int64_t>(value));
    };
    set("fptc_fault_nan_losses", counters.nan_losses);
    set("fptc_fault_truncated_writes", counters.truncated_writes);
    set("fptc_fault_corrupted_csv_rows", counters.corrupted_csv_rows);
    set("fptc_fault_stalled_units", counters.stalled_units);
    set("fptc_fault_transient_units", counters.transient_units);
    set("fptc_fault_enospc_failures", counters.enospc_failures);
    set("fptc_fault_short_write_clamps", counters.short_write_clamps);
    set("fptc_fault_fsync_failures", counters.fsync_failures);
    set("fptc_fault_alloc_rejections", counters.alloc_rejections);
    set("fptc_fault_alloc_unit_failures", counters.alloc_unit_failures);
    set("fptc_fault_serve_backend_stalls", counters.serve_backend_stalls);
    set("fptc_fault_serve_mangled_packets", counters.serve_mangled_packets);
    set("fptc_fault_serve_bursts", counters.serve_bursts);
}

std::string profiler_report()
{
    MetricsRegistry& registry = metrics();
    const std::string prefix = "fptc_phase_";
    const std::string suffix = "_duration_ns";
    const std::vector<std::string> names = registry.histogram_names(prefix);
    std::ostringstream out;
    bool any = false;
    for (const std::string& name : names) {
        if (name.size() <= prefix.size() + suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
            continue;
        }
        const Histogram& histogram = registry.histogram(name);
        if (histogram.count() == 0) {
            continue;
        }
        if (!any) {
            out << "phase profile (wall-clock per span, accounted alloc):\n";
            char header[128];
            std::snprintf(header, sizeof(header), "  %-14s %10s %12s %12s %12s %12s\n", "phase",
                          "count", "mean_ms", "p50_ms", "p95_ms", "alloc_mb");
            out << header;
            any = true;
        }
        const std::string phase =
            name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
        const std::uint64_t alloc =
            registry.counter(prefix + phase + "_alloc_bytes_total").value();
        char row[160];
        std::snprintf(row, sizeof(row), "  %-14s %10llu %12.3f %12.3f %12.3f %12.1f\n",
                      phase.c_str(), static_cast<unsigned long long>(histogram.count()),
                      histogram.mean() / 1e6, histogram.quantile(0.50) / 1e6,
                      histogram.quantile(0.95) / 1e6,
                      static_cast<double>(alloc) / (1024.0 * 1024.0));
        out << row;
    }
    return any ? out.str() : std::string{};
}

void telemetry_flush()
{
    if (!telemetry_active()) {
        return;
    }
    // Serialize whole flushes: run_all() flushes per campaign and the atexit
    // hook flushes once more at process end; last writer wins.
    static std::mutex flush_mutex;
    const std::lock_guard<std::mutex> lock(flush_mutex);

    TelemetryConfig config;
    {
        TraceState& state = trace_state();
        const std::lock_guard<std::mutex> state_lock(state.mutex);
        config = state.config;
    }

    publish_membudget_metrics();
    publish_fault_metrics();

    // Snapshot text first, then write: the durable writes below record their
    // own spans, which must not observe a held registry or ring lock.
    if (!config.trace_path.empty()) {
        const std::string trace = chrome_trace_json();
        try {
            DurableFile::write_file(config.trace_path, trace);
        } catch (const std::exception& error) {
            log_info(std::string("telemetry: trace export failed: ") + error.what());
        }
        const std::uint64_t dropped = trace_dropped();
        if (dropped > 0) {
            log_debug("telemetry: ring wrap-around dropped " + std::to_string(dropped) +
                      " oldest trace event(s); raise FPTC_TRACE_EVENTS to keep more");
        }
    }
    if (!config.metrics_path.empty()) {
        try {
            DurableFile::write_file(config.metrics_path, metrics().json_text());
            DurableFile::write_file(config.metrics_path + ".prom", metrics().prometheus_text());
        } catch (const std::exception& error) {
            log_info(std::string("telemetry: metrics export failed: ") + error.what());
        }
    }
    const std::string report = profiler_report();
    if (!report.empty()) {
        if (config.profile) {
            log_raw(report);
        }
        if (const char* artifacts = std::getenv("FPTC_ARTIFACTS_DIR");
            artifacts != nullptr && artifacts[0] != '\0') {
            try {
                DurableFile::write_file(std::string(artifacts) + "/BENCH_profile.txt", report);
            } catch (const std::exception& error) {
                log_info(std::string("telemetry: profile export failed: ") + error.what());
            }
        }
    }
}

void telemetry_configure_for_tests(const TelemetryConfig& config)
{
    TraceState& state = trace_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    install_config_locked(state, config);
    for (const auto& thread : state.rings) {
        thread->ring.reset();
    }
}

void telemetry_reset_for_tests()
{
    TraceState& state = trace_state();
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.config = TelemetryConfig{};
    state.config_valid = false;
    g_active.store(false, std::memory_order_relaxed);
    g_trace.store(false, std::memory_order_relaxed);
    g_init_state.store(0, std::memory_order_release);
    publish_span_gate();
    for (const auto& thread : state.rings) {
        thread->ring.reset();
    }
}

} // namespace fptc::util

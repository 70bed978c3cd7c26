#include "fptc/util/fault.hpp"

#include "fptc/util/env.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

namespace fptc::util {

namespace {

/// Tally a firing in `counter`.  This and the rules below, with the member
/// first_n, are what the inject_* methods share.
bool counted(bool fired, std::uint64_t& counter)
{
    counter += fired ? 1 : 0;
    return fired;
}

/// A "k-th" class: counts every call in `calls` and fires on the k-th.
bool kth_call(int k, std::uint64_t& calls)
{
    return k > 0 && ++calls == static_cast<std::uint64_t>(k);
}

/// A percentage class: Bernoulli(percent / 100) from the injector's stream.
bool bernoulli(double percent, Rng& rng)
{
    return percent > 0.0 && rng.bernoulli(percent / 100.0);
}

/// A byte-budget class: fires once `used` + `bytes` passes `budget` (0 = off).
bool over_budget(std::uint64_t budget, std::uint64_t& used, std::size_t bytes)
{
    if (budget != 0 && used + bytes > budget) {
        return true;
    }
    used += bytes;
    return false;
}

/// A knob's value; one that does not fit its plan field is an EnvError.
template <typename T>
T knob_value(const char* knob)
{
    const std::int64_t value = env_int(knob).value_or(0);
    if constexpr (std::is_integral_v<T>) {
        if (!std::in_range<T>(value)) {
            throw EnvError(std::string(knob) + "='" + std::to_string(value) + "': over " +
                           std::to_string(std::numeric_limits<T>::max()));
        }
    }
    return static_cast<T>(value);
}

/// Per-thread byte tally of ALLOC_FAIL_AFTER_MB.  `epoch` ties it to one
/// configure()/begin_alloc_scope() generation, so stale bytes never leak in.
struct AllocScope {
    std::uint64_t epoch = 0;
    std::uint64_t bytes = 0;
};

thread_local AllocScope t_alloc_scope;
std::atomic<std::uint64_t> g_alloc_epochs{1};  ///< one sequence for every injector

} // namespace

void FaultInjector::configure(const FaultPlan& plan)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    plan_ = plan;
    rng_ = Rng(mix_seed(plan.seed, 0xFA17));
    counters_ = FaultCounters{};
    calls_ = Calls{};
    // Saturated, not shifted past 64 bits: an armed class never wraps to 0.
    const auto mb = static_cast<std::uint64_t>(std::max<std::int64_t>(plan.alloc_fail_after_mb, 0));
    alloc_fail_threshold_bytes_.store(std::min<std::uint64_t>(mb, ~0ULL >> 20) << 20,
                                      std::memory_order_relaxed);
    alloc_scope_epoch_.store(++g_alloc_epochs, std::memory_order_relaxed);
    alloc_rejections_.store(0, std::memory_order_relaxed);
}

FaultPlan FaultInjector::plan() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return plan_;
}

bool FaultInjector::enabled() const noexcept
{
    const std::lock_guard<std::mutex> lock(mutex_);
#define FPTC_FAULT_ARMED(type, field, knob, counter, kind, doc) \
    || (FaultKind::kind != FaultKind::seed && plan_.field > 0)
    return false FPTC_FAULT_CLASSES(FPTC_FAULT_ARMED);
#undef FPTC_FAULT_ARMED
}

bool FaultInjector::inject_nan_loss(std::uint64_t step)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const int k = plan_.nan_loss_every;
    return counted(k > 0 && step % static_cast<std::uint64_t>(k) == 0, counters_.nan_losses);
}

bool FaultInjector::first_n(int FaultPlan::*n, std::uint64_t FaultCounters::*fired)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const int limit = plan_.*n;
    return counted(limit > 0 && counters_.*fired < static_cast<std::uint64_t>(limit),
                   counters_.*fired);
}

bool FaultInjector::inject_csv_corruption()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counted(bernoulli(plan_.csv_row_percent, rng_), counters_.corrupted_csv_rows);
}

bool FaultInjector::inject_enospc(std::size_t bytes)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto budget = static_cast<std::uint64_t>(plan_.enospc_after_bytes);
    return counted(over_budget(budget, calls_.durable_bytes, bytes), counters_.enospc_failures);
}

bool FaultInjector::inject_crash_at_write()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return kth_call(plan_.crash_at_write, calls_.durable_writes);
}

bool FaultInjector::inject_alloc_fail(std::size_t bytes)
{
    const std::uint64_t threshold = alloc_fail_threshold_bytes_.load(std::memory_order_relaxed);
    if (threshold == 0) {
        return false;
    }
    const std::uint64_t epoch = alloc_scope_epoch_.load(std::memory_order_relaxed);
    if (t_alloc_scope.epoch != epoch) {
        t_alloc_scope = AllocScope{epoch, 0};
    }
    if (!over_budget(threshold, t_alloc_scope.bytes, bytes)) {
        return false;
    }
    ++alloc_rejections_;
    return true;
}

void FaultInjector::begin_alloc_scope()
{
    t_alloc_scope = AllocScope{alloc_scope_epoch_.load(std::memory_order_relaxed), 0};
}

bool FaultInjector::inject_unit_alloc_fail(std::size_t unit_index)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const int n = plan_.alloc_fail_units;
    return counted(n > 0 && unit_index < static_cast<std::size_t>(n),
                   counters_.alloc_unit_failures);
}

bool FaultInjector::inject_serve_mangle()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counted(bernoulli(plan_.serve_mangle_percent, rng_), counters_.serve_mangled_packets);
}

int FaultInjector::inject_serve_burst()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const bool burst = plan_.serve_burst > 0 && ++calls_.serve_stream_events % 64 == 0;
    return counted(burst, counters_.serve_bursts) ? plan_.serve_burst : 0;
}

bool FaultInjector::inject_serve_hang()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counted(kth_call(plan_.serve_hang_at_batch, calls_.serve_batches),
                   counters_.serve_hangs);
}

bool FaultInjector::inject_serve_kill()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counted(kth_call(plan_.kill_serve_at_snapshot, calls_.serve_snapshot_commits),
                   counters_.serve_kills);
}

FaultCounters FaultInjector::counters() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    FaultCounters counts = counters_;
    counts.alloc_rejections = alloc_rejections_.load(std::memory_order_relaxed);
    return counts;
}

std::string FaultInjector::summary() const
{
    const FaultCounters counts = counters();
    std::string out;
    for (const FaultCounterSpec& spec : kFaultCounters) {
        out += std::string(out.empty() ? "" : " ") + spec.summary_key + "=" +
               std::to_string(counts.*spec.field);
    }
    return out;
}

FaultPlan fault_plan_from_env()
{
    FaultPlan plan;
#define FPTC_FAULT_PARSE(type, field, knob, counter, kind, doc) plan.field = knob_value<type>(knob);
    FPTC_FAULT_CLASSES(FPTC_FAULT_PARSE)
#undef FPTC_FAULT_PARSE
    return plan;
}

FaultInjector& fault_injector()
{
    static FaultInjector injector(fault_plan_from_env());
    return injector;
}

} // namespace fptc::util

#include "fptc/util/fault.hpp"

#include "fptc/util/env.hpp"

#include <sstream>

namespace fptc::util {

namespace {

/// A "first n" fault class: fires while `fired` < `n`, counting each firing.
bool first_n(int n, std::uint64_t& fired)
{
    if (n <= 0 || fired >= static_cast<std::uint64_t>(n)) {
        return false;
    }
    ++fired;
    return true;
}

/// A "k-th" fault class: counts every call in `calls` and fires on the k-th.
bool kth_call(int k, std::uint64_t& calls)
{
    return k > 0 && ++calls == static_cast<std::uint64_t>(k);
}

} // namespace

FaultInjector::FaultInjector(const FaultPlan& plan)
{
    configure(plan);
}

void FaultInjector::configure(const FaultPlan& plan)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    plan_ = plan;
    rng_ = Rng(mix_seed(plan.seed, 0xFA17));
    counters_ = FaultCounters{};
    durable_bytes_ = 0;
    durable_writes_ = 0;
    serve_stream_events_ = 0;
    serve_batches_ = 0;
    serve_snapshot_commits_ = 0;
    const std::uint64_t threshold =
        plan.alloc_fail_after_mb > 0
            ? static_cast<std::uint64_t>(plan.alloc_fail_after_mb) * 1024 * 1024
            : 0;
    alloc_fail_threshold_bytes_.store(threshold, std::memory_order_relaxed);
    // Bumping the epoch lazily invalidates every thread's byte scope.
    alloc_scope_epoch_.fetch_add(1, std::memory_order_relaxed);
    alloc_rejections_.store(0, std::memory_order_relaxed);
    serve_stream_armed_.store(plan.serve_mangle_percent > 0.0 || plan.serve_burst > 0,
                              std::memory_order_relaxed);
}

bool FaultInjector::enabled() const noexcept
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return plan_.nan_loss_every > 0 || plan_.truncate_writes > 0 ||
           plan_.csv_row_percent > 0.0 || plan_.stall_units > 0 || plan_.transient_units > 0 ||
           plan_.enospc_after_bytes > 0 || plan_.short_writes > 0 ||
           plan_.fsync_failures > 0 || plan_.crash_at_write > 0 ||
           plan_.alloc_fail_after_mb > 0 || plan_.alloc_fail_units > 0 ||
           plan_.serve_stall_backend > 0 || plan_.serve_mangle_percent > 0.0 ||
           plan_.serve_burst > 0 || plan_.serve_hang_at_batch > 0 ||
           plan_.kill_serve_at_snapshot > 0;
}

bool FaultInjector::inject_nan_loss(std::uint64_t step)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.nan_loss_every <= 0 ||
        step % static_cast<std::uint64_t>(plan_.nan_loss_every) != 0) {
        return false;
    }
    ++counters_.nan_losses;
    return true;
}

bool FaultInjector::inject_truncated_write()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return first_n(plan_.truncate_writes, counters_.truncated_writes);
}

bool FaultInjector::inject_csv_corruption()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.csv_row_percent <= 0.0) {
        return false;
    }
    if (!rng_.bernoulli(plan_.csv_row_percent / 100.0)) {
        return false;
    }
    ++counters_.corrupted_csv_rows;
    return true;
}

bool FaultInjector::inject_unit_stall()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return first_n(plan_.stall_units, counters_.stalled_units);
}

bool FaultInjector::inject_unit_transient()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return first_n(plan_.transient_units, counters_.transient_units);
}

bool FaultInjector::inject_enospc(std::size_t bytes)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.enospc_after_bytes <= 0) {
        return false;
    }
    if (durable_bytes_ + bytes > static_cast<std::uint64_t>(plan_.enospc_after_bytes)) {
        ++counters_.enospc_failures;
        return true;
    }
    durable_bytes_ += bytes;
    return false;
}

std::size_t FaultInjector::clamp_write(std::size_t length)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (length < 2 || !first_n(plan_.short_writes, counters_.short_write_clamps)) {
        return length;
    }
    return length / 2;
}

bool FaultInjector::inject_fsync_failure()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return first_n(plan_.fsync_failures, counters_.fsync_failures);
}

bool FaultInjector::inject_crash_at_write()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return kth_call(plan_.crash_at_write, durable_writes_);
}

namespace {

/// Per-thread byte tally for the alloc_fail_after_mb class.  `epoch` ties the
/// tally to a configure()/begin_alloc_scope() generation so stale bytes from
/// a previous plan or unit execution never leak into the current scope.
struct AllocScope {
    std::uint64_t epoch = 0;
    std::uint64_t bytes = 0;
};

thread_local AllocScope t_alloc_scope;

} // namespace

bool FaultInjector::inject_alloc_fail(std::size_t bytes)
{
    const std::uint64_t threshold = alloc_fail_threshold_bytes_.load(std::memory_order_relaxed);
    if (threshold == 0) {
        return false;
    }
    const std::uint64_t epoch = alloc_scope_epoch_.load(std::memory_order_relaxed);
    if (t_alloc_scope.epoch != epoch) {
        t_alloc_scope.epoch = epoch;
        t_alloc_scope.bytes = 0;
    }
    if (t_alloc_scope.bytes + bytes > threshold) {
        ++alloc_rejections_;
        return true;
    }
    t_alloc_scope.bytes += bytes;
    return false;
}

void FaultInjector::begin_alloc_scope()
{
    t_alloc_scope.epoch = alloc_scope_epoch_.load(std::memory_order_relaxed);
    t_alloc_scope.bytes = 0;
}

bool FaultInjector::inject_unit_alloc_fail(std::size_t unit_index)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.alloc_fail_units <= 0 ||
        unit_index >= static_cast<std::size_t>(plan_.alloc_fail_units)) {
        return false;
    }
    ++counters_.alloc_unit_failures;
    return true;
}

bool FaultInjector::inject_serve_backend_stall()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return first_n(plan_.serve_stall_backend, counters_.serve_backend_stalls);
}

bool FaultInjector::inject_serve_mangle()
{
    if (!serve_stream_armed_.load(std::memory_order_relaxed)) {
        return false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.serve_mangle_percent <= 0.0) {
        return false;
    }
    if (!rng_.bernoulli(plan_.serve_mangle_percent / 100.0)) {
        return false;
    }
    ++counters_.serve_mangled_packets;
    return true;
}

int FaultInjector::inject_serve_burst()
{
    if (!serve_stream_armed_.load(std::memory_order_relaxed)) {
        return 0;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.serve_burst <= 0) {
        return 0;
    }
    ++serve_stream_events_;
    if (serve_stream_events_ % 64 != 0) {
        return 0;
    }
    ++counters_.serve_bursts;
    return plan_.serve_burst;
}

bool FaultInjector::inject_serve_hang()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!kth_call(plan_.serve_hang_at_batch, serve_batches_)) {
        return false;
    }
    ++counters_.serve_hangs;
    return true;
}

bool FaultInjector::inject_serve_kill()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!kth_call(plan_.kill_serve_at_snapshot, serve_snapshot_commits_)) {
        return false;
    }
    ++counters_.serve_kills;
    return true;
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
    const auto counts = counters();
    std::ostringstream out;
    out << "nan_loss=" << counts.nan_losses << " truncated_writes=" << counts.truncated_writes
        << " csv_rows=" << counts.corrupted_csv_rows << " stalled_units="
        << counts.stalled_units << " transient_units=" << counts.transient_units
        << " enospc=" << counts.enospc_failures << " short_writes="
        << counts.short_write_clamps << " fsync_fail=" << counts.fsync_failures
        << " alloc_reject=" << counts.alloc_rejections
        << " alloc_units=" << counts.alloc_unit_failures
        << " serve_stalls=" << counts.serve_backend_stalls
        << " serve_mangled=" << counts.serve_mangled_packets
        << " serve_bursts=" << counts.serve_bursts
        << " serve_hangs=" << counts.serve_hangs
        << " serve_kills=" << counts.serve_kills;
    return out.str();
}

FaultPlan fault_plan_from_env()
{
    FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(env_int("FPTC_FAULT_SEED").value_or(0));
    plan.nan_loss_every = static_cast<int>(env_int("FPTC_FAULT_NAN_EVERY").value_or(0));
    plan.truncate_writes = static_cast<int>(env_int("FPTC_FAULT_TRUNCATE_WRITES").value_or(0));
    plan.csv_row_percent =
        static_cast<double>(env_int("FPTC_FAULT_CSV_PERCENT").value_or(0));
    plan.stall_units = static_cast<int>(env_int("FPTC_FAULT_STALL_UNITS").value_or(0));
    plan.transient_units = static_cast<int>(env_int("FPTC_FAULT_TRANSIENT_UNITS").value_or(0));
    plan.enospc_after_bytes = env_int("FPTC_FAULT_ENOSPC_AFTER_BYTES").value_or(0);
    plan.short_writes = static_cast<int>(env_int("FPTC_FAULT_SHORT_WRITES").value_or(0));
    plan.fsync_failures = static_cast<int>(env_int("FPTC_FAULT_FSYNC_FAIL").value_or(0));
    plan.crash_at_write = static_cast<int>(env_int("FPTC_FAULT_CRASH_AT_WRITE").value_or(0));
    plan.alloc_fail_after_mb = env_int("FPTC_FAULT_ALLOC_FAIL_AFTER_MB").value_or(0);
    plan.alloc_fail_units = static_cast<int>(env_int("FPTC_FAULT_ALLOC_FAIL_UNITS").value_or(0));
    plan.serve_stall_backend =
        static_cast<int>(env_int("FPTC_FAULT_SERVE_STALL_BACKEND").value_or(0));
    plan.serve_mangle_percent =
        static_cast<double>(env_int("FPTC_FAULT_SERVE_MANGLE_PACKETS").value_or(0));
    plan.serve_burst = static_cast<int>(env_int("FPTC_FAULT_SERVE_BURST").value_or(0));
    plan.serve_hang_at_batch = static_cast<int>(env_int("FPTC_FAULT_SERVE_HANG").value_or(0));
    plan.kill_serve_at_snapshot =
        static_cast<int>(env_int("FPTC_FAULT_KILL_SERVE").value_or(0));
    return plan;
}

FaultInjector& fault_injector()
{
    static FaultInjector injector(fault_plan_from_env());
    return injector;
}

} // namespace fptc::util

#include "fptc/core/executor.hpp"

#include "fptc/core/guard.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/env.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/log.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/rng.hpp"
#include "fptc/util/shutdown.hpp"
#include "fptc/util/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <sstream>
#include <thread>

namespace fptc::core {

namespace {

/// FNV-1a over the unit key: a stable, platform-independent stream id for
/// the backoff jitter (std::hash is not stable across implementations).
[[nodiscard]] std::uint64_t key_hash(const std::string& key) noexcept
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : key) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace

ExecutorConfig executor_config_from_env()
{
    ExecutorConfig config;
    config.jobs = static_cast<int>(util::env_int("FPTC_JOBS").value_or(1));
    config.jobs = std::max(1, config.jobs);
    config.unit_timeout_s = util::env_double("FPTC_UNIT_TIMEOUT_S").value_or(0.0);
    config.unit_retries = static_cast<int>(util::env_int("FPTC_UNIT_RETRIES").value_or(2));
    config.unit_retries = std::max(0, config.unit_retries);
    config.backoff_base_ms = util::env_double("FPTC_UNIT_BACKOFF_MS").value_or(50.0);
    config.mem_budget_bytes =
        static_cast<std::size_t>(util::env_int("FPTC_MEM_BUDGET_MB").value_or(0)) * 1024 * 1024;
    return config;
}

std::size_t estimate_unit_bytes(const FootprintEstimate& estimate)
{
    const std::size_t d = nn::effective_input_dim(estimate.resolution);
    const std::size_t channels = std::max<std::size_t>(1, estimate.channels);
    const std::size_t pixel_bytes = channels * d * d * sizeof(float);
    // Stored sample sets (train + eval) at the effective input dimension.
    const std::size_t stored = (estimate.samples + estimate.eval_samples) * pixel_bytes;
    // Two native-resolution grids alive while a flow rasterizes (the flowpic
    // plus its pooled copy; directional sets hold an up/down pair).
    const std::size_t rasterize = 2 * estimate.resolution * estimate.resolution * sizeof(float);
    // Per-step tensor traffic: input batch plus activations and gradients,
    // a conservative constant multiple of the batch tensor.
    const std::size_t batch_traffic = std::max<std::size_t>(1, estimate.batch) * pixel_bytes * 12;
    return stored + rasterize + batch_traffic;
}

double backoff_delay_ms(const ExecutorConfig& config, const std::string& key, int retry)
{
    if (retry < 1 || config.backoff_base_ms <= 0.0) {
        return 0.0;
    }
    double delay = config.backoff_base_ms;
    for (int i = 1; i < retry; ++i) {
        delay *= 2.0;
        if (delay >= config.backoff_max_ms) {
            break;
        }
    }
    util::Rng jitter(util::mix_seed(config.backoff_seed, key_hash(key),
                                    static_cast<std::uint64_t>(retry)));
    delay *= 0.5 + jitter.uniform();
    return std::min(delay, config.backoff_max_ms);
}

ErrorClass classify_exception(const std::exception& error) noexcept
{
    if (const auto* unit_error = dynamic_cast<const UnitError*>(&error)) {
        return unit_error->error_class();
    }
    if (const auto* cancelled = dynamic_cast<const util::CancelledError*>(&error)) {
        return cancelled->kind() == util::CancelKind::timeout ? ErrorClass::timeout
                                                              : ErrorClass::cancelled;
    }
    if (dynamic_cast<const DivergenceError*>(&error) != nullptr) {
        return ErrorClass::fatal;
    }
    if (const auto* io_error = dynamic_cast<const util::IoError*>(&error)) {
        // Durable-I/O failures carry their own hint: ENOSPC / fsync trouble
        // is resource exhaustion (retry, then degrade the cell), a bad path
        // or unexpected syscall error is deterministic.
        return io_error->transient() ? ErrorClass::transient : ErrorClass::fatal;
    }
    if (const auto* budget = dynamic_cast<const util::BudgetExceeded*>(&error)) {
        // Memory-budget refusals carry the same kind of hint: pressure from
        // concurrent units passes, a structurally oversized unit does not.
        return budget->transient() ? ErrorClass::transient : ErrorClass::fatal;
    }
    if (dynamic_cast<const std::bad_alloc*>(&error) != nullptr) {
        return ErrorClass::transient;
    }
    return ErrorClass::fatal;
}

CampaignExecutor::CampaignExecutor(std::string campaign, ExecutorConfig config)
    : campaign_(std::move(campaign)), config_(config), journal_(campaign_)
{
    // Resolve and validate the telemetry sinks now, on the campaign's main
    // thread: an empty or unwritable FPTC_TRACE / FPTC_METRICS target throws
    // util::EnvError here, before any unit has sunk CPU time.
    util::telemetry_init();
    util::install_shutdown_handlers();
    // Scavenge crash debris (orphan DurableFile temps of dead incarnations)
    // from the directories this campaign will write to, before anything new
    // lands there.
    if (journal_.enabled()) {
        util::scavenge_orphan_temps(util::parent_dir_of(journal_.path()));
    }
    if (const char* artifacts = std::getenv("FPTC_ARTIFACTS_DIR");
        artifacts != nullptr && *artifacts != '\0') {
        util::scavenge_orphan_temps(artifacts);
    }
}

std::size_t CampaignExecutor::submit(std::string key, UnitFn run, std::size_t estimated_bytes)
{
    units_.push_back(Unit{std::move(key), std::move(run), estimated_bytes});
    return units_.size() - 1;
}

void CampaignExecutor::run_unit(std::size_t index)
{
    const Unit& unit = units_[index];
    FPTC_TRACE_SPAN("unit", {{"campaign", campaign_.c_str()}, {"key", unit.key.c_str()}});
    UnitOutcome outcome;
    outcome.key = unit.key;
    const auto unit_start = std::chrono::steady_clock::now();

    const int max_attempts = config_.unit_retries + 1;
    int shrink = 0;
    bool shrink_retry_used = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        poll_shutdown();
        if (campaign_cancel_.cancelled()) {
            outcome.status = UnitStatus::cancelled;
            outcome.final_error = ErrorClass::cancelled;
            outcome.error_chain.push_back("cancelled: campaign cancelled before attempt");
            break;
        }
        if (attempt > 0) {
            FPTC_TRACE_SPAN("backoff");
            util::metrics().counter("fptc_executor_retries_total").add(1);
            const double delay = backoff_delay_ms(config_, unit.key, attempt);
            util::log_info("executor[" + campaign_ + "]: retrying " + unit.key +
                           " (unit retry " + std::to_string(attempt) + "/" +
                           std::to_string(config_.unit_retries) + " after " +
                           std::to_string(static_cast<long>(delay)) + "ms backoff)");
            std::this_thread::sleep_for(
                std::chrono::microseconds(static_cast<std::int64_t>(delay * 1000.0)));
            ++outcome.unit_retries;
        }
        ++outcome.attempts;
        FPTC_TRACE_SPAN("attempt");

        util::CancelToken token;
        token.set_parent(&campaign_cancel_);
        token.set_timeout(config_.unit_timeout_s);
        if (util::fault_injector().inject_unit_stall()) {
            // Simulated hang: the unit's next poll sleeps until the watchdog
            // deadline trips it (capped so a stall without a watchdog ends).
            const auto cap_ms = config_.unit_timeout_s > 0.0
                                    ? static_cast<std::int64_t>(config_.unit_timeout_s * 2000.0) + 1000
                                    : std::int64_t{500};
            token.arm_stall(std::chrono::milliseconds(cap_ms));
        }
        // Every attempt gets a fresh allocation-fault byte scope, so the
        // FPTC_FAULT_ALLOC_FAIL_AFTER_MB refusal point depends only on this
        // unit's own charges — deterministic for any FPTC_JOBS.
        util::fault_injector().begin_alloc_scope();

        try {
            if (util::fault_injector().inject_unit_transient()) {
                throw UnitError(ErrorClass::transient, "injected transient fault");
            }
            if (shrink == 0 && util::fault_injector().inject_unit_alloc_fail(index)) {
                throw util::BudgetExceeded("fault-injected unit " + unit.key,
                                           unit.estimated_bytes, 0);
            }
            const UnitContext context{token, shrink};
            outcome.fields = unit.run(context);
            outcome.status = UnitStatus::ok;
            journal_.commit(unit.key, outcome.fields);
            break;
        } catch (const std::exception& error) {
            const ErrorClass klass = classify_exception(error);
            outcome.error_chain.push_back(std::string(error_class_name(klass)) + ": " +
                                          error.what());
            outcome.final_error = klass;
            const bool budget_refusal =
                dynamic_cast<const util::BudgetExceeded*>(&error) != nullptr;
            if (budget_refusal && !shrink_retry_used && klass == ErrorClass::transient) {
                // OOM-graceful path: one immediate re-execution at half batch
                // size.  It does not consume the transient retry budget —
                // halving the footprint is the mitigation, not waiting.
                shrink_retry_used = true;
                shrink = 1;
                outcome.shrinks = 1;
                util::metrics().counter("fptc_executor_shrunk_total").add(1);
                util::log_info("executor[" + campaign_ + "]: unit " + unit.key +
                               " hit the memory budget; retrying at half batch size");
                --attempt;
                continue;
            }
            if (klass == ErrorClass::transient && attempt + 1 < max_attempts) {
                continue;
            }
            outcome.status = klass == ErrorClass::cancelled ? UnitStatus::cancelled
                                                            : UnitStatus::degraded;
            util::log_info("executor[" + campaign_ + "]: unit " + unit.key + " " +
                           (outcome.status == UnitStatus::cancelled ? "cancelled"
                                                                    : "degraded") +
                           " after " + std::to_string(outcome.attempts) + " attempt(s): " +
                           outcome.error_chain.back());
            break;
        }
    }
    outcome.busy_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - unit_start).count();
    outcomes_[index] = std::move(outcome);
}

void CampaignExecutor::poll_shutdown() const noexcept
{
    if (util::shutdown_requested() && !campaign_cancel_.cancelled()) {
        campaign_cancel_.cancel(util::CancelKind::cancelled);
    }
}

void CampaignExecutor::worker_loop()
{
    std::unique_lock<std::mutex> lock(sched_mutex_);
    while (true) {
        poll_shutdown();
        const std::size_t budget = config_.mem_budget_bytes;
        std::size_t pick = pending_.size();
        bool any_unclaimed = false;
        for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
            if (claimed_[slot] != 0) {
                continue;
            }
            any_unclaimed = true;
            const std::size_t estimate = units_[pending_[slot]].estimated_bytes;
            const bool fits = budget == 0 || estimate == 0 ||
                              (est_outstanding_ < budget && estimate <= budget - est_outstanding_);
            // Deadlock-free admission: with nothing running there is nothing
            // to wait for, so even an over-budget estimate is admitted (the
            // accountant still enforces the hard cap mid-unit).
            if (fits || running_ == 0) {
                pick = slot;
                break;
            }
            if (deferred_marked_[slot] == 0) {
                deferred_marked_[slot] = 1;
                util::metrics().counter("fptc_executor_deferred_total").add(1);
                util::log_info("executor[" + campaign_ + "]: deferring " +
                               units_[pending_[slot]].key + " (estimate " +
                               std::to_string(estimate) + " B over remaining budget)");
            }
        }
        if (!any_unclaimed) {
            return;
        }
        if (pick == pending_.size()) {
            // Nothing admissible right now; park until a unit completes.
            // Bounded wait: a latched shutdown signal must be noticed even
            // when no completion ever arrives to ring the cv.
            FPTC_TRACE_SPAN("admission_wait");
            sched_cv_.wait_for(lock, std::chrono::milliseconds(250));
            continue;
        }
        claimed_[pick] = 1;
        ++running_;
        const std::size_t estimate = units_[pending_[pick]].estimated_bytes;
        est_outstanding_ += estimate;
        lock.unlock();
        run_unit(pending_[pick]);
        lock.lock();
        --running_;
        est_outstanding_ -= estimate;
        sched_cv_.notify_all();
    }
}

void CampaignExecutor::run_all()
{
    if (ran_) {
        throw std::logic_error("CampaignExecutor::run_all: already ran");
    }
    ran_ = true;
    outcomes_.assign(units_.size(), UnitOutcome{});
    util::metrics().counter("fptc_executor_units_total").add(units_.size());
    // Touch the event-site counters so a clean campaign still exports the
    // full executor instrument set at zero.
    for (const char* name :
         {"fptc_executor_executed_total", "fptc_executor_replayed_total",
          "fptc_executor_retries_total", "fptc_executor_deferred_total",
          "fptc_executor_shrunk_total", "fptc_executor_degraded_total",
          "fptc_executor_cancelled_total", "fptc_membudget_rejections_total"}) {
        (void)util::metrics().counter(name);
    }

    // Replay journal-completed units up front; only the rest hit the pool.
    {
        FPTC_TRACE_SPAN("journal_replay");
        pending_.clear();
        for (std::size_t i = 0; i < units_.size(); ++i) {
            if (auto fields = journal_.try_replay(units_[i].key)) {
                outcomes_[i].key = units_[i].key;
                outcomes_[i].status = UnitStatus::replayed;
                outcomes_[i].fields = *std::move(fields);
            } else {
                pending_.push_back(i);
            }
        }
        claimed_.assign(pending_.size(), 0);
        deferred_marked_.assign(pending_.size(), 0);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    const int workers =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(config_.jobs),
                                               pending_.size()));
    if (workers <= 1) {
        worker_loop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i) {
            pool.emplace_back([this] { worker_loop(); });
        }
        for (auto& thread : pool) {
            thread.join();
        }
    }
    wall_seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  wall_start)
                        .count();

    // The workers have joined (happens-before), so outcomes_ is stable: fold
    // the admission-control deferral marks into it (run_unit assigns outcome
    // slots wholesale, so the flag is applied here, not in the scheduler) and
    // mirror the per-status tallies into the process-wide registry.
    for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
        if (deferred_marked_[slot] != 0) {
            outcomes_[pending_[slot]].deferred = true;
        }
    }
    auto& registry = util::metrics();
    for (const auto& outcome : outcomes_) {
        switch (outcome.status) {
        case UnitStatus::ok: registry.counter("fptc_executor_executed_total").add(1); break;
        case UnitStatus::replayed: registry.counter("fptc_executor_replayed_total").add(1); break;
        case UnitStatus::degraded: registry.counter("fptc_executor_degraded_total").add(1); break;
        case UnitStatus::cancelled:
            registry.counter("fptc_executor_cancelled_total").add(1);
            break;
        }
    }

    // Surface the resource-governance counters: a journal record for
    // post-mortems (the replay path only looks up unit keys, so the reserved
    // key is inert on resume) and a stderr line for live runs.  Peak bytes
    // are scheduling-dependent with FPTC_JOBS > 1, so they never go to
    // stdout.  The record reads from the metrics registry — the same
    // instruments FPTC_METRICS exports — after publishing the accountant's
    // current state into it.
    util::publish_membudget_metrics();
    const auto& budget = util::mem_budget();
    if (executed() > 0 || degraded() > 0) {
        // Skipped for campaigns cancelled before any unit committed: a
        // cancelled campaign must leave no journal trace at all.
        journal_.commit(
            "__membudget__",
            {{"peak_bytes",
              std::to_string(registry.gauge("fptc_membudget_peak_bytes").value())},
             {"budget_bytes",
              std::to_string(registry.gauge("fptc_membudget_budget_bytes").value())},
             {"rejections",
              std::to_string(registry.counter("fptc_membudget_rejections_total").value())},
             {"deferred", std::to_string(deferred_units())},
             {"shrunk", std::to_string(shrunk_units())}});
    }
    util::log_info("executor[" + campaign_ + "]: mem " + budget.summary() + " deferred=" +
                   std::to_string(deferred_units()) + " shrunk=" + std::to_string(shrunk_units()));

    // Cooperative shutdown: leave a final journal record describing how far
    // the campaign got, flush every telemetry sink, and exit with the
    // conventional status — callers never see half-aggregated tables.
    const int shutdown_signum = util::shutdown_signal();
    if (shutdown_signum != 0) {
        journal_.commit("__shutdown__",
                        {{"signal", std::to_string(shutdown_signum)},
                         {"completed", std::to_string(executed() + resumed())},
                         {"degraded", std::to_string(degraded())},
                         {"units", std::to_string(units_.size())}});
    }

    // Campaign finished: export trace/metrics/profile so a long-running bench
    // binary leaves artifacts per campaign (the atexit hook re-exports the
    // final cumulative state).
    util::telemetry_flush();

    if (shutdown_signum != 0) {
        util::log_info("executor[" + campaign_ + "]: shutdown on signal " +
                       std::to_string(shutdown_signum) + "; journal and telemetry flushed, "
                       "exiting " +
                       std::to_string(util::shutdown_exit_code(shutdown_signum)));
        std::exit(util::shutdown_exit_code(shutdown_signum));
    }
}

std::size_t CampaignExecutor::executed() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.status == UnitStatus::ok ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::resumed() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.status == UnitStatus::replayed ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::degraded() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.status == UnitStatus::degraded ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::retried_units() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.unit_retries > 0 ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::deferred_units() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.deferred ? 1 : 0;
    }
    return count;
}

std::size_t CampaignExecutor::shrunk_units() const noexcept
{
    std::size_t count = 0;
    for (const auto& outcome : outcomes_) {
        count += outcome.shrinks > 0 ? 1 : 0;
    }
    return count;
}

std::string CampaignExecutor::summary() const
{
    std::size_t cancelled = 0;
    for (const auto& outcome : outcomes_) {
        if (outcome.status == UnitStatus::cancelled) {
            ++cancelled;
        }
    }
    std::ostringstream out;
    out << "executor[" << campaign_ << "]: " << units_.size() << " unit(s): " << executed()
        << " executed, " << resumed() << " resumed, " << retried_units() << " retried, "
        << degraded() << " degraded";
    // Resource-governance counters appear only when they fired, so the line
    // is unchanged for unconstrained runs.
    if (shrunk_units() > 0) {
        out << ", " << shrunk_units() << " shrunk";
    }
    if (deferred_units() > 0) {
        out << ", " << deferred_units() << " deferred";
    }
    if (cancelled > 0) {
        out << ", " << cancelled << " cancelled";
    }
    return out.str();
}

std::string CampaignExecutor::timing_summary() const
{
    // Busy time folds per-unit wall time in submission order — the same
    // summation order the old accumulating member used, so the rendered
    // value is bit-identical for a given set of outcomes.
    double busy_seconds = 0.0;
    for (const auto& outcome : outcomes_) {
        busy_seconds += outcome.busy_seconds;
    }
    std::ostringstream out;
    out << "executor[" << campaign_ << "]: " << config_.jobs << " worker(s), wall "
        << wall_seconds_ << "s";
    if (wall_seconds_ > 0.0 && busy_seconds > 0.0) {
        out << ", busy " << busy_seconds << "s, speedup "
            << busy_seconds / wall_seconds_ << "x";
    }
    return out.str();
}

} // namespace fptc::core

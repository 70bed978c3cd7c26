// Tests of the supervised campaign executor: cancellation tokens, the
// watchdog deadline, transient retry with deterministic backoff, graceful
// degradation, bit-identical results across worker counts, journal resume
// under parallel execution and the thread safety of the run journal.
#include "fptc/core/executor.hpp"
#include "fptc/core/guard.hpp"
#include "fptc/core/trainer.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/util/cancel.hpp"
#include "fptc/util/durable.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace fptc;
using namespace fptc::core;

class TempFile {
public:
    explicit TempFile(const std::string& name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

/// Reset the process-wide injector after tests that arm it.
struct InjectorReset {
    ~InjectorReset() { util::fault_injector().configure(util::FaultPlan{}); }
};

/// Deterministic synthetic unit: fields derived only from the key.
CampaignExecutor::UnitFn synthetic_unit(const std::string& key)
{
    return [key](const UnitContext& ctx) {
        ctx.cancel.poll();
        std::uint64_t hash = 1469598103934665603ULL;
        for (const unsigned char c : key) {
            hash = (hash ^ c) * 1099511628211ULL;
        }
        return std::map<std::string, std::string>{
            {"value", std::to_string(hash % 100000)},
            {"key_len", std::to_string(key.size())}};
    };
}

ExecutorConfig quick_config(int jobs)
{
    ExecutorConfig config;
    config.jobs = jobs;
    config.unit_retries = 2;
    config.backoff_base_ms = 0.1;  // keep retry tests fast
    return config;
}

TEST(CancelToken, PollIsIdleUntilTripped)
{
    util::CancelToken token;
    EXPECT_NO_THROW(token.poll());
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.poll(), util::CancelledError);
}

TEST(CancelToken, FirstKindWins)
{
    util::CancelToken token;
    token.cancel(util::CancelKind::timeout);
    token.cancel(util::CancelKind::cancelled);
    EXPECT_EQ(token.state(), util::CancelKind::timeout);
}

TEST(CancelToken, DeadlinePromotesToTimeout)
{
    util::CancelToken token;
    token.set_timeout(0.01);
    EXPECT_NO_THROW(token.poll());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    try {
        token.poll();
        FAIL() << "expired deadline must throw";
    } catch (const util::CancelledError& error) {
        EXPECT_EQ(error.kind(), util::CancelKind::timeout);
    }
}

TEST(CancelToken, ParentTripReachesChild)
{
    util::CancelToken parent;
    util::CancelToken child;
    child.set_parent(&parent);
    EXPECT_FALSE(child.cancelled());
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    try {
        child.poll();
        FAIL() << "tripped parent must cancel the child";
    } catch (const util::CancelledError& error) {
        EXPECT_EQ(error.kind(), util::CancelKind::cancelled);
    }
}

TEST(Backoff, DeterministicAndBounded)
{
    ExecutorConfig config;
    config.backoff_base_ms = 50.0;
    config.backoff_max_ms = 400.0;
    const std::string key = "res=32|aug=rotate|split=0|seed=1";

    EXPECT_EQ(backoff_delay_ms(config, key, 0), 0.0);
    double previous_nominal = 0.0;
    for (int retry = 1; retry <= 6; ++retry) {
        const double delay = backoff_delay_ms(config, key, retry);
        // Pure in (config, key, retry): recomputation is bit-identical.
        EXPECT_EQ(delay, backoff_delay_ms(config, key, retry));
        const double nominal = std::min(config.backoff_max_ms, 50.0 * (1 << (retry - 1)));
        EXPECT_GE(delay, 0.5 * nominal);
        EXPECT_LE(delay, config.backoff_max_ms);
        EXPECT_GE(nominal, previous_nominal);
        previous_nominal = nominal;
    }
    // Different keys draw from different jitter streams.
    EXPECT_NE(backoff_delay_ms(config, key, 1), backoff_delay_ms(config, "other-key", 1));
}

TEST(ExceptionTaxonomy, ClassifiesKnownTypes)
{
    EXPECT_EQ(classify_exception(UnitError(ErrorClass::transient, "x")), ErrorClass::transient);
    EXPECT_EQ(classify_exception(UnitError(ErrorClass::fatal, "x")), ErrorClass::fatal);
    EXPECT_EQ(classify_exception(util::CancelledError(util::CancelKind::timeout, "x")),
              ErrorClass::timeout);
    EXPECT_EQ(classify_exception(util::CancelledError(util::CancelKind::cancelled, "x")),
              ErrorClass::cancelled);
    EXPECT_EQ(classify_exception(DivergenceError("diverged")), ErrorClass::fatal);
    EXPECT_EQ(classify_exception(std::bad_alloc{}), ErrorClass::transient);
    EXPECT_EQ(classify_exception(std::runtime_error("boom")), ErrorClass::fatal);
    // Durable-I/O failures carry their own transient hint (ENOSPC vs bad
    // path): the executor must retry the former and degrade on the latter.
    EXPECT_EQ(classify_exception(util::IoError("disk full", /*transient=*/true)),
              ErrorClass::transient);
    EXPECT_EQ(classify_exception(util::IoError("bad path", /*transient=*/false)),
              ErrorClass::fatal);
    // Memory-budget refusals follow the same pattern: concurrent pressure is
    // transient (and earns a shrink retry), a structurally oversized unit is
    // not.
    EXPECT_EQ(classify_exception(util::BudgetExceeded("x", 10, 5, /*transient=*/true)),
              ErrorClass::transient);
    EXPECT_EQ(classify_exception(util::BudgetExceeded("x", 10, 5, /*transient=*/false)),
              ErrorClass::fatal);
}

TEST(Executor, ResultsAreIdenticalAcrossWorkerCounts)
{
    std::vector<std::vector<std::map<std::string, std::string>>> per_jobs;
    for (const int jobs : {1, 2, 4}) {
        CampaignExecutor executor("exec-test", quick_config(jobs));
        for (int i = 0; i < 12; ++i) {
            const std::string key = "unit=" + std::to_string(i);
            executor.submit(key, synthetic_unit(key));
        }
        executor.run_all();
        EXPECT_EQ(executor.executed(), 12u);
        EXPECT_EQ(executor.degraded(), 0u);
        std::vector<std::map<std::string, std::string>> fields;
        for (const auto& outcome : executor.outcomes()) {
            EXPECT_EQ(outcome.status, UnitStatus::ok);
            fields.push_back(outcome.fields);
        }
        per_jobs.push_back(std::move(fields));
    }
    EXPECT_EQ(per_jobs[0], per_jobs[1]);
    EXPECT_EQ(per_jobs[0], per_jobs[2]);
}

TEST(Executor, WatchdogKillsInjectedStall)
{
    InjectorReset reset;
    util::FaultPlan plan;
    plan.stall_units = 1;
    util::fault_injector().configure(plan);

    auto config = quick_config(1);
    config.unit_timeout_s = 0.05;
    CampaignExecutor executor("exec-stall", config);
    executor.submit("stalled", synthetic_unit("stalled"));
    executor.submit("healthy", synthetic_unit("healthy"));
    executor.run_all();

    const auto& stalled = executor.outcome(0);
    EXPECT_EQ(stalled.status, UnitStatus::degraded);
    EXPECT_EQ(stalled.final_error, ErrorClass::timeout);
    EXPECT_EQ(stalled.attempts, 1);  // timeouts are not retried
    ASSERT_EQ(stalled.error_chain.size(), 1u);
    EXPECT_NE(stalled.error_chain[0].find("timeout"), std::string::npos);

    EXPECT_EQ(executor.outcome(1).status, UnitStatus::ok);
    EXPECT_EQ(executor.degraded(), 1u);
    EXPECT_EQ(util::fault_injector().counters().stalled_units, 1u);
}

TEST(Executor, TransientFailuresRetryWithBackoff)
{
    InjectorReset reset;
    util::FaultPlan plan;
    plan.transient_units = 2;  // first two executions fail, third succeeds
    util::fault_injector().configure(plan);

    CampaignExecutor executor("exec-retry", quick_config(1));
    executor.submit("retried", synthetic_unit("retried"));
    executor.run_all();

    const auto& outcome = executor.outcome(0);
    EXPECT_EQ(outcome.status, UnitStatus::ok);
    EXPECT_EQ(outcome.attempts, 3);
    EXPECT_EQ(outcome.unit_retries, 2);
    ASSERT_EQ(outcome.error_chain.size(), 2u);
    EXPECT_EQ(outcome.error_chain[0], "transient: injected transient fault");
    EXPECT_EQ(executor.retried_units(), 1u);
    EXPECT_EQ(executor.degraded(), 0u);
    EXPECT_EQ(util::fault_injector().counters().transient_units, 2u);
}

TEST(Executor, ExhaustedBudgetDegradesWithoutAborting)
{
    auto config = quick_config(1);
    config.unit_retries = 1;
    CampaignExecutor executor("exec-degrade", config);
    executor.submit("doomed", [](const UnitContext&) -> std::map<std::string, std::string> {
        throw UnitError(ErrorClass::transient, "always failing");
    });
    executor.submit("healthy", synthetic_unit("healthy"));
    executor.run_all();

    const auto& doomed = executor.outcome(0);
    EXPECT_EQ(doomed.status, UnitStatus::degraded);
    EXPECT_EQ(doomed.attempts, 2);
    EXPECT_EQ(doomed.unit_retries, 1);
    ASSERT_EQ(doomed.error_chain.size(), 2u);  // full chain, one entry per attempt
    EXPECT_EQ(doomed.final_error, ErrorClass::transient);
    EXPECT_FALSE(doomed.succeeded());

    EXPECT_EQ(executor.outcome(1).status, UnitStatus::ok);
    EXPECT_NE(executor.summary().find("1 degraded"), std::string::npos);
}

TEST(Executor, FatalErrorsAreNotRetried)
{
    CampaignExecutor executor("exec-fatal", quick_config(1));
    executor.submit("fatal", [](const UnitContext&) -> std::map<std::string, std::string> {
        throw std::runtime_error("deterministic failure");
    });
    executor.run_all();

    const auto& outcome = executor.outcome(0);
    EXPECT_EQ(outcome.status, UnitStatus::degraded);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_EQ(outcome.final_error, ErrorClass::fatal);
}

TEST(Executor, EpochAndUnitRetriesAreCountedSeparately)
{
    InjectorReset reset;
    util::FaultPlan plan;
    plan.transient_units = 1;
    util::fault_injector().configure(plan);

    CampaignExecutor executor("exec-accounting", quick_config(1));
    // The unit reports 2 epoch-level rollback retries (as a TrainResult
    // would); the executor adds 1 unit-level re-execution on top.  The two
    // counters must never be folded together.
    executor.submit("unit", [](const UnitContext&) {
        return std::map<std::string, std::string>{{"retries", "2"}};
    });
    executor.run_all();

    const auto& outcome = executor.outcome(0);
    EXPECT_EQ(outcome.status, UnitStatus::ok);
    EXPECT_EQ(outcome.fields.at("retries"), "2");  // epoch-level, from the run
    EXPECT_EQ(outcome.unit_retries, 1);            // executor-level, separate
}

TEST(Executor, CancellationLeavesNoJournalRecord)
{
    TempFile file("fptc_test_exec_cancel.jsonl");
    ::setenv("FPTC_JOURNAL", file.path().c_str(), 1);

    CampaignExecutor executor("exec-cancel", quick_config(1));
    executor.submit("first", [&executor](const UnitContext& ctx)
                        -> std::map<std::string, std::string> {
        executor.cancel_all();
        ctx.cancel.poll();  // unwinds before any fields are produced
        return {};
    });
    executor.submit("second", synthetic_unit("second"));
    executor.run_all();
    ::unsetenv("FPTC_JOURNAL");

    EXPECT_EQ(executor.outcome(0).status, UnitStatus::cancelled);
    EXPECT_EQ(executor.outcome(1).status, UnitStatus::cancelled);
    EXPECT_EQ(executor.executed(), 0u);
    EXPECT_NE(executor.summary().find("2 cancelled"), std::string::npos);

    util::RunJournal journal(file.path());
    EXPECT_EQ(journal.size(), 0u);  // no partial commits from cancelled units
}

TEST(Executor, CancellationUnwindsTrainingMidEpoch)
{
    const auto train = [] {
        util::Rng rng(7);
        SampleSet set;
        set.dim = 32;
        for (std::size_t label = 0; label < 2; ++label) {
            for (int i = 0; i < 10; ++i) {
                std::vector<float> image(32 * 32, 0.0f);
                image[label == 0 ? 0 : 1023] = 1.0f;
                set.images.push_back(std::move(image));
                set.labels.push_back(label);
            }
        }
        return set;
    }();

    nn::ModelConfig model_config;
    model_config.num_classes = 2;
    auto network = nn::make_supervised_network(model_config);

    util::CancelToken token;
    token.cancel(util::CancelKind::timeout);
    TrainConfig config;
    config.max_epochs = 5;
    config.hooks.cancel = &token;
    EXPECT_THROW(train_supervised(network, train, train, config), util::CancelledError);
}

TEST(Executor, JournalResumeUnderParallelExecutionIsIdentical)
{
    TempFile file("fptc_test_exec_resume.jsonl");
    ::setenv("FPTC_JOURNAL", file.path().c_str(), 1);

    std::vector<std::string> keys;
    for (int i = 0; i < 8; ++i) {
        keys.push_back("unit=" + std::to_string(i));
    }

    std::vector<std::map<std::string, std::string>> first_fields;
    {
        CampaignExecutor executor("exec-resume", quick_config(4));
        for (const auto& key : keys) {
            executor.submit(key, synthetic_unit(key));
        }
        executor.run_all();
        EXPECT_EQ(executor.executed(), 8u);
        EXPECT_EQ(executor.resumed(), 0u);
        for (const auto& outcome : executor.outcomes()) {
            first_fields.push_back(outcome.fields);
        }
    }
    {
        CampaignExecutor executor("exec-resume", quick_config(2));
        for (const auto& key : keys) {
            executor.submit(key, [](const UnitContext&)
                                     -> std::map<std::string, std::string> {
                ADD_FAILURE() << "resumed unit must not re-execute";
                return {};
            });
        }
        executor.run_all();
        ::unsetenv("FPTC_JOURNAL");
        EXPECT_EQ(executor.executed(), 0u);
        EXPECT_EQ(executor.resumed(), 8u);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            EXPECT_EQ(executor.outcome(i).status, UnitStatus::replayed);
            EXPECT_EQ(executor.outcome(i).fields, first_fields[i]);
        }
    }
}

TEST(Executor, ConfigComesFromEnvironment)
{
    ::setenv("FPTC_JOBS", "4", 1);
    ::setenv("FPTC_UNIT_TIMEOUT_S", "1.5", 1);
    ::setenv("FPTC_UNIT_RETRIES", "3", 1);
    ::setenv("FPTC_UNIT_BACKOFF_MS", "25", 1);
    const auto config = executor_config_from_env();
    ::unsetenv("FPTC_JOBS");
    ::unsetenv("FPTC_UNIT_TIMEOUT_S");
    ::unsetenv("FPTC_UNIT_RETRIES");
    ::unsetenv("FPTC_UNIT_BACKOFF_MS");
    EXPECT_EQ(config.jobs, 4);
    EXPECT_DOUBLE_EQ(config.unit_timeout_s, 1.5);
    EXPECT_EQ(config.unit_retries, 3);
    EXPECT_DOUBLE_EQ(config.backoff_base_ms, 25.0);

    const auto defaults = executor_config_from_env();
    EXPECT_EQ(defaults.jobs, 1);  // default preserves sequential seed behaviour
    EXPECT_DOUBLE_EQ(defaults.unit_timeout_s, 0.0);
}

TEST(Executor, AdmissionDefersUnitsThatExceedRemainingBudget)
{
    auto config = quick_config(2);
    config.mem_budget_bytes = 1 << 20;  // 1 MiB: only one 700 KiB unit fits
    CampaignExecutor executor("exec-admission", config);
    for (int i = 0; i < 3; ++i) {
        const std::string key = "unit=" + std::to_string(i);
        executor.submit(key, [key](const UnitContext& ctx) {
            ctx.cancel.poll();
            // Long enough that both workers overlap and the second one must
            // observe the first unit's outstanding estimate.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::map<std::string, std::string>{{"key", key}};
        }, 700 * 1024);
    }
    executor.run_all();

    EXPECT_EQ(executor.executed(), 3u);
    EXPECT_EQ(executor.degraded(), 0u);
    // With two workers and room for only one unit at a time, at least one
    // unit had to wait for memory at least once.
    EXPECT_GE(executor.deferred_units(), 1u);
    EXPECT_NE(executor.summary().find("deferred"), std::string::npos);
}

TEST(Executor, IdlePoolAdmitsOversizedEstimate)
{
    auto config = quick_config(1);
    config.mem_budget_bytes = 1 << 20;
    CampaignExecutor executor("exec-oversized", config);
    // Estimate 10x the budget: with nothing running there is nothing to wait
    // for, so the unit must be admitted instead of deadlocking the pool.
    executor.submit("huge", synthetic_unit("huge"), 10 << 20);
    executor.run_all();

    EXPECT_EQ(executor.executed(), 1u);
    EXPECT_EQ(executor.outcome(0).status, UnitStatus::ok);
    EXPECT_EQ(executor.deferred_units(), 0u);
}

TEST(Executor, BudgetExceededEarnsOneShrinkRetryAtHalfBatch)
{
    CampaignExecutor executor("exec-shrink", quick_config(1));
    executor.submit("shrinks", [](const UnitContext& ctx) {
        if (ctx.shrink == 0) {
            throw util::BudgetExceeded("simulated pressure", 1 << 20, 0);
        }
        return std::map<std::string, std::string>{
            {"batch", std::to_string(ctx.batch(32))}};
    });
    executor.run_all();

    const auto& outcome = executor.outcome(0);
    EXPECT_EQ(outcome.status, UnitStatus::ok);
    EXPECT_EQ(outcome.shrinks, 1);
    EXPECT_EQ(outcome.fields.at("batch"), "16");  // ctx.batch halves once
    // The shrink retry is the mitigation, not a wait: it consumes neither the
    // transient retry budget nor a backoff delay.
    EXPECT_EQ(outcome.attempts, 2);
    EXPECT_EQ(outcome.unit_retries, 0);
    EXPECT_EQ(executor.shrunk_units(), 1u);
    EXPECT_NE(executor.summary().find("1 shrunk"), std::string::npos);
}

TEST(Executor, ShrinkRetryNeverFloorsBatchBelowOne)
{
    util::CancelToken token;
    const UnitContext ctx0{token, 0};
    const UnitContext ctx1{token, 1};
    EXPECT_EQ(ctx0.batch(32), 32u);
    EXPECT_EQ(ctx1.batch(32), 16u);
    EXPECT_EQ(ctx1.batch(1), 1u);  // never 0
}

TEST(Executor, AllocFailUnitsIsDeterministicAcrossWorkerCounts)
{
    InjectorReset reset;
    std::vector<std::vector<std::map<std::string, std::string>>> per_jobs;
    for (const int jobs : {1, 2, 4}) {
        util::FaultPlan plan;
        plan.alloc_fail_units = 2;  // the first two *submitted* units
        util::fault_injector().configure(plan);

        CampaignExecutor executor("exec-alloc-units", quick_config(jobs));
        for (int i = 0; i < 6; ++i) {
            const std::string key = "unit=" + std::to_string(i);
            executor.submit(key, [key](const UnitContext& ctx) {
                return std::map<std::string, std::string>{
                    {"batch", std::to_string(ctx.batch(32))}, {"key", key}};
            });
        }
        executor.run_all();

        // Targeting is by submission index, not execution order: exactly the
        // first two units shrink, for every worker count.
        EXPECT_EQ(executor.executed(), 6u);
        EXPECT_EQ(executor.degraded(), 0u);
        EXPECT_EQ(executor.shrunk_units(), 2u);
        EXPECT_EQ(executor.outcome(0).shrinks, 1);
        EXPECT_EQ(executor.outcome(1).shrinks, 1);
        EXPECT_EQ(executor.outcome(2).shrinks, 0);
        EXPECT_EQ(util::fault_injector().counters().alloc_unit_failures, 2u);
        std::vector<std::map<std::string, std::string>> fields;
        for (const auto& outcome : executor.outcomes()) {
            fields.push_back(outcome.fields);
        }
        per_jobs.push_back(std::move(fields));
    }
    EXPECT_EQ(per_jobs[0], per_jobs[1]);
    EXPECT_EQ(per_jobs[0], per_jobs[2]);
}

TEST(Executor, AllocFailAfterMbScopesBytesPerUnitAttempt)
{
    InjectorReset reset;
    std::vector<std::vector<std::map<std::string, std::string>>> per_jobs;
    for (const int jobs : {1, 2}) {
        util::FaultPlan plan;
        plan.alloc_fail_after_mb = 1;  // refuse past 1 MiB of charges per attempt
        util::fault_injector().configure(plan);

        CampaignExecutor executor("exec-alloc-mb", quick_config(jobs));
        for (int i = 0; i < 3; ++i) {
            const std::string key = "unit=" + std::to_string(i);
            // Charge batch * 4 KiB: 2 MiB at the nominal batch of 512 (trips
            // the 1 MiB threshold), exactly 1 MiB after one shrink (passes —
            // the refusal point counts only this attempt's own bytes, so the
            // outcome is identical for any FPTC_JOBS).
            executor.submit(key, [key](const UnitContext& ctx) {
                const util::Charge working(ctx.batch(512) * 4096, "test-unit");
                return std::map<std::string, std::string>{
                    {"bytes", std::to_string(working.bytes())}, {"key", key}};
            });
        }
        executor.run_all();

        EXPECT_EQ(executor.executed(), 3u);
        EXPECT_EQ(executor.degraded(), 0u);
        EXPECT_EQ(executor.shrunk_units(), 3u);  // every unit shrinks exactly once
        for (const auto& outcome : executor.outcomes()) {
            EXPECT_EQ(outcome.shrinks, 1);
            EXPECT_EQ(outcome.fields.at("bytes"), std::to_string(1 << 20));
        }
        EXPECT_GE(util::fault_injector().counters().alloc_rejections, 3u);
        std::vector<std::map<std::string, std::string>> fields;
        for (const auto& outcome : executor.outcomes()) {
            fields.push_back(outcome.fields);
        }
        per_jobs.push_back(std::move(fields));
    }
    EXPECT_EQ(per_jobs[0], per_jobs[1]);
    // Accounting stayed balanced across all the refusals and retries.
    EXPECT_EQ(util::mem_budget().in_use(), 0u);
}

TEST(Executor, FootprintEstimateIsMonotone)
{
    FootprintEstimate small;
    small.samples = 100;
    small.eval_samples = 50;
    const auto base = estimate_unit_bytes(small);
    EXPECT_GT(base, 0u);

    auto more_samples = small;
    more_samples.samples = 200;
    EXPECT_GT(estimate_unit_bytes(more_samples), base);

    auto higher_res = small;
    higher_res.resolution = 64;
    EXPECT_GT(estimate_unit_bytes(higher_res), base);

    auto bigger_batch = small;
    bigger_batch.batch = 64;
    EXPECT_GT(estimate_unit_bytes(bigger_batch), base);

    auto two_channels = small;
    two_channels.channels = 2;
    EXPECT_GT(estimate_unit_bytes(two_channels), base);

    // 1500x1500 rasterizes at native resolution but is stored at the
    // network's pooled input dimension, so the estimate grows far slower
    // than resolution^2.
    auto full_res = small;
    full_res.resolution = 1500;
    EXPECT_GT(estimate_unit_bytes(full_res), base);
}

/// "t<t>|i<i>", built by appends: GCC 12 at -O3 reports a false -Wrestrict
/// on `"t" + std::to_string(t)`.
std::string hammer_key(int t, int i)
{
    std::string key = "t";
    return key.append(std::to_string(t)).append("|i").append(std::to_string(i));
}

TEST(JournalThreadSafety, ConcurrentRecordsNeverTearLines)
{
    TempFile file("fptc_test_journal_hammer.jsonl");
    constexpr int kThreads = 8;
    constexpr int kRecordsPerThread = 50;
    {
        util::RunJournal journal(file.path());
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t) {
            pool.emplace_back([&journal, t] {
                for (int i = 0; i < kRecordsPerThread; ++i) {
                    const std::string key = hammer_key(t, i);
                    journal.record(key, {{"thread", std::to_string(t)},
                                         {"index", std::to_string(i)}});
                }
            });
        }
        for (auto& thread : pool) {
            thread.join();
        }
        EXPECT_EQ(journal.size(), static_cast<std::size_t>(kThreads * kRecordsPerThread));
    }

    util::RunJournal reloaded(file.path());
    EXPECT_EQ(reloaded.discarded_lines(), 0u);  // no interleaved/torn lines
    EXPECT_EQ(reloaded.size(), static_cast<std::size_t>(kThreads * kRecordsPerThread));
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kRecordsPerThread; ++i) {
            const auto fields = reloaded.find_copy(hammer_key(t, i));
            ASSERT_TRUE(fields.has_value());
            EXPECT_EQ(fields->at("thread"), std::to_string(t));
            EXPECT_EQ(fields->at("index"), std::to_string(i));
        }
    }
}

TEST(JournalThreadSafety, CampaignJournalCountersAreConsistent)
{
    TempFile file("fptc_test_campaign_hammer.jsonl");
    ::setenv("FPTC_JOURNAL", file.path().c_str(), 1);
    util::CampaignJournal journal("hammer");
    ::unsetenv("FPTC_JOURNAL");

    constexpr int kThreads = 8;
    constexpr int kUnitsPerThread = 25;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&journal, t] {
            for (int i = 0; i < kUnitsPerThread; ++i) {
                const std::string key = hammer_key(t, i);
                journal.commit(key, {{"v", std::to_string(i)}});
                const auto replay = journal.try_replay(key);
                EXPECT_TRUE(replay.has_value());
            }
        });
    }
    for (auto& thread : pool) {
        thread.join();
    }
    EXPECT_EQ(journal.executed(), static_cast<std::size_t>(kThreads * kUnitsPerThread));
    EXPECT_EQ(journal.replayed(), static_cast<std::size_t>(kThreads * kUnitsPerThread));
}

// The tallies behind summary()/timing_summary() are now derived from the
// recorded outcomes instead of private accumulating members; these tests pin
// the rendered strings across that refactor.

TEST(ExecutorSummary, EmptyCampaignRendersAllZeroes)
{
    CampaignExecutor executor("exec-empty", quick_config(2));
    executor.run_all();
    EXPECT_EQ(executor.summary(),
              "executor[exec-empty]: 0 unit(s): 0 executed, 0 resumed, 0 retried, 0 degraded");
    EXPECT_EQ(executor.executed(), 0u);
    EXPECT_EQ(executor.resumed(), 0u);
    EXPECT_EQ(executor.retried_units(), 0u);
    EXPECT_EQ(executor.degraded(), 0u);
    EXPECT_EQ(executor.deferred_units(), 0u);
    EXPECT_EQ(executor.shrunk_units(), 0u);
    EXPECT_NE(executor.timing_summary().find("2 worker(s), wall"), std::string::npos);
}

TEST(ExecutorSummary, AllDegradedCampaignCountsEveryUnit)
{
    auto config = quick_config(1);
    config.unit_retries = 0;
    CampaignExecutor executor("exec-all-degraded", config);
    for (int i = 0; i < 3; ++i) {
        executor.submit("doomed=" + std::to_string(i),
                        [](const UnitContext&) -> std::map<std::string, std::string> {
                            throw UnitError(ErrorClass::transient, "always failing");
                        });
    }
    executor.run_all();
    EXPECT_EQ(executor.summary(),
              "executor[exec-all-degraded]: 3 unit(s): 0 executed, 0 resumed, 0 retried, "
              "3 degraded");
    EXPECT_EQ(executor.executed(), 0u);
    EXPECT_EQ(executor.degraded(), 3u);
}

TEST(ExecutorSummary, RetryHeavyCampaignSeparatesRetriedFromDegraded)
{
    InjectorReset reset;
    util::FaultPlan plan;
    plan.transient_units = 2;  // both retries land on the first unit executed
    util::fault_injector().configure(plan);

    CampaignExecutor executor("exec-retry-heavy", quick_config(1));
    executor.submit("flaky", synthetic_unit("flaky"));
    executor.submit("steady", synthetic_unit("steady"));
    executor.run_all();

    EXPECT_EQ(executor.summary(),
              "executor[exec-retry-heavy]: 2 unit(s): 2 executed, 0 resumed, 1 retried, "
              "0 degraded");
    EXPECT_EQ(executor.retried_units(), 1u);
    const std::string timing = executor.timing_summary();
    EXPECT_NE(timing.find("executor[exec-retry-heavy]: 1 worker(s), wall"),
              std::string::npos);
    EXPECT_NE(timing.find("busy"), std::string::npos);
}

} // namespace

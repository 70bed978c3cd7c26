// Streaming-serve unit tests: queue semantics, ingest validation, flow
// table windowing/eviction/accounting, circuit-breaker ladder, end-to-end
// service runs under each fault class, and the live status export.

#include "fptc/serve/backend.hpp"
#include "fptc/serve/breaker.hpp"
#include "fptc/serve/event.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/flow_table.hpp"
#include "fptc/serve/queue.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/stream.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/telemetry.hpp"

#include "fptc/util/env.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace fptc;
using namespace std::chrono_literals;

namespace {

serve::PacketEvent make_event(std::uint64_t flow_id, double ts, double size = 100.0)
{
    return serve::PacketEvent{.flow_id = flow_id, .label = 0, .timestamp = ts, .size = size};
}

/// Reconfigure the process-wide injector and restore inertness on scope exit.
struct FaultGuard {
    explicit FaultGuard(const util::FaultPlan& plan) { util::fault_injector().configure(plan); }
    ~FaultGuard() { util::fault_injector().configure(util::FaultPlan{}); }
};

} // namespace

// ---------------------------------------------------------------------------
// event validation
// ---------------------------------------------------------------------------

TEST(ServeEvent, AcceptsWellFormedEvent)
{
    EXPECT_EQ(serve::validate(make_event(1, 0.5)), nullptr);
    EXPECT_EQ(serve::validate(make_event(7, 0.0, 1500.0)), nullptr);
}

TEST(ServeEvent, RejectsMalformedEvents)
{
    EXPECT_STREQ(serve::validate(make_event(0, 0.5)), "no_flow_id");
    EXPECT_STREQ(serve::validate(make_event(1, std::nan(""))), "nan_timestamp");
    EXPECT_STREQ(serve::validate(make_event(1, -0.1)), "negative_timestamp");
    EXPECT_STREQ(serve::validate(make_event(1, 0.5, -42.0)), "bad_size");
    EXPECT_STREQ(serve::validate(make_event(1, 0.5, 1e9)), "bad_size");
    EXPECT_STREQ(serve::validate(make_event(1, 0.5, 0.0)), "bad_size");
    auto inf_ts = make_event(1, std::numeric_limits<double>::infinity());
    EXPECT_STREQ(serve::validate(inf_ts), "nan_timestamp");
}

// ---------------------------------------------------------------------------
// bounded queue
// ---------------------------------------------------------------------------

TEST(ServeQueue, TryPushRefusesWhenFull)
{
    serve::BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.try_push(1));
    EXPECT_TRUE(queue.try_push(2));
    EXPECT_FALSE(queue.try_push(3));
    EXPECT_EQ(queue.pop(0ms).value(), 1);
    EXPECT_TRUE(queue.try_push(3));
}

TEST(ServeQueue, CloseDrainsThenRefuses)
{
    serve::BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.try_push(1));
    queue.close();
    EXPECT_FALSE(queue.try_push(2));
    EXPECT_EQ(queue.pop(0ms).value(), 1);
    EXPECT_FALSE(queue.pop(0ms).has_value());  // closed + drained: immediate
}

TEST(ServeQueue, DrainTakesUpToMax)
{
    serve::BoundedQueue<int> queue(8);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(queue.try_push(i));
    }
    std::vector<int> out;
    EXPECT_EQ(queue.drain(out, 3, 0ms), 3u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(queue.size(), 2u);
}

TEST(ServeQueue, PushWaitSucceedsWhenConsumerDrains)
{
    serve::BoundedQueue<int> queue(1);
    ASSERT_TRUE(queue.try_push(1));
    std::thread consumer([&] {
        std::this_thread::sleep_for(20ms);
        (void)queue.pop(1000ms);
    });
    EXPECT_TRUE(queue.push_wait(2, 2000ms));
    consumer.join();
    EXPECT_EQ(queue.pop(0ms).value(), 2);
}

TEST(ServeQueue, PushWaitTimesOutWhenStuckFull)
{
    serve::BoundedQueue<int> queue(1);
    ASSERT_TRUE(queue.try_push(1));
    EXPECT_FALSE(queue.push_wait(2, 10ms));
}

// ---------------------------------------------------------------------------
// flow table
// ---------------------------------------------------------------------------

TEST(ServeFlowTable, WindowClosesInStreamTime)
{
    serve::FlowTable table(1 << 20, 15.0);
    ASSERT_TRUE(table.add_packet(make_event(1, 0.0)).new_flow);
    ASSERT_TRUE(table.add_packet(make_event(2, 5.0)).new_flow);
    ASSERT_TRUE(table.add_packet(make_event(1, 6.0)).admitted);

    EXPECT_TRUE(table.pop_ready(14.9).empty());
    auto ready = table.pop_ready(15.0);  // flow 1 closed (first_ts 0), flow 2 not
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].flow_id, 1u);
    EXPECT_EQ(ready[0].flow.packets.size(), 2u);
    EXPECT_EQ(table.size(), 1u);

    ready = table.pop_ready(20.0);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].flow_id, 2u);
    EXPECT_EQ(table.size(), 0u);
}

TEST(ServeFlowTable, FlushReleasesEverything)
{
    serve::FlowTable table(1 << 20, 15.0);
    ASSERT_TRUE(table.add_packet(make_event(1, 0.0)).admitted);
    ASSERT_TRUE(table.add_packet(make_event(2, 1.0)).admitted);
    EXPECT_EQ(table.flush_all().size(), 2u);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.bytes(), 0u);
}

TEST(ServeFlowTable, EvictsLeastRecentlyActiveUnderPressure)
{
    // Cap fits two flows plus a little; the third admission evicts the
    // least recently *active* flow.
    const std::size_t cap = 2 * (serve::FlowTable::kFlowOverhead + serve::FlowTable::kPacketCost) +
                            serve::FlowTable::kFlowOverhead;
    serve::FlowTable table(cap + serve::FlowTable::kPacketCost, 15.0);
    ASSERT_TRUE(table.add_packet(make_event(1, 0.0)).new_flow);
    ASSERT_TRUE(table.add_packet(make_event(2, 0.1)).new_flow);
    ASSERT_TRUE(table.add_packet(make_event(1, 0.2)).admitted);  // touch flow 1

    const auto outcome = table.add_packet(make_event(3, 0.3));
    EXPECT_TRUE(outcome.new_flow);
    EXPECT_EQ(outcome.evicted, 1u);  // flow 2 was coldest
    EXPECT_EQ(table.evictions(), 1u);
    EXPECT_EQ(table.size(), 2u);

    auto ready = table.flush_all();
    std::vector<std::uint64_t> ids;
    for (const auto& flow : ready) {
        ids.push_back(flow.flow_id);
    }
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
}

TEST(ServeFlowTable, BalancesMemBudgetCharges)
{
    const std::size_t before = util::mem_budget().in_use();
    {
        serve::FlowTable table(1 << 20, 15.0);
        for (int i = 1; i <= 20; ++i) {
            (void)table.add_packet(make_event(static_cast<std::uint64_t>(i), 0.01 * i));
        }
        EXPECT_GT(util::mem_budget().in_use(), before);
        auto ready = table.pop_ready(100.0);
        EXPECT_EQ(ready.size(), 20u);
        // ReadyFlows still hold their charges until destroyed.
        EXPECT_GT(util::mem_budget().in_use(), before);
    }
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

// ---------------------------------------------------------------------------
// circuit breaker
// ---------------------------------------------------------------------------

TEST(ServeBreaker, DeadlineTripsImmediatelyAndProbeRecovers)
{
    serve::CircuitBreaker breaker({.p99_ms = 100.0, .failure_threshold = 3, .cooldown_batches = 2});
    EXPECT_EQ(breaker.plan_batch(), serve::Tier::full);
    breaker.record_failure(true);
    EXPECT_EQ(breaker.tier(), serve::Tier::reduced);
    EXPECT_EQ(breaker.trips(), 1u);

    // Cooldown: two batches at the degraded tier...
    EXPECT_EQ(breaker.plan_batch(), serve::Tier::reduced);
    breaker.record_success(1.0);
    EXPECT_EQ(breaker.plan_batch(), serve::Tier::reduced);
    breaker.record_success(1.0);
    // ...then a half-open probe one tier up, whose success recovers it.
    EXPECT_EQ(breaker.plan_batch(), serve::Tier::full);
    EXPECT_TRUE(breaker.probing());
    breaker.record_success(1.0);
    EXPECT_EQ(breaker.tier(), serve::Tier::full);
    EXPECT_EQ(breaker.recoveries(), 1u);
}

TEST(ServeBreaker, ConsecutiveFailuresTripAndFailedProbeStaysDegraded)
{
    serve::CircuitBreaker breaker({.p99_ms = 100.0, .failure_threshold = 2, .cooldown_batches = 1});
    breaker.record_failure(false);
    EXPECT_EQ(breaker.tier(), serve::Tier::full);  // below threshold
    breaker.record_failure(false);
    EXPECT_EQ(breaker.tier(), serve::Tier::reduced);

    (void)breaker.plan_batch();  // burns the cooldown
    EXPECT_EQ(breaker.plan_batch(), serve::Tier::full);  // probe
    breaker.record_failure(false);                       // probe fails
    EXPECT_EQ(breaker.tier(), serve::Tier::reduced);
    EXPECT_EQ(breaker.recoveries(), 0u);
}

TEST(ServeBreaker, LadderBottomsOutAtShed)
{
    serve::CircuitBreaker breaker({.p99_ms = 100.0, .failure_threshold = 1, .cooldown_batches = 99});
    for (int i = 0; i < 5; ++i) {
        breaker.record_failure(true);
    }
    EXPECT_EQ(breaker.tier(), serve::Tier::shed);
    EXPECT_EQ(breaker.trips(), 3u);  // full->reduced->fallback->shed
}

TEST(ServeBreaker, LatencyP99Trips)
{
    serve::CircuitBreaker breaker({.p99_ms = 50.0, .failure_threshold = 3, .cooldown_batches = 4});
    for (std::size_t i = 0; i < serve::CircuitBreaker::kMinSamples; ++i) {
        breaker.record_success(200.0);
    }
    EXPECT_EQ(breaker.tier(), serve::Tier::reduced);
    EXPECT_EQ(breaker.trips(), 1u);
}

// ---------------------------------------------------------------------------
// stream + end-to-end service
// ---------------------------------------------------------------------------

TEST(ServeStream, DeterministicPerSeed)
{
    serve::InterleavedStream a({.flows = 20, .seed = 7});
    serve::InterleavedStream b({.flows = 20, .seed = 7});
    ASSERT_EQ(a.base_events(), b.base_events());
    for (std::size_t i = 0; i < a.base_events(); ++i) {
        const auto ea = a.next();
        const auto eb = b.next();
        ASSERT_TRUE(ea.has_value());
        ASSERT_TRUE(eb.has_value());
        EXPECT_EQ(ea->flow_id, eb->flow_id);
        EXPECT_EQ(ea->timestamp, eb->timestamp);
        EXPECT_EQ(ea->size, eb->size);
    }
}

TEST(ServeStream, EventsAreTimeSortedAndValid)
{
    serve::InterleavedStream stream({.flows = 30, .seed = 3});
    double last = 0.0;
    while (auto event = stream.next()) {
        EXPECT_EQ(serve::validate(*event), nullptr);
        EXPECT_GE(event->timestamp, last);
        last = event->timestamp;
    }
    EXPECT_EQ(stream.flow_count(), 30u);
}

namespace {

/// The fault plan of the faulted-stream tests: every class that acts on the
/// stream is armed.
util::FaultPlan stream_fault_plan()
{
    util::FaultPlan plan;
    plan.seed = 5;
    plan.serve_mangle_percent = 10.0;
    plan.serve_burst = 8;
    return plan;
}

/// Field by field, doubles by their bits (a mangled timestamp is NaN).
bool same_event(const serve::PacketEvent& a, const serve::PacketEvent& b)
{
    return a.flow_id == b.flow_id && a.label == b.label &&
           std::bit_cast<std::uint64_t>(a.timestamp) == std::bit_cast<std::uint64_t>(b.timestamp) &&
           std::bit_cast<std::uint64_t>(a.size) == std::bit_cast<std::uint64_t>(b.size) &&
           a.direction == b.direction && a.flow_end == b.flow_end;
}

} // namespace

TEST(ServeStream, CopyReplaysTheSameFaultedEvents)
{
    const FaultGuard guard(stream_fault_plan());
    serve::InterleavedStream original({.flows = 40, .seed = 11});
    serve::InterleavedStream copy = original;
    std::uint64_t events = 0;
    while (auto event = original.next()) {
        const auto replayed = copy.next();
        ASSERT_TRUE(replayed.has_value()) << "event " << events;
        ASSERT_TRUE(same_event(*event, *replayed)) << "event " << events;
        ++events;
    }
    EXPECT_FALSE(copy.next().has_value());
    EXPECT_GT(original.mangled(), 0u);
    EXPECT_EQ(copy.mangled(), original.mangled());
    EXPECT_GT(events, original.base_events());  // burst clones
}

TEST(ServeStream, FaultedSequenceIsPinned)
{
    // FNV-1a over every field of every event as next() emits them, with
    // mangle 10% and burst 8 armed.  The values pin the faulted sequence:
    // per base event the burst draw, then the mangle draw, from the
    // injector's seeded stream (CHANGES.md says where they were computed).
    const FaultGuard guard(stream_fault_plan());
    serve::InterleavedStream stream({.flows = 40, .seed = 11});
    std::uint64_t hash = 14695981039346656037ULL;
    const auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xFF;
            hash *= 1099511628211ULL;
        }
    };
    std::uint64_t events = 0;
    while (auto event = stream.next()) {
        mix(event->flow_id);
        mix(event->label);
        mix(std::bit_cast<std::uint64_t>(event->timestamp));
        mix(std::bit_cast<std::uint64_t>(event->size));
        mix(static_cast<std::uint64_t>(event->direction));
        mix(event->flow_end ? 1 : 0);
        ++events;
    }
    EXPECT_EQ(hash, 0x563e7d63ea94b6eaULL);
    EXPECT_EQ(events, 23299u);
    EXPECT_EQ(stream.base_events(), 20715u);
    EXPECT_EQ(stream.mangled(), 2076u);
    EXPECT_EQ(stream.events_emitted(), events);
}

TEST(ServeStream, TakeContinuesWhereNextWould)
{
    const FaultGuard guard(stream_fault_plan());
    const serve::InterleavedStream built({.flows = 20, .seed = 3});
    std::size_t total = 0;
    for (serve::InterleavedStream drained = built; drained.next().has_value();) {
        ++total;
    }
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                                std::size_t{1000}, total, std::size_t{1} << 40}) {
        serve::InterleavedStream taking = built;
        serve::InterleavedStream stepping = built;
        const std::span<const serve::PacketEvent> slice = taking.take(k);
        EXPECT_EQ(slice.size(), std::min(k, total));
        for (const serve::PacketEvent& event : slice) {
            const auto stepped = stepping.next();
            ASSERT_TRUE(stepped.has_value());
            ASSERT_TRUE(same_event(event, *stepped)) << "k=" << k;
        }
        EXPECT_EQ(taking.events_emitted(), stepping.events_emitted());
        const auto after_take = taking.next();
        const auto after_next = stepping.next();
        ASSERT_EQ(after_take.has_value(), after_next.has_value()) << "k=" << k;
        if (after_take.has_value()) {
            EXPECT_TRUE(same_event(*after_take, *after_next)) << "k=" << k;
        } else {
            EXPECT_TRUE(taking.take(1).empty());
        }
    }
}

namespace {

serve::ServeConfig quick_config()
{
    serve::ServeConfig config;
    config.batch_size = 8;
    config.flowpic_dim = 16;  // both CNN tiers tiny: unit tests stay fast
    config.reduced_dim = 16;
    config.deadline_ms = 2000.0;
    return config;
}

serve::ServeReport run_service(const serve::ServeConfig& config, std::size_t flows)
{
    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream({.flows = flows, .seed = 11});
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    auto report = service.run(stream);
    EXPECT_EQ(report.events_quarantined, stream.mangled());
    return report;
}

} // namespace

TEST(ServeService, NominalRunClassifiesEverythingAndBalances)
{
    const std::size_t before = util::mem_budget().in_use();
    const auto report = run_service(quick_config(), 40);
    EXPECT_EQ(report.flows_ingested, 40u);
    EXPECT_EQ(report.flows_classified, 40u);
    EXPECT_EQ(report.shed_total(), 0u);
    EXPECT_TRUE(report.accounted());
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

TEST(ServeService, MangledPacketsAreQuarantinedExactly)
{
    util::FaultPlan plan;
    plan.seed = 5;
    plan.serve_mangle_percent = 10.0;
    const FaultGuard guard(plan);

    const auto report = run_service(quick_config(), 30);
    EXPECT_GT(report.events_quarantined, 0u);
    EXPECT_TRUE(report.accounted());
}

TEST(ServeService, BackendStallTripsBreakerAndShedsTyped)
{
    util::FaultPlan plan;
    plan.serve_stall_backend = 2;
    const FaultGuard guard(plan);

    auto config = quick_config();
    config.deadline_ms = 200.0;  // stalled batches expire; healthy ones fit even under tsan
    config.breaker_cooldown = 1;
    const std::size_t before = util::mem_budget().in_use();
    const auto report = run_service(config, 60);
    EXPECT_GT(report.shed_deadline, 0u);
    EXPECT_GT(report.breaker_trips, 0u);
    EXPECT_GT(report.breaker_recoveries, 0u);
    EXPECT_TRUE(report.accounted());
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

TEST(ServeService, IngestQueueDropsCountEveryEventOfARefusedBatch)
{
    util::FaultPlan plan;
    plan.serve_stall_backend = 2;
    const FaultGuard guard(plan);

    // The stalled classifier backs up through a one-flow ready queue into
    // the assembler, so the driver's pushes into a small ingest queue time
    // out.  300 events is not a multiple of the 256-event batch: the queue
    // holds two batches.
    auto config = quick_config();
    config.deadline_ms = 200.0;
    config.ready_depth = 1;
    config.queue_depth = 300;
    const util::Histogram& ingest_wait = util::metrics().histogram(
        serve::frec_stage_metric_name(serve::FrecStage::ingest_wait));
    const std::uint64_t waits_before = ingest_wait.count();
    const std::size_t before = util::mem_budget().in_use();
    const auto report = run_service(config, 60);
    EXPECT_GT(report.events_dropped_queue, 0u);
    // Every event is either dequeued (one ingest-wait observation) or
    // dropped at the ingest queue, and a refused batch counts all of its.
    EXPECT_EQ(ingest_wait.count() - waits_before + report.events_dropped_queue,
              report.events_total);
    EXPECT_TRUE(report.accounted());
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

TEST(ServeService, BurstUnderTightMemoryShedsTypedAndBalances)
{
    util::FaultPlan plan;
    plan.serve_burst = 48;
    const FaultGuard guard(plan);

    // Hold every flow resident (window longer than the stream) against the
    // 1 MB table-cap floor: the whole stream plus its burst clones exceeds
    // the cap, so LRU eviction must fire and every eviction must surface as
    // a typed mem_budget shed.
    auto config = quick_config();
    config.mem_mb = 1;
    config.window_seconds = 1000.0;
    const std::size_t before = util::mem_budget().in_use();
    const auto report = run_service(config, 200);
    EXPECT_GT(report.shed_mem_budget, 0u);
    EXPECT_TRUE(report.accounted());
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

TEST(ServeService, StageFailureRethrowsAfterJoiningEveryStage)
{
    // Classifier::classify turns a std::exception into typed outcomes; any
    // other throw leaves the classifier stage.  run() must wind down and
    // join every stage, keep the snapshot a restart resumes from, and
    // rethrow.
    struct Poison {};
    class PoisonedBackend final : public serve::Backend {
    public:
        [[nodiscard]] const char* name() const noexcept override { return "poisoned"; }
        [[nodiscard]] std::vector<serve::ScoredPrediction>
        classify_scored(std::span<const serve::ReadyFlow>, const util::CancelToken&) override
        {
            throw Poison{};
        }
    };
    const std::string snapshot = ::testing::TempDir() + "fptc_stage_failure." +
                                 std::to_string(::getpid()) + ".snap";
    auto config = quick_config();
    config.snapshot_path = snapshot;
    // A marker on every full batch: the assembler commits the first
    // snapshot before it offers any flow to the classifier.
    config.snapshot_every = 256;
    PoisonedBackend poisoned;
    const std::size_t before = util::mem_budget().in_use();
    {
        serve::InterleavedStream stream({.flows = 40, .seed = 11});
        serve::StreamingClassifier service(config, poisoned, poisoned, poisoned);
        EXPECT_THROW((void)service.run(stream), Poison);
    }
    EXPECT_EQ(util::mem_budget().in_use(), before);
    EXPECT_TRUE(std::filesystem::exists(snapshot));
    std::filesystem::remove(snapshot);
}

TEST(ServeService, StatusExportRunsWithoutStallChecks)
{
    // No stall budget and no heartbeat: the watchdog thread runs for the
    // status export alone.
    const std::string path = ::testing::TempDir() + "fptc_serve_status." +
                             std::to_string(::getpid()) + ".json";
    auto config = quick_config();
    config.hang_stall_s = 0.0;
    config.status_path = path;
    config.status_period_s = 0.05;
    const auto report = run_service(config, 40);
    EXPECT_GE(report.status_writes, 2u);  // at least one periodic, and the final one

    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    const std::string status = body.str();
    std::filesystem::remove(path);
    for (const serve::ServeCounterSpec& spec : serve::kServeCounters) {
        const std::string key = std::string("\"").append(spec.name).append("\": ");
        EXPECT_NE(status.find(key), std::string::npos) << spec.name;
    }
    // The final export reflects the drained pipeline.
    EXPECT_NE(status.find("\"flows_classified\": 40,"), std::string::npos) << status;
    std::size_t stages = 0;
    for (std::size_t at = status.find("{\"stage\": "); at != std::string::npos;
         at = status.find("{\"stage\": ", at + 1)) {
        ++stages;
    }
    EXPECT_EQ(stages, 4u) << status;
}

TEST(ServeConfigEnv, RejectsMalformedKnob)
{
    ::setenv("FPTC_SERVE_BATCH", "0", 1);
    EXPECT_THROW((void)serve::ServeConfig::from_env(), util::EnvError);
    ::setenv("FPTC_SERVE_DEADLINE_MS", "-3", 1);
    EXPECT_THROW((void)serve::ServeConfig::from_env(), util::EnvError);
    ::unsetenv("FPTC_SERVE_BATCH");
    ::unsetenv("FPTC_SERVE_DEADLINE_MS");
    EXPECT_NO_THROW((void)serve::ServeConfig::from_env());
}

// Crash-recovery unit tests for the streaming serve pipeline: the CoDel
// SLO admission controller (deterministic, injected clock), the snapshot
// codec's refusal ladder (truncation, bit flips, version skew, trailing
// garbage — every malformation is a cold start, never a crash), flow-table
// snapshot/restore round trips (including restore under an injected
// allocation-fault budget), the watchdog's stall detection, the
// supervisor's backoff math, end-to-end restore runs asserting the typed
// restart_loss accounting and the watermark stream skip, and the heartbeat
// path a supervised worker and its supervisor share.

#include "fptc/serve/admission.hpp"
#include "fptc/serve/backend.hpp"
#include "fptc/serve/flow_table.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/snapshot.hpp"
#include "fptc/serve/stream.hpp"
#include "fptc/serve/supervisor.hpp"
#include "fptc/serve/watchdog.hpp"
#include "fptc/util/crc32.hpp"
#include "fptc/util/fault.hpp"
#include "fptc/util/membudget.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace fptc;
using namespace std::chrono_literals;

namespace {

class TempDir {
public:
    explicit TempDir(const std::string& name)
        : path_(std::string(::testing::TempDir()) + name + "." + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

/// Reconfigure the process-wide injector and restore inertness on scope exit.
struct FaultGuard {
    explicit FaultGuard(const util::FaultPlan& plan) { util::fault_injector().configure(plan); }
    ~FaultGuard() { util::fault_injector().configure(util::FaultPlan{}); }
};

serve::SnapshotFlow make_flow(std::uint64_t id, std::size_t packets, double first_ts = 0.0)
{
    serve::SnapshotFlow flow{.flow_id = id, .label = 2, .first_ts = first_ts, .packets = {}};
    for (std::size_t i = 0; i < packets; ++i) {
        flow.packets.push_back(flow::Packet{
            .timestamp = first_ts + 0.01 * static_cast<double>(i),
            .size = 100 + static_cast<int>(i),
            .direction = (i % 2 == 0) ? flow::Direction::upstream : flow::Direction::downstream,
            .is_ack = false,
        });
    }
    return flow;
}

/// A distinct value per counter, keyed by the row's name (not its position),
/// so a swapped or dropped persisted row changes what decodes.
std::uint64_t counter_value(const char* name)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (; *name != '\0'; ++name) {
        hash = (hash ^ static_cast<unsigned char>(*name)) * 1099511628211ULL;
    }
    return hash;
}

serve::ServeSnapshot make_snapshot()
{
    serve::ServeSnapshot snap;
    snap.watermark = 1234;
    snap.stream_now = 17.25;
    snap.generation = 2;
    snap.model_generation = 4;
    snap.config_fingerprint = 0xfeedULL | 1;
    for (const serve::ServeCounterSpec& spec : serve::kServeCounters) {
        snap.counters.*spec.field = counter_value(spec.name);
    }
    snap.flows.push_back(make_flow(11, 3, 1.0));
    snap.flows.push_back(make_flow(99, 5, 2.5));
    return snap;
}

} // namespace

// ---------------------------------------------------------------------------
// CoDel SLO admission (deterministic: both sojourn and clock are injected)
// ---------------------------------------------------------------------------

TEST(ServeCodel, DisabledTargetNeverDrops)
{
    serve::CoDelAdmission codel({.target_ms = 0.0, .interval_ms = 100.0});
    EXPECT_FALSE(codel.enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(codel.should_drop(1e9, static_cast<double>(i)));
    }
    EXPECT_EQ(codel.drops(), 0u);
}

TEST(ServeCodel, DropsOnlyAfterSustainedExcursion)
{
    serve::CoDelAdmission codel({.target_ms = 10.0, .interval_ms = 100.0});
    ASSERT_TRUE(codel.enabled());
    // Above target, but not yet for a full interval: no drops.
    EXPECT_FALSE(codel.should_drop(20.0, 0.0));
    EXPECT_FALSE(codel.should_drop(20.0, 50.0));
    // A dip below target re-arms the excursion timer.
    EXPECT_FALSE(codel.should_drop(5.0, 60.0));
    EXPECT_FALSE(codel.should_drop(20.0, 70.0));   // re-arms at 70 + 100
    EXPECT_FALSE(codel.should_drop(20.0, 150.0));  // 150 < 170: still waiting
    EXPECT_TRUE(codel.should_drop(20.0, 170.0));   // sustained a full interval
    EXPECT_TRUE(codel.dropping());
    EXPECT_EQ(codel.drops(), 1u);
}

TEST(ServeCodel, ControlLawCadenceIsSqrtCount)
{
    serve::CoDelAdmission codel({.target_ms = 10.0, .interval_ms = 100.0});
    EXPECT_FALSE(codel.should_drop(20.0, 0.0));
    EXPECT_TRUE(codel.should_drop(20.0, 100.0));   // drop 1: next at 200
    EXPECT_FALSE(codel.should_drop(20.0, 150.0));
    EXPECT_TRUE(codel.should_drop(20.0, 200.0));   // drop 2: next at 200+100/sqrt(2)=270.71
    EXPECT_FALSE(codel.should_drop(20.0, 270.0));
    EXPECT_TRUE(codel.should_drop(20.0, 271.0));   // drop 3: next at 270.71+100/sqrt(3)=328.45
    EXPECT_TRUE(codel.should_drop(20.0, 329.0));   // drop 4
    // Recovery: one sojourn below target leaves dropping mode immediately.
    EXPECT_FALSE(codel.should_drop(5.0, 350.0));
    EXPECT_FALSE(codel.dropping());
    EXPECT_EQ(codel.drops(), 4u);
}

TEST(ServeCodel, RelapseWithinTwoIntervalsResumesFasterCadence)
{
    serve::CoDelAdmission codel({.target_ms = 10.0, .interval_ms = 100.0});
    // Build up count = 4, then recover at t = 350 (see cadence test above).
    EXPECT_FALSE(codel.should_drop(20.0, 0.0));
    EXPECT_TRUE(codel.should_drop(20.0, 100.0));
    EXPECT_TRUE(codel.should_drop(20.0, 200.0));
    EXPECT_TRUE(codel.should_drop(20.0, 271.0));
    EXPECT_TRUE(codel.should_drop(20.0, 329.0));
    EXPECT_FALSE(codel.should_drop(5.0, 350.0));
    // Relapse within 2 intervals: the excursion timer still applies...
    EXPECT_FALSE(codel.should_drop(20.0, 360.0));  // arms at 360 + 100
    EXPECT_TRUE(codel.should_drop(20.0, 460.0));   // ...but count resumes at 4-2=2,
    // so the next drop comes at 460 + 100/sqrt(2) = 530.71, not 460 + 100.
    EXPECT_FALSE(codel.should_drop(20.0, 530.0));
    EXPECT_TRUE(codel.should_drop(20.0, 531.0));
}

// ---------------------------------------------------------------------------
// snapshot codec: round trip and the refusal ladder
// ---------------------------------------------------------------------------

TEST(ServeSnapshotCodec, RoundTripPreservesEverything)
{
    const serve::ServeSnapshot snap = make_snapshot();
    const std::string bytes = serve::encode_snapshot(snap);
    const auto decoded = serve::decode_snapshot(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->watermark, snap.watermark);
    EXPECT_DOUBLE_EQ(decoded->stream_now, snap.stream_now);
    EXPECT_EQ(decoded->generation, snap.generation);
    EXPECT_EQ(decoded->model_generation, snap.model_generation);
    EXPECT_EQ(decoded->config_fingerprint, snap.config_fingerprint);
    // Persisted rows come back; the others belong to one process generation
    // and restart at zero.
    for (const serve::ServeCounterSpec& spec : serve::kServeCounters) {
        EXPECT_EQ(decoded->counters.*spec.field, spec.persisted ? snap.counters.*spec.field : 0u)
            << spec.name;
    }
    ASSERT_EQ(decoded->flows.size(), 2u);
    EXPECT_EQ(decoded->flows[0].flow_id, 11u);
    EXPECT_EQ(decoded->flows[1].flow_id, 99u);
    ASSERT_EQ(decoded->flows[1].packets.size(), 5u);
    EXPECT_EQ(decoded->flows[1].packets[3].size, 103);
    EXPECT_EQ(decoded->flows[1].packets[1].direction, flow::Direction::downstream);
    EXPECT_DOUBLE_EQ(decoded->flows[1].packets[2].timestamp, 2.5 + 0.02);
}

TEST(ServeSnapshotCodec, EncodingIsPinned)
{
    // The layout is the header, the persisted counter rows in list order,
    // then the flows.  Adding, removing or reordering a persisted row in
    // counters.hpp changes these bytes: bump kSnapshotVersion and update all
    // three pins together, so a file in the old layout cold-starts instead
    // of restoring into the wrong counters.
    const std::string bytes = serve::encode_snapshot(make_snapshot());
    EXPECT_EQ(serve::kSnapshotVersion, 3u);
    EXPECT_EQ(bytes.size(), 432u);
    // Checksum everything but the trailer: a CRC over data plus its own
    // CRC is the same constant for any payload.
    EXPECT_EQ(util::crc32(std::string_view(bytes).substr(0, bytes.size() - 4)), 3408973138u);
}

TEST(ServeSnapshotCodec, EveryTruncationIsRejected)
{
    const std::string bytes = serve::encode_snapshot(make_snapshot());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(serve::decode_snapshot(std::string_view(bytes).substr(0, len)).has_value())
            << "truncation to " << len << " bytes decoded";
    }
}

TEST(ServeSnapshotCodec, EveryBitFlipIsRejected)
{
    const std::string pristine = serve::encode_snapshot(make_snapshot());
    ASSERT_TRUE(serve::decode_snapshot(pristine).has_value());
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
        std::string corrupt = pristine;
        corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
        EXPECT_FALSE(serve::decode_snapshot(corrupt).has_value())
            << "bit flip at byte " << byte << " decoded";
    }
}

TEST(ServeSnapshotCodec, TrailingGarbageIsRejected)
{
    std::string bytes = serve::encode_snapshot(make_snapshot());
    bytes.push_back('\0');
    EXPECT_FALSE(serve::decode_snapshot(bytes).has_value());
}

TEST(ServeSnapshotCodec, UnknownVersionIsAColdStart)
{
    // The version field sits right after the 8-byte magic.
    std::string bytes = serve::encode_snapshot(make_snapshot());
    bytes[8] = static_cast<char>(serve::kSnapshotVersion + 1);
    EXPECT_FALSE(serve::decode_snapshot(bytes).has_value());
}

// ---------------------------------------------------------------------------
// snapshot file round trip (DurableFile publish, fingerprint gate)
// ---------------------------------------------------------------------------

TEST(ServeSnapshotFile, SaveLoadRoundTripAndFingerprintGate)
{
    TempDir dir("fptc_serve_snap");
    const std::string path = dir.file("snapshot.bin");
    const serve::ServeSnapshot snap = make_snapshot();
    serve::save_snapshot(path, snap);

    // expect = 0 skips the fingerprint check.
    ASSERT_TRUE(serve::load_snapshot(path).has_value());
    // Matching fingerprint loads; a different one is a cold start.
    EXPECT_TRUE(serve::load_snapshot(path, snap.config_fingerprint).has_value());
    EXPECT_FALSE(serve::load_snapshot(path, snap.config_fingerprint ^ 2).has_value());
    // Missing file is a cold start, not an error.
    EXPECT_FALSE(serve::load_snapshot(dir.file("absent.bin")).has_value());
}

TEST(ServeSnapshotFile, TornFileOnDiskIsAColdStart)
{
    TempDir dir("fptc_serve_torn");
    const std::string path = dir.file("snapshot.bin");
    serve::save_snapshot(path, make_snapshot());
    // Truncate in place, as if the machine died mid-publish of a non-durable
    // copy.
    std::filesystem::resize_file(path, 10);
    EXPECT_FALSE(serve::load_snapshot(path).has_value());
}

TEST(ServeSnapshotFile, ConfigFingerprintCoversStreamIdentity)
{
    serve::ServeConfig a;
    serve::ServeConfig b;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), 0u);
    EXPECT_EQ(a.fingerprint() & 1, 1u);  // never 0: 0 means "don't check"
    b.window_seconds = 30.0;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.fingerprint_extra = 7;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------------
// flow-table snapshot/restore
// ---------------------------------------------------------------------------

TEST(ServeFlowTableSnapshot, ExportRestoreRoundTrip)
{
    const std::size_t before = util::mem_budget().in_use();
    {
        serve::FlowTable table(1 << 20, 15.0);
        for (std::uint64_t id = 1; id <= 4; ++id) {
            for (int p = 0; p < 3; ++p) {
                (void)table.add_packet(serve::PacketEvent{
                    .flow_id = id, .label = 1, .timestamp = 0.1 * p, .size = 100.0});
            }
        }
        const auto flows = table.snapshot_entries();
        ASSERT_EQ(flows.size(), 4u);
        EXPECT_EQ(flows[0].flow_id, 1u);  // close-FIFO order preserved
        EXPECT_EQ(flows[0].packets.size(), 3u);

        serve::FlowTable restored(1 << 20, 15.0);
        EXPECT_EQ(restored.restore(flows), 0u);
        EXPECT_EQ(restored.size(), 4u);
        const auto again = restored.snapshot_entries();
        ASSERT_EQ(again.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(again[i].flow_id, flows[i].flow_id);
            EXPECT_EQ(again[i].packets.size(), flows[i].packets.size());
        }
    }
    EXPECT_EQ(util::mem_budget().in_use(), before);  // all charges credited back
}

TEST(ServeFlowTableSnapshot, RestoreRefusesWhatTheCapCannotHold)
{
    std::vector<serve::SnapshotFlow> flows;
    for (std::uint64_t id = 1; id <= 50; ++id) {
        flows.push_back(make_flow(id, 8));
    }
    // A cap this small holds only a handful of flows; restore must refuse
    // the rest (no eviction churn: restored flows are equally old).
    serve::FlowTable table(4096, 15.0);
    const std::size_t refused = table.restore(flows);
    EXPECT_GT(refused, 0u);
    EXPECT_EQ(table.size() + refused, 50u);
}

TEST(ServeFlowTableSnapshot, RestoreUnderAllocFaultShedsTyped)
{
    util::FaultPlan plan;
    plan.alloc_fail_after_mb = 1;  // refuse once this thread charged 1 MB
    FaultGuard guard(plan);
    util::fault_injector().begin_alloc_scope();

    std::vector<serve::SnapshotFlow> flows;
    flows.push_back(make_flow(1, 4));       // small: charges fine
    flows.push_back(make_flow(2, 100000));  // ~2.4 MB of packets: refused
    const std::size_t before = util::mem_budget().in_use();
    {
        serve::FlowTable table(64 << 20, 15.0);
        const std::size_t refused = table.restore(flows);
        EXPECT_GE(refused, 1u);
        EXPECT_GE(table.size(), 1u);  // the small flow survived the fault
    }
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

// ---------------------------------------------------------------------------
// watchdog stall detection (injected on_stall: no process death in tests)
// ---------------------------------------------------------------------------

TEST(ServeWatchdogUnit, DetectsOnlyTheSilentThread)
{
    std::mutex mutex;
    std::vector<std::string> stalled;
    serve::Watchdog watchdog({
        .stall_seconds = 0.10,
        .poll_seconds = 0.02,
        .heartbeat_path = "",
        .on_stall =
            [&](const std::string& name) {
                std::lock_guard lock(mutex);
                stalled.push_back(name);
            },
    });
    const std::size_t beater = watchdog.add_thread("beater");
    const std::size_t wedged = watchdog.add_thread("wedged");
    const std::size_t idler = watchdog.add_thread("idler");
    watchdog.set_idle(idler, true);
    watchdog.start();
    const auto deadline = std::chrono::steady_clock::now() + 600ms;
    bool saw_stall = false;
    while (std::chrono::steady_clock::now() < deadline) {
        watchdog.beat(beater);
        {
            std::lock_guard lock(mutex);
            saw_stall = !stalled.empty();
        }
        if (saw_stall) {
            break;
        }
        std::this_thread::sleep_for(10ms);
    }
    watchdog.mark_done(wedged);
    watchdog.stop();
    std::lock_guard lock(mutex);
    ASSERT_TRUE(saw_stall) << "watchdog never reported the wedged thread";
    for (const auto& name : stalled) {
        EXPECT_EQ(name, "wedged");  // never the beating or the idle thread
    }
}

TEST(ServeWatchdogUnit, HeartbeatFileIsRefreshed)
{
    TempDir dir("fptc_serve_hb");
    const std::string path = dir.file("heartbeat");
    serve::Watchdog watchdog(
        {.stall_seconds = 0.0, .poll_seconds = 0.02, .heartbeat_path = path, .on_stall = {}});
    ASSERT_TRUE(watchdog.enabled());  // heartbeat alone enables the thread
    watchdog.start();
    std::this_thread::sleep_for(100ms);
    watchdog.stop();
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0) << "heartbeat file was never written";
    EXPECT_GT(st.st_size, 0);
}

TEST(ServeWatchdogUnit, DisabledWatchdogNeverStarts)
{
    serve::Watchdog watchdog(
        {.stall_seconds = 0.0, .poll_seconds = 0.02, .heartbeat_path = "", .on_stall = {}});
    EXPECT_FALSE(watchdog.enabled());
    watchdog.start();  // no-op; stop() on a never-started watchdog is safe too
    watchdog.stop();
}

// ---------------------------------------------------------------------------
// supervisor backoff math
// ---------------------------------------------------------------------------

TEST(ServeSupervisorMath, ExponentialBackoffWithCap)
{
    serve::SupervisorConfig config;
    config.backoff_ms = 200.0;
    config.backoff_cap_ms = 5000.0;
    EXPECT_DOUBLE_EQ(serve::backoff_delay_ms(config, 1), 200.0);
    EXPECT_DOUBLE_EQ(serve::backoff_delay_ms(config, 2), 400.0);
    EXPECT_DOUBLE_EQ(serve::backoff_delay_ms(config, 3), 800.0);
    EXPECT_DOUBLE_EQ(serve::backoff_delay_ms(config, 5), 3200.0);
    EXPECT_DOUBLE_EQ(serve::backoff_delay_ms(config, 6), 5000.0);   // 6400 clamps
    EXPECT_DOUBLE_EQ(serve::backoff_delay_ms(config, 20), 5000.0);  // stays clamped
}

TEST(ServeSupervisorMath, WorkerRoleComesFromEnvironment)
{
    ASSERT_EQ(std::getenv(serve::kServeRoleEnv), nullptr) << "test env already has a role";
    EXPECT_FALSE(serve::is_serve_worker());
    EXPECT_EQ(serve::serve_generation(), 0u);
    ::setenv(serve::kServeRoleEnv, serve::kServeRoleWorker, 1);
    ::setenv(serve::kServeGenerationEnv, "3", 1);
    EXPECT_TRUE(serve::is_serve_worker());
    EXPECT_EQ(serve::serve_generation(), 3u);
    ::unsetenv(serve::kServeRoleEnv);
    ::unsetenv(serve::kServeGenerationEnv);
}

// ---------------------------------------------------------------------------
// end-to-end restore: typed restart_loss, watermark skip, invariant across
// generations
// ---------------------------------------------------------------------------

namespace {

serve::ServeConfig recovery_config(const std::string& snapshot_path)
{
    serve::ServeConfig config;
    config.batch_size = 8;
    config.flowpic_dim = 16;
    config.reduced_dim = 16;
    config.deadline_ms = 2000.0;
    config.snapshot_path = snapshot_path;
    config.snapshot_period_s = 0.0;  // no new snapshots: this run only restores
    config.generation = 1;
    return config;
}

} // namespace

TEST(ServeRecoveryE2E, RestoredRunTypesTheLossWindowAndBalances)
{
    TempDir dir("fptc_serve_e2e");
    const std::string path = dir.file("snapshot.bin");
    const serve::ServeConfig config = recovery_config(path);

    // Craft the crashed generation's snapshot: at the cut it had ingested 5
    // flows, classified 2, and carried 1 in the table — so 2 were in flight
    // (ready queue / mid-batch) and must surface as typed restart_loss.
    serve::ServeSnapshot snap;
    snap.watermark = 50;
    snap.stream_now = 0.0;
    snap.generation = 0;
    snap.config_fingerprint = config.fingerprint();
    snap.counters.events_total = 50;
    snap.counters.flows_ingested = 5;
    snap.counters.flows_classified = 2;
    snap.flows.push_back(make_flow(900001, 3, 0.0));  // id outside the stream's range
    serve::save_snapshot(path, snap);

    const std::size_t before = util::mem_budget().in_use();
    serve::ServeReport report;
    std::uint64_t emitted = 0;
    {
        auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                             config.num_classes, 42);
        serve::InterleavedStream stream({.flows = 40, .seed = 11});
        serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                           *backends.fallback);
        report = service.run(stream);
        emitted = stream.events_emitted();
    }

    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.watermark, 50u);
    EXPECT_EQ(report.generation, 1u);
    EXPECT_EQ(report.restored_flows, 1u);
    EXPECT_EQ(report.restore_refused, 0u);
    EXPECT_EQ(report.shed_restart_loss, 2u);  // 5 - 2 - 0 sheds - 1 in table
    // The driver consumed the whole deterministic stream: 50 skipped draws
    // plus everything it then served.
    EXPECT_EQ(report.events_total, emitted);
    // Counters continued from the cut: the 5 pre-crash flows plus whatever
    // the replay ingested, and the invariant holds across the generations.
    EXPECT_GT(report.flows_ingested, 5u);
    EXPECT_TRUE(report.accounted()) << report.summary();
    // A clean finish retires the snapshot: only a crash leaves one behind.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

TEST(ServeRecoveryE2E, RestoredSloCountersKeepComplianceInRange)
{
    TempDir dir("fptc_serve_slo_restore");
    const std::string path = dir.file("snapshot.bin");
    serve::ServeConfig config = recovery_config(path);
    config.slo_ms = 60000.0;  // on, but generous: this generation adds no violations

    // A crash late in an overloaded run: the cut carries more SLO violations
    // than this generation will see flows, so slo_considered must continue
    // from the cut as well or compliance goes negative.
    serve::ServeSnapshot snap;
    snap.watermark = 50;
    snap.config_fingerprint = config.fingerprint();
    snap.counters.events_total = 50;
    snap.counters.flows_ingested = 500;
    snap.counters.flows_classified = 500;
    snap.counters.slo_considered = 500;
    snap.counters.slo_violations = 400;
    serve::save_snapshot(path, snap);

    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream({.flows = 40, .seed = 11});
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    const auto report = service.run(stream);

    ASSERT_TRUE(report.restored);
    // The case under test: more carried violations than this generation's flows.
    EXPECT_LT(report.flows_ingested - 500, report.slo_violations);
    EXPECT_GT(report.slo_considered, 500u);
    EXPECT_GE(report.slo_considered, report.slo_violations);
    EXPECT_GE(report.slo_compliance(), 0.0);
    EXPECT_LE(report.slo_compliance(), 1.0);
    EXPECT_TRUE(report.accounted()) << report.summary();
}

TEST(ServeRecoveryE2E, SnapshotEveryWritesAndRetiresSnapshots)
{
    TempDir dir("fptc_serve_snapw");
    const std::string path = dir.file("snapshot.bin");
    serve::ServeConfig config = recovery_config(path);
    config.generation = 0;
    config.snapshot_period_s = 0.0;
    config.snapshot_every = 100;  // event-cadence markers: deterministic count

    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream({.flows = 40, .seed = 11});
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    const auto report = service.run(stream);

    EXPECT_FALSE(report.restored);
    EXPECT_GT(report.snapshots_written, 0u);
    EXPECT_TRUE(report.accounted()) << report.summary();
    EXPECT_FALSE(std::filesystem::exists(path));  // retired on the clean finish
}

TEST(ServeRecoveryE2E, MismatchedFingerprintColdStarts)
{
    TempDir dir("fptc_serve_coldstart");
    const std::string path = dir.file("snapshot.bin");
    const serve::ServeConfig config = recovery_config(path);

    serve::ServeSnapshot snap = make_snapshot();
    snap.config_fingerprint = config.fingerprint() ^ 2;  // written by a different setup
    serve::save_snapshot(path, snap);

    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream({.flows = 20, .seed = 11});
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    const auto report = service.run(stream);

    EXPECT_FALSE(report.restored);
    EXPECT_EQ(report.watermark, 0u);
    EXPECT_EQ(report.shed_restart_loss, 0u);
    EXPECT_TRUE(report.accounted()) << report.summary();
}

// ---------------------------------------------------------------------------
// heartbeat: a supervised worker refreshes the file its supervisor watches,
// both derived from the snapshot path; nothing else writes one
// ---------------------------------------------------------------------------

namespace {

void serve_with_snapshot(const std::string& snapshot_path)
{
    serve::ServeConfig config = recovery_config(snapshot_path);
    config.generation = 0;
    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream({.flows = 20, .seed = 11});
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    const auto report = service.run(stream);
    EXPECT_TRUE(report.accounted()) << report.summary();
}

} // namespace

TEST(ServeHeartbeat, SupervisorAndWorkerResolveOnePath)
{
    TempDir dir("fptc_serve_hb_path");
    const std::string snapshot = dir.file("snapshot.bin");
    ::setenv("FPTC_SERVE_SNAPSHOT", snapshot.c_str(), 1);
    const serve::SupervisorConfig supervisor = serve::SupervisorConfig::from_env();
    ::unsetenv("FPTC_SERVE_SNAPSHOT");
    EXPECT_EQ(supervisor.heartbeat_path, snapshot + ".heartbeat");

    ::setenv(serve::kServeRoleEnv, serve::kServeRoleWorker, 1);
    serve_with_snapshot(snapshot);
    ::unsetenv(serve::kServeRoleEnv);
    EXPECT_TRUE(std::filesystem::exists(supervisor.heartbeat_path))
        << "the worker did not refresh the file its supervisor watches";
}

TEST(ServeHeartbeat, UnsupervisedRunWritesNone)
{
    ASSERT_EQ(std::getenv(serve::kServeRoleEnv), nullptr) << "test env already has a role";
    TempDir dir("fptc_serve_hb_none");
    const std::string snapshot = dir.file("snapshot.bin");
    serve_with_snapshot(snapshot);
    EXPECT_FALSE(std::filesystem::exists(snapshot + ".heartbeat"));
}

TEST(ServeHeartbeat, NoSnapshotMeansNoHeartbeat)
{
    ASSERT_EQ(std::getenv("FPTC_SERVE_SNAPSHOT"), nullptr) << "test env already has a snapshot";
    EXPECT_EQ(serve::serve_heartbeat_path(""), "");
    EXPECT_EQ(serve::SupervisorConfig::from_env().heartbeat_path, "");
    // A worker without a snapshot writes no heartbeat, not even a bare
    // ".heartbeat" in its working directory.
    ASSERT_FALSE(std::filesystem::exists(".heartbeat"));
    ::setenv(serve::kServeRoleEnv, serve::kServeRoleWorker, 1);
    serve_with_snapshot("");
    ::unsetenv(serve::kServeRoleEnv);
    EXPECT_FALSE(std::filesystem::exists(".heartbeat"));
}

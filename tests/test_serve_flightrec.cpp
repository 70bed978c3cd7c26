// Flight-recorder unit tests: ring wrap-around accounting, disabled-gate
// inertness, exemplar bucketing, the postmortem codec's refusal ladder
// (truncation, bit flips, trailing garbage), concurrent producers against
// snapshot readers (tsan-checked), ring-file round trips + supervisor-style
// sealing, the stage/latency histogram reconciliation invariant, and the
// exact fptc_serve_* Prometheus instrument set documented in README.md.
//
// Death tests (postmortems surviving std::_Exit) live in the FlightRecCrash
// suite — intentionally NOT named to match the sanitizer harness's 'Serve'
// tsan regex, like the other EXPECT_EXIT suites.

#include "fptc/serve/backend.hpp"
#include "fptc/serve/flightrec.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/stream.hpp"
#include "fptc/util/telemetry.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace fptc;

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

serve::Postmortem sample_postmortem()
{
    serve::Postmortem pm;
    pm.reason = static_cast<std::uint32_t>(serve::PostmortemReason::manual);
    pm.generation = 3;
    pm.detail = "unit test";
    serve::Postmortem::RingDump ring;
    ring.ring = static_cast<std::uint32_t>(serve::FrecRing::assembler);
    ring.recorded = 7;
    ring.dropped = 2;
    for (std::uint64_t i = 0; i < 5; ++i) {
        ring.events.push_back(serve::FlightEvent{
            .ts_ns = 100 * i,
            .flow_id = i,
            .arg = i * i,
            .kind = static_cast<std::uint32_t>(serve::FrecKind::admit),
            .detail = 0,
        });
    }
    ring.events.push_back(serve::FlightEvent{
        .ts_ns = 600,
        .flow_id = 0,
        .arg = 4242,  // watermark
        .kind = static_cast<std::uint32_t>(serve::FrecKind::snapshot_marker),
        .detail = 0,
    });
    pm.rings.push_back(std::move(ring));
    pm.exemplars.push_back({static_cast<std::uint32_t>(serve::FrecStage::backend_compute),
                            20, 77});
    pm.metrics_text = "# TYPE fptc_serve_events_total counter\nfptc_serve_events_total 1\n";
    return pm;
}

} // namespace

TEST(ServeFlightRec, RingWrapsOverwritingOldest)
{
    serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 64});
    for (std::uint64_t i = 0; i < 200; ++i) {
        recorder.note(serve::FrecRing::driver, serve::FrecKind::ingest, i, i, 0);
    }
    EXPECT_EQ(recorder.recorded(serve::FrecRing::driver), 200u);
    EXPECT_EQ(recorder.dropped(serve::FrecRing::driver), 136u);
    const auto window = recorder.ring_snapshot(serve::FrecRing::driver);
    ASSERT_EQ(window.size(), 64u);
    // The surviving window is the newest 64 events, oldest first.
    for (std::size_t i = 0; i < window.size(); ++i) {
        EXPECT_EQ(window[i].flow_id, 136 + i);
        EXPECT_EQ(window[i].arg, 136 + i);
    }
    // The untouched rings stay empty; totals see only the driver ring.
    EXPECT_EQ(recorder.recorded(serve::FrecRing::classifier), 0u);
    EXPECT_EQ(recorder.recorded_total(), 200u);
    EXPECT_EQ(recorder.dropped_total(), 136u);
}

TEST(ServeFlightRec, DisabledGateIsInert)
{
    // No recorder installed: the free-function hot path must be a no-op.
    serve::frec_note(serve::FrecRing::driver, serve::FrecKind::ingest, 1, 2, 3);
    serve::frec_exemplar(serve::FrecStage::assembly, 99, 5);
    serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 64});
    EXPECT_EQ(recorder.recorded_total(), 0u);
    // Armed now: the same call lands.
    serve::frec_note(serve::FrecRing::driver, serve::FrecKind::ingest, 1, 2, 3);
    EXPECT_EQ(recorder.recorded_total(), 1u);
}

TEST(ServeFlightRec, ExemplarRemembersLastFlowPerBucket)
{
    serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 64});
    // 1000 ns and 1023 ns share bit width 10; 5000 ns lands in bucket 13.
    recorder.observe_exemplar(serve::FrecStage::backend_compute, 1000, 11);
    recorder.observe_exemplar(serve::FrecStage::backend_compute, 1023, 22);
    recorder.observe_exemplar(serve::FrecStage::backend_compute, 5000, 33);
    EXPECT_EQ(serve::frec_bucket(0), 0u);
    EXPECT_EQ(serve::frec_bucket(1), 1u);
    EXPECT_EQ(serve::frec_bucket(1000), 10u);
    EXPECT_EQ(recorder.exemplar(serve::FrecStage::backend_compute,
                                serve::frec_bucket(1000)),
              22u);
    EXPECT_EQ(recorder.exemplar(serve::FrecStage::backend_compute,
                                serve::frec_bucket(5000)),
              33u);
    // A different stage's table is independent.
    EXPECT_EQ(recorder.exemplar(serve::FrecStage::assembly, serve::frec_bucket(1000)), 0u);
}

TEST(ServeFlightRec, PostmortemCodecRoundTrips)
{
    const serve::Postmortem pm = sample_postmortem();
    const std::string bytes = serve::encode_postmortem(pm);
    const auto decoded = serve::decode_postmortem(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->reason, pm.reason);
    EXPECT_EQ(decoded->generation, pm.generation);
    EXPECT_EQ(decoded->detail, pm.detail);
    ASSERT_EQ(decoded->rings.size(), 1u);
    EXPECT_EQ(decoded->rings[0].recorded, 7u);
    EXPECT_EQ(decoded->rings[0].dropped, 2u);
    ASSERT_EQ(decoded->rings[0].events.size(), 6u);
    EXPECT_EQ(decoded->rings[0].events[2].arg, 4u);
    ASSERT_EQ(decoded->exemplars.size(), 1u);
    EXPECT_EQ(decoded->exemplars[0].flow_id, 77u);
    EXPECT_EQ(decoded->metrics_text, pm.metrics_text);
    ASSERT_TRUE(decoded->last_watermark().has_value());
    EXPECT_EQ(*decoded->last_watermark(), 4242u);
    EXPECT_EQ(decoded->event_count(), 6u);
}

TEST(ServeFlightRec, PostmortemDecodeRefusesMalformations)
{
    const std::string bytes = serve::encode_postmortem(sample_postmortem());
    // Truncation at every eighth prefix length.
    for (std::size_t len = 0; len < bytes.size(); len += 8) {
        EXPECT_FALSE(serve::decode_postmortem(bytes.substr(0, len)).has_value())
            << "accepted truncation at " << len;
    }
    // A flipped payload byte must fail the CRC.
    std::string flipped = bytes;
    flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 0x40);
    EXPECT_FALSE(serve::decode_postmortem(flipped).has_value());
    // Bad magic.
    std::string magic = bytes;
    magic[0] = 'X';
    EXPECT_FALSE(serve::decode_postmortem(magic).has_value());
    // Appended garbage changes the payload size the CRC covers.
    EXPECT_FALSE(serve::decode_postmortem(bytes + "zz").has_value());
}

TEST(ServeFlightRec, SaveLoadRoundTripsThroughDisk)
{
    const TempDir dir("fptc_frec_saveload");
    const std::string path = dir.file("pm.bin");
    ASSERT_TRUE(serve::save_postmortem(path, sample_postmortem()));
    const auto loaded = serve::load_postmortem(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->event_count(), 6u);
    EXPECT_FALSE(serve::load_postmortem(dir.file("missing.bin")).has_value());
}

TEST(ServeFlightRec, ConcurrentProducersAndSnapshotReadersAreClean)
{
    // One producer per ring (the real topology) plus a reader hammering
    // snapshots and exemplars — the atomic_ref discipline must keep this
    // race-free under tsan.
    serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 256});
    constexpr std::uint64_t kPerThread = 20000;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        std::uint64_t sink = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            for (std::size_t r = 0; r < serve::kFrecRingCount; ++r) {
                sink += recorder.ring_snapshot(static_cast<serve::FrecRing>(r)).size();
            }
            sink += recorder.exemplar(serve::FrecStage::backend_compute, 20);
        }
        EXPECT_GE(sink, 0u);
    });
    std::vector<std::thread> producers;
    for (std::size_t r = 0; r < serve::kFrecRingCount; ++r) {
        producers.emplace_back([&recorder, r] {
            const auto ring = static_cast<serve::FrecRing>(r);
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                recorder.note(ring, serve::FrecKind::ingest, i, i, 0);
                if ((i & 0xFF) == 0) {
                    recorder.observe_exemplar(serve::FrecStage::backend_compute, i, i);
                }
            }
        });
    }
    for (auto& t : producers) {
        t.join();
    }
    stop.store(true);
    reader.join();
    EXPECT_EQ(recorder.recorded_total(), kPerThread * serve::kFrecRingCount);
    for (std::size_t r = 0; r < serve::kFrecRingCount; ++r) {
        EXPECT_EQ(recorder.ring_snapshot(static_cast<serve::FrecRing>(r)).size(), 256u);
    }
}

TEST(ServeFlightRec, RingFileRoundTripsAndSeals)
{
    const TempDir dir("fptc_frec_ring");
    const std::string ring_path = dir.file("rings.bin");
    {
        serve::FlightRecorder recorder(
            {.ring_path = ring_path, .ring_capacity = 128, .generation = 2});
        ASSERT_TRUE(recorder.file_backed());
        for (std::uint64_t i = 0; i < 10; ++i) {
            recorder.note(serve::FrecRing::assembler, serve::FrecKind::admit, i, i, 0);
        }
        recorder.note(serve::FrecRing::assembler, serve::FrecKind::snapshot_marker, 0, 500, 0);
        recorder.observe_exemplar(serve::FrecStage::ingest_wait, 900, 42);
        // Recorder goes out of scope *without* remove_backing — the ring
        // file stays, as after a kill.
    }
    const auto skeleton = serve::FlightRecorder::read_ring_file(ring_path);
    ASSERT_TRUE(skeleton.has_value());
    EXPECT_EQ(skeleton->generation, 2u);
    EXPECT_EQ(skeleton->event_count(), 11u);
    ASSERT_TRUE(skeleton->last_watermark().has_value());
    EXPECT_EQ(*skeleton->last_watermark(), 500u);

    const std::string pm_path = dir.file("pm.bin");
    ASSERT_TRUE(serve::FlightRecorder::seal_from_ring_file(
        ring_path, pm_path, serve::PostmortemReason::sigkill_reap, 4, "signal 9"));
    const auto sealed = serve::load_postmortem(pm_path);
    ASSERT_TRUE(sealed.has_value());
    EXPECT_EQ(sealed->reason, static_cast<std::uint32_t>(serve::PostmortemReason::sigkill_reap));
    EXPECT_EQ(sealed->generation, 4u);  // supervisor stamp wins over the file's
    EXPECT_EQ(sealed->detail, "signal 9");
    EXPECT_EQ(sealed->event_count(), 11u);
    // An exemplar recorded pre-"crash" survives the seal.
    bool found = false;
    for (const auto& ex : sealed->exemplars) {
        if (ex.stage == static_cast<std::uint32_t>(serve::FrecStage::ingest_wait) &&
            ex.flow_id == 42) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
    // Garbage is refused, not crashed on.
    EXPECT_FALSE(serve::FlightRecorder::read_ring_file(dir.file("absent.bin")).has_value());
}

TEST(ServeFlightRec, OversizedRingFileIsRefused)
{
    // The header's geometry fixes the file size exactly; a longer file is
    // not the ring the header describes.
    const TempDir dir("fptc_frec_oversized");
    const std::string ring_path = dir.file("rings.bin");
    {
        serve::FlightRecorder recorder({.ring_path = ring_path, .ring_capacity = 64});
        ASSERT_TRUE(recorder.file_backed());
        recorder.note(serve::FrecRing::driver, serve::FrecKind::ingest, 1, 1, 0);
    }
    ASSERT_TRUE(serve::FlightRecorder::read_ring_file(ring_path).has_value());
    {
        std::ofstream out(ring_path, std::ios::binary | std::ios::app);
        out.write("\0\0\0\0\0\0\0\0", 8);
    }
    EXPECT_FALSE(serve::FlightRecorder::read_ring_file(ring_path).has_value());
}

TEST(ServeFlightRec, RemoveBackingUnlinksRingFile)
{
    const TempDir dir("fptc_frec_unlink");
    const std::string ring_path = dir.file("rings.bin");
    serve::FlightRecorder recorder({.ring_path = ring_path, .ring_capacity = 64});
    ASSERT_TRUE(std::filesystem::exists(ring_path));
    recorder.remove_backing();
    EXPECT_FALSE(std::filesystem::exists(ring_path));
}

namespace {

serve::ServeReport run_quick_service(bool with_recorder)
{
    serve::ServeConfig config;
    config.batch_size = 8;
    config.flowpic_dim = 16;
    config.reduced_dim = 16;
    config.deadline_ms = 2000.0;
    config.flightrec = with_recorder;
    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream({.flows = 40, .seed = 11});
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    return service.run(stream);
}

} // namespace

TEST(ServeFlightRec, StageHistogramsReconcileWithClassifyLatency)
{
    util::metrics().reset_values_for_tests();
    const auto report = run_quick_service(true);
    EXPECT_EQ(report.flows_classified, 40u);
    EXPECT_GT(report.frec_events, 0u);
    const util::Histogram& latency =
        util::metrics().histogram("fptc_serve_classify_latency_ns");
    const util::Histogram& backend = util::metrics().histogram(
        serve::frec_stage_metric_name(serve::FrecStage::backend_compute));
    // backend_compute observes the identical value as the end-to-end
    // histogram at every batch: exact reconciliation, not approximate.
    EXPECT_EQ(backend.count(), latency.count());
    EXPECT_EQ(backend.sum(), latency.sum());
    EXPECT_EQ(latency.count(), report.batches);
    // The queue-wait stages saw every classified flow at least once.
    const util::Histogram& ready_wait = util::metrics().histogram(
        serve::frec_stage_metric_name(serve::FrecStage::ready_wait));
    const util::Histogram& assembly = util::metrics().histogram(
        serve::frec_stage_metric_name(serve::FrecStage::assembly));
    const util::Histogram& ingest_wait = util::metrics().histogram(
        serve::frec_stage_metric_name(serve::FrecStage::ingest_wait));
    EXPECT_EQ(ready_wait.count(), 40u);
    EXPECT_EQ(assembly.count(), 40u);
    EXPECT_EQ(ingest_wait.count(), report.events_total);
}

TEST(ServeFlightRec, RecorderOffMeansZeroFrecActivity)
{
    util::metrics().reset_values_for_tests();
    const auto report = run_quick_service(false);
    EXPECT_EQ(report.frec_events, 0u);
    EXPECT_EQ(report.frec_dropped, 0u);
    EXPECT_EQ(report.postmortems_written, 0u);
    // Stage attribution is unconditional — off-recorder runs still get it.
    const util::Histogram& backend = util::metrics().histogram(
        serve::frec_stage_metric_name(serve::FrecStage::backend_compute));
    EXPECT_EQ(backend.count(), report.batches);
}

TEST(ServeFlightRec, PrometheusExportsExactlyTheDocumentedServeSet)
{
    util::metrics().reset_values_for_tests();
    (void)run_quick_service(true);
    // The README metrics table, verbatim.  A serve counter is one row of
    // serve/counters.hpp; an exported one also needs its entry here and its
    // row in README.md (gauges and histograms: service.cpp, here, README).
    const std::set<std::string> documented = {
        "fptc_serve_events_total counter",
        "fptc_serve_events_quarantined_total counter",
        "fptc_serve_events_dropped_queue_total counter",
        "fptc_serve_events_dropped_mem_total counter",
        "fptc_serve_events_dropped_slo_total counter",
        "fptc_serve_flows_ingested_total counter",
        "fptc_serve_flows_classified_total counter",
        "fptc_serve_shed_mem_budget_total counter",
        "fptc_serve_shed_queue_full_total counter",
        "fptc_serve_shed_deadline_total counter",
        "fptc_serve_shed_breaker_total counter",
        "fptc_serve_shed_slo_total counter",
        "fptc_serve_shed_restart_loss_total counter",
        "fptc_serve_slo_violations_total counter",
        "fptc_serve_snapshots_total counter",
        "fptc_serve_breaker_trips_total counter",
        "fptc_serve_breaker_recoveries_total counter",
        "fptc_serve_flows_unknown_total counter",
        "fptc_serve_quarantined_backwards_ts_total counter",
        "fptc_serve_drift_alarms_total counter",
        "fptc_serve_reloads_total counter",
        "fptc_serve_reload_rollbacks_total counter",
        "fptc_serve_postmortems_total counter",
        "fptc_serve_flows_active gauge",
        "fptc_serve_breaker_state gauge",
        "fptc_serve_generation gauge",
        "fptc_serve_model_generation gauge",
        "fptc_serve_flightrec_events gauge",
        "fptc_serve_flightrec_dropped gauge",
        "fptc_serve_classify_latency_ns histogram",
        "fptc_serve_stage_ingest_wait_ns histogram",
        "fptc_serve_stage_assembly_ns histogram",
        "fptc_serve_stage_ready_wait_ns histogram",
        "fptc_serve_stage_backend_compute_ns histogram",
    };
    std::set<std::string> exported;
    std::istringstream text(util::metrics().prometheus_text());
    std::string line;
    while (std::getline(text, line)) {
        if (line.rfind("# TYPE fptc_serve_", 0) == 0) {
            exported.insert(line.substr(7));  // "name type"
        }
    }
    EXPECT_EQ(exported, documented);
}

// ---------------------------------------------------------------------------
// Death tests: a postmortem must be complete and CRC-valid even when the
// process leaves via std::_Exit mid-stream (no destructors, no flushes).
// ---------------------------------------------------------------------------

using ::testing::ExitedWithCode;

TEST(FlightRecCrash, DumpThenExitLeavesValidPostmortem)
{
    const TempDir dir("fptc_frec_death_dump");
    const std::string pm_path = dir.file("pm.bin");
    EXPECT_EXIT(
        {
            // Under ctest each TEST runs alone in its own process, so the
            // registry starts empty; touch one instrument so the dumped
            // metrics snapshot has at least one "# TYPE" line to assert on.
            util::metrics().counter("fptc_test_frec_death_total").add(1);
            serve::FlightRecorder recorder({.ring_path = "", .ring_capacity = 64});
            for (std::uint64_t i = 0; i < 100; ++i) {
                recorder.note(serve::FrecRing::classifier, serve::FrecKind::classify_end, i,
                              i * 10, 1);
            }
            recorder.dump(pm_path, serve::PostmortemReason::watchdog_stall, "test stall");
            std::_Exit(88);
        },
        ExitedWithCode(88), "");
    const auto pm = serve::load_postmortem(pm_path);
    ASSERT_TRUE(pm.has_value());
    EXPECT_EQ(pm->reason, static_cast<std::uint32_t>(serve::PostmortemReason::watchdog_stall));
    EXPECT_EQ(pm->detail, "test stall");
    EXPECT_EQ(pm->event_count(), 64u);  // the surviving window of 100 notes
    // An in-process dump attaches the live metrics snapshot.
    EXPECT_NE(pm->metrics_text.find("# TYPE"), std::string::npos);
    for (const auto& ring : pm->rings) {
        if (ring.ring == static_cast<std::uint32_t>(serve::FrecRing::classifier)) {
            EXPECT_EQ(ring.recorded, 100u);
            EXPECT_EQ(ring.dropped, 36u);
        }
    }
}

TEST(FlightRecCrash, UncleanExitLeavesSealableRingFile)
{
    const TempDir dir("fptc_frec_death_seal");
    const std::string ring_path = dir.file("rings.bin");
    EXPECT_EXIT(
        {
            serve::FlightRecorder recorder(
                {.ring_path = ring_path, .ring_capacity = 64, .generation = 1});
            if (!recorder.file_backed()) {
                std::_Exit(3);  // mmap failed: fail the exit-code match below
            }
            for (std::uint64_t i = 0; i < 30; ++i) {
                recorder.note(serve::FrecRing::driver, serve::FrecKind::ingest, i, i, 0);
            }
            recorder.note(serve::FrecRing::assembler, serve::FrecKind::snapshot_marker, 0,
                          1234, 0);
            // No dump, no destructor: the process vanishes as under SIGKILL
            // (modulo the kernel flushing the MAP_SHARED pages either way).
            std::_Exit(9);
        },
        ExitedWithCode(9), "");
    const std::string pm_path = dir.file("pm.bin");
    ASSERT_TRUE(serve::FlightRecorder::seal_from_ring_file(
        ring_path, pm_path, serve::PostmortemReason::sigkill_reap, 1, "signal 9"));
    const auto pm = serve::load_postmortem(pm_path);
    ASSERT_TRUE(pm.has_value());
    EXPECT_EQ(pm->event_count(), 31u);
    ASSERT_TRUE(pm->last_watermark().has_value());
    EXPECT_EQ(*pm->last_watermark(), 1234u);
}

// Drift-aware serving unit tests: temperature calibration (argmax
// preservation, fit quality, v3 checkpoint round trip), semantic checkpoint
// validation (NaN weights are a typed CheckpointError), the Page–Hinkley
// detector's sample-clock determinism (alarm at an exactly derivable step,
// never on a stationary stream), the DriftMonitor's standardized channels
// and prediction-rate histogram, the flow table's backwards-timestamp
// quarantine, the canary-gated reloader (accept / corrupt-reject /
// regressed-reject / CRC dedup), and the extended flow-accounting
// invariant `ingested == classified + unknown + sheds` across a
// crash + snapshot-restore boundary carrying the model generation.

#include "fptc/nn/calibration.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/serialize.hpp"
#include "fptc/serve/backend.hpp"
#include "fptc/serve/drift.hpp"
#include "fptc/serve/flow_table.hpp"
#include "fptc/serve/reload.hpp"
#include "fptc/serve/service.hpp"
#include "fptc/serve/snapshot.hpp"
#include "fptc/serve/stream.hpp"
#include "fptc/trafficgen/drift.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/rng.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
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

nn::Sequential tiny_network(std::uint64_t seed)
{
    nn::ModelConfig config;
    config.flowpic_dim = 16;
    config.num_classes = 5;
    config.seed = seed;
    return nn::make_supervised_network(config);
}

} // namespace

// ---------------------------------------------------------------------------
// temperature scaling
// ---------------------------------------------------------------------------

TEST(CalibrationTemperature, ScalingNeverChangesArgmaxOnlyConfidence)
{
    const std::vector<float> logits = {2.0f, -1.0f, 0.5f, 3.5f, 0.0f};
    const auto base = nn::softmax_row(logits, 1.0);
    const std::size_t argmax_base =
        static_cast<std::size_t>(std::max_element(base.begin(), base.end()) - base.begin());
    double previous_max = 2.0;  // above any probability
    for (const double temperature : {0.25, 0.5, 1.0, 4.0, 32.0, 500.0}) {
        const auto probs = nn::softmax_row(logits, temperature);
        double total = 0.0;
        for (const double p : probs) {
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << "T=" << temperature;
        const std::size_t argmax =
            static_cast<std::size_t>(std::max_element(probs.begin(), probs.end()) -
                                     probs.begin());
        EXPECT_EQ(argmax, argmax_base) << "T=" << temperature;
        // Monotone: raising T flattens the distribution, so the max-class
        // confidence — what the open-set threshold reads — only falls.
        EXPECT_LT(probs[argmax], previous_max) << "T=" << temperature;
        previous_max = probs[argmax];
    }
}

TEST(CalibrationTemperature, FittedTemperatureNeverWorseNllThanUnit)
{
    // Systematically overconfident logits (scaled-up margins): the fitted
    // temperature must be > 1 and must not lose to T = 1 on NLL.
    const std::size_t n = 64;
    const std::size_t k = 5;
    util::Rng rng(7);
    std::vector<float> data(n * k);
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        labels[i] = static_cast<std::size_t>(rng.uniform(0.0, 1.0) * k) % k;
        for (std::size_t j = 0; j < k; ++j) {
            // Overconfident but imperfect: big margin toward a class that is
            // only usually the label.
            const bool hot = (rng.uniform(0.0, 1.0) < 0.7) ? (j == labels[i]) : (j == (labels[i] + 1) % k);
            data[i * k + j] = static_cast<float>(rng.uniform(-0.5, 0.5)) + (hot ? 12.0f : 0.0f);
        }
    }
    nn::Tensor logits({n, k}, std::move(data));
    const double fitted = nn::fit_temperature(logits, labels);
    EXPECT_GT(fitted, 1.0);
    EXPECT_LE(fitted, nn::kMaxTemperature);
    EXPECT_LE(nn::calibration_nll(logits, labels, fitted),
              nn::calibration_nll(logits, labels, 1.0) + 1e-12);
}

TEST(CalibrationTemperature, DegenerateInputFitsToUnit)
{
    nn::Tensor empty({0, 5});
    EXPECT_DOUBLE_EQ(nn::fit_temperature(empty, {}), 1.0);
}

// ---------------------------------------------------------------------------
// checkpoint format v3: calibration round trip + semantic validation
// ---------------------------------------------------------------------------

TEST(CalibrationCheckpoint, V3RoundTripCarriesTemperature)
{
    TempDir dir("fptc_ckpt_v3");
    const std::string path = dir.file("model.ckpt");
    nn::Sequential saved = tiny_network(3);
    nn::Calibration calibration;
    calibration.temperature = 3.5;
    nn::save_network(saved, path, calibration);

    nn::Sequential loaded = tiny_network(99);  // different init, same shapes
    nn::Calibration restored;
    nn::load_network(loaded, path, &restored);
    EXPECT_DOUBLE_EQ(restored.temperature, 3.5);
    EXPECT_TRUE(restored.calibrated());

    // The weights themselves round-trip too.
    const auto a = saved.parameters();
    const auto b = loaded.parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i]->value.data().size(), b[i]->value.data().size());
        for (std::size_t j = 0; j < a[i]->value.data().size(); ++j) {
            EXPECT_EQ(a[i]->value.data()[j], b[i]->value.data()[j]);
        }
    }
}

TEST(CalibrationCheckpoint, LegacyV2StreamDefaultsToUncalibrated)
{
    nn::Sequential network = tiny_network(4);
    std::stringstream stream;
    nn::save_parameters(network.parameters(), stream, 2);
    nn::Calibration calibration;
    calibration.temperature = 777.0;  // must be overwritten by the default
    nn::load_parameters(tiny_network(5).parameters(), stream, &calibration);
    EXPECT_DOUBLE_EQ(calibration.temperature, 1.0);
    EXPECT_FALSE(calibration.calibrated());
}

TEST(CalibrationCheckpoint, NaNWeightIsTypedCheckpointError)
{
    nn::Sequential network = tiny_network(6);
    const auto params = network.parameters();
    params.front()->value.data()[0] = std::numeric_limits<float>::quiet_NaN();

    // The bytes are structurally perfect — correct magic, shapes, CRC —
    // which is exactly why the *semantic* pass must catch them.
    std::stringstream stream;
    nn::save_parameters(params, stream, nn::kSerializeVersion);

    std::string error;
    EXPECT_FALSE(nn::verify_checkpoint(stream, &error));
    EXPECT_FALSE(error.empty());

    stream.clear();
    stream.seekg(0);
    EXPECT_THROW(nn::load_parameters(tiny_network(7).parameters(), stream),
                 nn::CheckpointError);
}

TEST(CalibrationCheckpoint, OutOfRangeWeightIsTypedCheckpointError)
{
    nn::Sequential network = tiny_network(8);
    const auto params = network.parameters();
    params.front()->value.data()[0] = nn::kMaxAbsWeight * 2.0f;
    std::stringstream stream;
    nn::save_parameters(params, stream, nn::kSerializeVersion);
    EXPECT_THROW(nn::load_parameters(tiny_network(9).parameters(), stream),
                 nn::CheckpointError);
}

// ---------------------------------------------------------------------------
// Page–Hinkley: the clock is the sample index — tests script it exactly
// ---------------------------------------------------------------------------

TEST(DriftPageHinkley, AlarmsAtExactlyTheDerivableSample)
{
    // delta=0.1, lambda=2, warmup 5.  Ten samples at 0.0 leave the running
    // mean at 0 and the up-statistic at 0.  Each subsequent 1.0 adds
    // (1 - mean_t - 0.1) to the up cumulative: +0.809 (mean 1/11), +0.733
    // (mean 2/12), +0.669 (mean 3/13) — crossing lambda=2 at cumulative
    // 2.212 on the 13th sample, not before, not after.
    serve::PageHinkleyConfig config{.delta = 0.1, .lambda = 2.0, .min_samples = 5};
    serve::PageHinkley detector(config);
    std::uint64_t alarm_at = 0;
    for (std::uint64_t i = 1; i <= 20 && alarm_at == 0; ++i) {
        if (detector.add(i <= 10 ? 0.0 : 1.0)) {
            alarm_at = i;
        }
    }
    EXPECT_EQ(alarm_at, 13u);
    EXPECT_EQ(detector.alarms(), 1u);
    // The alarm re-baselined the detector: its statistic starts over.
    EXPECT_EQ(detector.samples(), 0u);
    EXPECT_DOUBLE_EQ(detector.statistic(), 0.0);
}

TEST(DriftPageHinkley, StationarySignalNeverAlarms)
{
    serve::PageHinkleyConfig config{.delta = 0.05, .lambda = 5.0, .min_samples = 16};
    serve::PageHinkley detector(config);
    // A deterministic zero-mean cycle: the per-sample deviations cancel and
    // the delta drift keeps both cumulative statistics pinned near zero.
    const double cycle[4] = {0.45, 0.55, 0.5, 0.5};
    for (std::size_t i = 0; i < 10000; ++i) {
        EXPECT_FALSE(detector.add(cycle[i % 4])) << "sample " << i;
    }
    EXPECT_EQ(detector.alarms(), 0u);
    EXPECT_EQ(detector.samples(), 10000u);
}

TEST(DriftPageHinkley, DownwardShiftAlarmsToo)
{
    serve::PageHinkleyConfig config{.delta = 0.1, .lambda = 2.0, .min_samples = 5};
    serve::PageHinkley detector(config);
    bool alarmed = false;
    for (std::uint64_t i = 1; i <= 40 && !alarmed; ++i) {
        alarmed = detector.add(i <= 10 ? 1.0 : 0.0);
    }
    EXPECT_TRUE(alarmed);
}

// ---------------------------------------------------------------------------
// DriftMonitor: standardized channels + prediction-rate histogram
// ---------------------------------------------------------------------------

TEST(DriftMonitorUnit, DisabledMonitorObservesNothing)
{
    serve::DriftMonitor monitor({.lambda = 0.0});
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(monitor.observe({.confidence = 0.5 + 0.4 * (i % 2),
                                      .predicted = 0,
                                      .mean_packet_size = 100.0,
                                      .packet_count = 10}));
    }
    EXPECT_EQ(monitor.stats().samples, 0u);
    EXPECT_EQ(monitor.stats().total(), 0u);
}

TEST(DriftMonitorUnit, ConfidenceCollapseAlarmsOncePerShift)
{
    serve::DriftMonitorConfig config;
    config.lambda = 10.0;
    config.delta = 0.1;
    config.min_samples = 32;
    serve::DriftMonitor monitor(config);

    // Stationary regime: a deterministic confidence cycle with nonzero
    // variance (so the standardizer learns a real sigma), steady inputs.
    const double high[4] = {0.82, 0.90, 0.86, 0.88};
    for (std::size_t i = 0; i < 400; ++i) {
        const bool alarm = monitor.observe({.confidence = high[i % 4],
                                            .predicted = i % 5,
                                            .mean_packet_size = 400.0 + 10.0 * (i % 3),
                                            .packet_count = 20 + i % 4});
        EXPECT_FALSE(alarm) << "false alarm at stationary sample " << i;
    }
    ASSERT_EQ(monitor.stats().total(), 0u);

    // Confidence collapses (the classic drift signature) while inputs stay
    // put: only the confidence channel may fire, and a *sustained* shift
    // must alarm once, not once per sample.
    const double low[4] = {0.30, 0.38, 0.34, 0.36};
    for (std::size_t i = 0; i < 400; ++i) {
        monitor.observe({.confidence = low[i % 4],
                         .predicted = i % 5,
                         .mean_packet_size = 400.0 + 10.0 * (i % 3),
                         .packet_count = 20 + i % 4});
    }
    EXPECT_GE(monitor.stats().alarms_confidence, 1u);
    EXPECT_LE(monitor.stats().alarms_confidence, 2u);
    EXPECT_EQ(monitor.stats().alarms_rate, 0u);
    EXPECT_GT(monitor.stats().first_alarm_sample, 400u);
    EXPECT_EQ(monitor.stats().samples, 800u);
}

TEST(DriftMonitorUnit, PredictionRateShiftAlarms)
{
    serve::DriftMonitorConfig config;
    config.lambda = 1e6;  // scalar channels effectively off; monitor enabled
    config.delta = 0.1;
    config.min_samples = 16;
    config.num_classes = 5;
    config.rate_window = 50;
    config.rate_threshold = 1.0;
    serve::DriftMonitor monitor(config);

    const auto steady = [&](std::size_t i) {
        return serve::DriftObservation{.confidence = 0.5 + 0.1 * (i % 2),
                                       .predicted = i % 5,
                                       .mean_packet_size = 300.0 + (i % 7),
                                       .packet_count = 12 + i % 3};
    };
    // Reference window (uniform mix) + a full uniform sliding window.
    for (std::size_t i = 0; i < 200; ++i) {
        EXPECT_FALSE(monitor.observe(steady(i))) << "sample " << i;
    }
    // The mix collapses onto one class: L1 distance vs the uniform
    // reference tends to 2 * (1 - 1/5) = 1.6 > threshold 1.0.
    bool alarmed = false;
    for (std::size_t i = 0; i < 200 && !alarmed; ++i) {
        auto observation = steady(i);
        observation.predicted = 0;
        alarmed = monitor.observe(observation);
    }
    EXPECT_TRUE(alarmed);
    EXPECT_EQ(monitor.stats().alarms_rate, 1u);
    EXPECT_EQ(monitor.stats().alarms_confidence, 0u);
}

// ---------------------------------------------------------------------------
// flow table: backwards-timestamp quarantine
// ---------------------------------------------------------------------------

namespace {

serve::PacketEvent event_at(std::uint64_t flow_id, double ts)
{
    return serve::PacketEvent{.flow_id = flow_id,
                              .label = 1,
                              .timestamp = ts,
                              .size = 200.0,
                              .direction = flow::Direction::upstream,
                              .flow_end = false};
}

} // namespace

TEST(ServeFlowTableQuarantine, BackwardsTimestampIsDroppedFlowKeepsServing)
{
    serve::FlowTable table(1 << 20, 15.0);
    EXPECT_TRUE(table.add_packet(event_at(1, 1.0)).admitted);
    EXPECT_TRUE(table.add_packet(event_at(1, 2.0)).admitted);

    // A time-warped packet: quarantined, not admitted, nothing evicted.
    const auto warped = table.add_packet(event_at(1, 0.5));
    EXPECT_TRUE(warped.quarantined_backwards);
    EXPECT_FALSE(warped.admitted);
    EXPECT_FALSE(warped.shed_self);
    EXPECT_EQ(warped.evicted, 0u);

    // The flow itself keeps serving: later packets still land.
    EXPECT_TRUE(table.add_packet(event_at(1, 2.5)).admitted);

    auto ready = table.flush_all();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].flow.packets.size(), 3u);  // the warped one is gone
    for (std::size_t i = 1; i < ready[0].flow.packets.size(); ++i) {
        EXPECT_GE(ready[0].flow.packets[i].timestamp,
                  ready[0].flow.packets[i - 1].timestamp);
    }
}

TEST(ServeFlowTableQuarantine, JitterWithinToleranceIsAdmitted)
{
    serve::FlowTable table(1 << 20, 15.0);
    EXPECT_TRUE(table.add_packet(event_at(1, 1.0)).admitted);
    // Sub-tolerance reordering (capture jitter) is not an attack.
    const auto jitter =
        table.add_packet(event_at(1, 1.0 - serve::FlowTable::kBackwardsTolerance / 2.0));
    EXPECT_TRUE(jitter.admitted);
    EXPECT_FALSE(jitter.quarantined_backwards);
    auto ready = table.flush_all();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].flow.packets.size(), 2u);
}

// ---------------------------------------------------------------------------
// canary-gated reload
// ---------------------------------------------------------------------------

TEST(ServeReload, DisabledWithoutTargetOrPath)
{
    serve::ReloadConfig config;
    config.path = "somewhere.ckpt";
    serve::ModelReloader no_target(config, nullptr);
    EXPECT_FALSE(no_target.enabled());
    EXPECT_EQ(no_target.check_now(), serve::ModelReloader::Outcome::disabled);

    auto backend = serve::CnnBackend::untrained(16, 5, 1);
    config.path.clear();
    serve::ModelReloader no_path(config, backend.get());
    EXPECT_FALSE(no_path.enabled());
    EXPECT_EQ(no_path.check_now(), serve::ModelReloader::Outcome::disabled);
}

TEST(ServeReload, GoodCandidateReloadsOnceAndBumpsGeneration)
{
    TempDir dir("fptc_reload_good");
    const std::string path = dir.file("candidate.ckpt");
    auto backend = serve::CnnBackend::untrained(16, 5, 11);

    serve::ReloadConfig config;
    config.path = path;
    config.canary_flows = 4;
    config.num_classes = 5;
    config.seed = 11;
    serve::ModelReloader reloader(config, backend.get());
    EXPECT_TRUE(reloader.enabled());
    EXPECT_EQ(reloader.check_now(), serve::ModelReloader::Outcome::no_candidate);

    // An identical copy of the incumbent replays at identical golden
    // accuracy — within any tolerance, so it must be accepted.
    nn::Calibration calibration;
    calibration.temperature = 2.25;
    nn::save_network(backend->network(), path, calibration);
    EXPECT_EQ(reloader.check_now(), serve::ModelReloader::Outcome::reloaded);
    EXPECT_EQ(reloader.model_generation(), 1u);
    EXPECT_EQ(reloader.stats().reloads, 1u);
    EXPECT_EQ(reloader.stats().rollbacks, 0u);
    // The candidate's persisted calibration came along with the swap.
    EXPECT_DOUBLE_EQ(backend->calibration().temperature, 2.25);

    // Same bytes on disk: the CRC dedup refuses to re-canary.
    EXPECT_EQ(reloader.check_now(), serve::ModelReloader::Outcome::unchanged);
    EXPECT_EQ(reloader.stats().attempts, 1u);
}

TEST(ServeReload, CorruptCandidateRollsBackWithTypedReason)
{
    TempDir dir("fptc_reload_corrupt");
    const std::string path = dir.file("candidate.ckpt");
    auto backend = serve::CnnBackend::untrained(16, 5, 13);

    // Structurally valid, CRC-correct, semantically poisoned: written via
    // save_parameters because save_network would refuse to publish it.
    {
        nn::Sequential poisoned_network = tiny_network(13);
        const auto params = poisoned_network.parameters();
        params.front()->value.data()[0] = std::numeric_limits<float>::quiet_NaN();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        nn::save_parameters(params, out, nn::kSerializeVersion);
    }

    serve::ReloadConfig config;
    config.path = path;
    config.canary_flows = 4;
    config.seed = 13;
    serve::ModelReloader reloader(config, backend.get());
    EXPECT_EQ(reloader.check_now(), serve::ModelReloader::Outcome::rolled_back);
    EXPECT_EQ(reloader.stats().rollbacks, 1u);
    EXPECT_EQ(reloader.stats().rejected_invalid, 1u);
    EXPECT_EQ(reloader.stats().reloads, 0u);
    EXPECT_EQ(reloader.model_generation(), 0u);
    EXPECT_FALSE(reloader.stats().last_error.empty());

    // The rejected bytes are remembered: no re-canary loop on a bad file.
    EXPECT_EQ(reloader.check_now(), serve::ModelReloader::Outcome::unchanged);
    EXPECT_EQ(reloader.stats().attempts, 1u);
}

TEST(ServeReload, RegressedCandidateFailsGoldenReplay)
{
    TempDir dir("fptc_reload_regressed");
    const std::string path = dir.file("candidate.ckpt");

    // A briefly trained incumbent vs a deterministically useless candidate:
    // all-zero weights give all-zero logits, so argmax always lands on
    // class 0 and golden accuracy is exactly 1/num_classes on the balanced
    // buffer — the golden replay must separate them.
    auto bundle = serve::make_backends(16, 16, 5, 21, 8, 2);
    serve::CnnBackend& incumbent = *bundle.full;

    serve::ReloadConfig config;
    config.path = path;
    config.canary_flows = 8;
    config.tolerance = 0.05;
    config.seed = 21;
    serve::ModelReloader reloader(config, &incumbent);

    auto zeroed = serve::CnnBackend::untrained(16, 5, 987);
    for (nn::Parameter* parameter : zeroed->network().parameters()) {
        std::fill(parameter->value.data().begin(), parameter->value.data().end(), 0.0f);
    }
    const double incumbent_accuracy = reloader.golden_accuracy(incumbent);
    const double candidate_accuracy = reloader.golden_accuracy(*zeroed);
    EXPECT_DOUBLE_EQ(candidate_accuracy, 0.2);
    ASSERT_GT(incumbent_accuracy, candidate_accuracy + config.tolerance)
        << "fixture lost its accuracy separation; retune seeds";

    nn::save_network(zeroed->network(), path);
    EXPECT_EQ(reloader.check_now(), serve::ModelReloader::Outcome::rolled_back);
    EXPECT_EQ(reloader.stats().rejected_accuracy, 1u);
    EXPECT_EQ(reloader.model_generation(), 0u);
    EXPECT_DOUBLE_EQ(reloader.stats().incumbent_accuracy, incumbent_accuracy);
    EXPECT_DOUBLE_EQ(reloader.stats().candidate_accuracy, candidate_accuracy);
}

// ---------------------------------------------------------------------------
// snapshot v2 + extended invariant across restart/restore
// ---------------------------------------------------------------------------

TEST(ServeSnapshotV2, RoundTripCarriesDriftCountersAndModelGeneration)
{
    serve::ServeSnapshot snap;
    snap.watermark = 77;
    snap.stream_now = 3.5;
    snap.generation = 2;
    snap.model_generation = 4;
    snap.config_fingerprint = 0xabcdULL;
    snap.counters.flows_ingested = 50;
    snap.counters.flows_classified = 30;
    snap.counters.flows_unknown = 12;
    snap.counters.unknown_truth_total = 10;
    snap.counters.unknown_truth_rejected = 9;
    snap.counters.events_quarantined_backwards = 3;
    snap.counters.drift_alarms = 2;
    snap.counters.reloads = 4;
    snap.counters.reload_rollbacks = 1;

    const auto decoded = serve::decode_snapshot(serve::encode_snapshot(snap));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->model_generation, 4u);
    EXPECT_EQ(decoded->counters.flows_unknown, 12u);
    EXPECT_EQ(decoded->counters.unknown_truth_total, 10u);
    EXPECT_EQ(decoded->counters.unknown_truth_rejected, 9u);
    EXPECT_EQ(decoded->counters.events_quarantined_backwards, 3u);
    EXPECT_EQ(decoded->counters.drift_alarms, 2u);
    EXPECT_EQ(decoded->counters.reloads, 4u);
    EXPECT_EQ(decoded->counters.reload_rollbacks, 1u);
}

TEST(ServeDriftE2E, OpenSetRejectionKeepsExtendedInvariant)
{
    serve::ServeConfig config;
    config.batch_size = 8;
    config.flowpic_dim = 16;
    config.reduced_dim = 16;
    config.deadline_ms = 2000.0;
    config.unknown_thresh = 0.9;  // untrained CNN scores ~1/num_classes

    trafficgen::DriftSchedule drift;
    drift.unknown_rate = 0.4;
    drift.at = 0.0;

    auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                         config.num_classes, 42);
    serve::InterleavedStream stream(
        {.flows = 60, .num_classes = config.num_classes, .seed = 9, .drift = drift});
    ASSERT_GT(stream.unknown_flows(), 0u);
    serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                       *backends.fallback);
    const serve::ServeReport report = service.run(stream);

    EXPECT_TRUE(report.accounted()) << report.summary();
    EXPECT_GT(report.flows_unknown, 0u);
    EXPECT_EQ(report.flows_ingested,
              report.flows_classified + report.flows_unknown + report.shed_total());
    // Oracle: every unknown-truth flow that reached a verdict was rejected,
    // not silently misclassified as one of the five trained classes.
    EXPECT_EQ(report.unknown_truth_rejected, report.unknown_truth_total);
}

TEST(ServeDriftE2E, InvariantAndModelGenerationSurviveRestore)
{
    TempDir dir("fptc_drift_restore");
    const std::string path = dir.file("snapshot.bin");
    serve::ServeConfig config;
    config.batch_size = 8;
    config.flowpic_dim = 16;
    config.reduced_dim = 16;
    config.deadline_ms = 2000.0;
    config.unknown_thresh = 0.9;
    config.snapshot_path = path;
    config.snapshot_every = 0;
    config.generation = 1;

    // The crashed generation had rejected 4 flows as unknown and survived
    // one accepted hot reload; its snapshot carries both.
    serve::ServeSnapshot snap;
    snap.watermark = 40;
    snap.generation = 0;
    snap.model_generation = 3;
    snap.config_fingerprint = config.fingerprint();
    snap.counters.events_total = 40;
    snap.counters.flows_ingested = 10;
    snap.counters.flows_classified = 5;
    snap.counters.flows_unknown = 4;
    snap.counters.unknown_truth_total = 3;
    snap.counters.unknown_truth_rejected = 3;
    snap.counters.drift_alarms = 1;
    serve::save_snapshot(path, snap);

    const std::size_t before = util::mem_budget().in_use();
    serve::ServeReport report;
    {
        auto backends = serve::make_backends(config.flowpic_dim, config.reduced_dim,
                                             config.num_classes, 42);
        serve::InterleavedStream stream({.flows = 40, .seed = 11});
        serve::StreamingClassifier service(config, *backends.full, *backends.reduced,
                                           *backends.fallback);
        report = service.run(stream);
    }

    EXPECT_TRUE(report.restored);
    EXPECT_EQ(report.model_generation, 3u);  // carried across the crash
    EXPECT_EQ(report.drift_alarms, 1u);
    EXPECT_GE(report.flows_unknown, 4u);
    EXPECT_GT(report.flows_ingested, 10u);
    // One pre-crash flow was in flight (10 ingested = 5 classified +
    // 4 unknown + 1 lost): the extended invariant still balances because
    // the restore types that flow as restart_loss.
    EXPECT_EQ(report.shed_restart_loss, 1u);
    EXPECT_TRUE(report.accounted()) << report.summary();
    EXPECT_EQ(report.flows_ingested,
              report.flows_classified + report.flows_unknown + report.shed_total());
    EXPECT_EQ(util::mem_budget().in_use(), before);
}

// ---------------------------------------------------------------------------
// trafficgen drift schedule
// ---------------------------------------------------------------------------

TEST(TrafficgenDrift, InactiveScheduleKeepsStreamBitIdentical)
{
    serve::InterleavedStream plain({.flows = 50, .seed = 5});
    serve::InterleavedStream with_inactive({.flows = 50, .seed = 5, .drift = {}});
    ASSERT_EQ(plain.base_events(), with_inactive.base_events());
    for (;;) {
        const auto a = plain.next();
        const auto b = with_inactive.next();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a) {
            break;
        }
        EXPECT_EQ(a->flow_id, b->flow_id);
        EXPECT_EQ(a->label, b->label);
        EXPECT_EQ(a->timestamp, b->timestamp);
        EXPECT_EQ(a->size, b->size);
    }
}

TEST(TrafficgenDrift, ShiftWeightFollowsTheSchedule)
{
    trafficgen::DriftSchedule step;
    step.mode = trafficgen::DriftSchedule::Mode::step;
    step.at = 0.5;
    step.magnitude = 0.8;
    EXPECT_DOUBLE_EQ(step.shift_weight(0.0), 0.0);
    EXPECT_DOUBLE_EQ(step.shift_weight(0.49), 0.0);
    EXPECT_DOUBLE_EQ(step.shift_weight(0.5), 0.8);
    EXPECT_DOUBLE_EQ(step.shift_weight(1.0), 0.8);

    trafficgen::DriftSchedule linear;
    linear.mode = trafficgen::DriftSchedule::Mode::linear;
    linear.at = 0.5;
    linear.magnitude = 1.0;
    EXPECT_DOUBLE_EQ(linear.shift_weight(0.5), 0.0);
    EXPECT_DOUBLE_EQ(linear.shift_weight(0.75), 0.5);
    EXPECT_DOUBLE_EQ(linear.shift_weight(1.0), 1.0);
}

TEST(TrafficgenDrift, UnknownInjectionLabelsOutsideTrainedClasses)
{
    trafficgen::DriftSchedule drift;
    drift.unknown_rate = 1.0;  // every flow after `at` is an unknown app
    drift.at = 0.0;
    serve::InterleavedStream stream({.flows = 30, .num_classes = 5, .seed = 3, .drift = drift});
    EXPECT_EQ(stream.unknown_flows(), stream.flow_count());
    while (auto event = stream.next()) {
        EXPECT_EQ(event->label, 5u);
    }
}

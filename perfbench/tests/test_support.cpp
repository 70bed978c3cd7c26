// Unit tests for the benchmark's own measurement logic.
#include "stats.hpp"
#include "timed_layer.hpp"
#include "trace.hpp"

#include "fptc/nn/models.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace {

using namespace perfbench;

// --- quantiles and the ">= 10 samples beyond" rule ------------------------

TEST(Quantile, NearestRankOnKnownSamples)
{
    std::vector<double> samples(100);
    std::iota(samples.begin(), samples.end(), 1.0);  // 1..100, shuffled below
    std::swap(samples[3], samples[97]);
    EXPECT_EQ(quantile(samples, 0.50), 50.0);
    EXPECT_EQ(quantile(samples, 0.99), 99.0);
    EXPECT_EQ(quantile(samples, 1.0), 100.0);
    EXPECT_EQ(median(samples), 50.5);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Quantile, BeyondCountsSamplesStrictlyAboveTheRank)
{
    EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
    EXPECT_EQ(samples_beyond(999, 0.99), 9u);
    EXPECT_EQ(samples_beyond(100, 0.5), 50u);
    EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Quantile, MinSamplesLeavesTenBeyond)
{
    EXPECT_EQ(min_samples_for(0.99), 1000u);
    EXPECT_EQ(min_samples_for(0.5), 20u);
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
        const std::size_t n = min_samples_for(q);
        EXPECT_GE(samples_beyond(n, q), kMinBeyond) << q;
        EXPECT_LT(samples_beyond(n - 1, q), kMinBeyond) << q;
    }
}

TEST(Quantile, P99IsWithheldUntilTenSamplesLieBeyondIt)
{
    std::vector<double> samples(999, 1.0);
    EXPECT_FALSE(reportable_quantile(samples, 0.99).has_value());
    samples.push_back(5.0);
    const auto p99 = reportable_quantile(samples, 0.99);
    ASSERT_TRUE(p99.has_value());
    EXPECT_EQ(*p99, 1.0);
}

// --- span self time ---------------------------------------------------------

TEST(SelfTime, SubtractsTheUnionOfChildIntervalsClippedToTheSpan)
{
    // [10,30] and [20,50] overlap -> [10,50]; [90,120] clips to [90,100].
    EXPECT_EQ(self_time(0, 100, {{90, 120}, {10, 30}, {20, 50}}), 50u);
    EXPECT_EQ(self_time(0, 100, {}), 100u);
    EXPECT_EQ(self_time(0, 100, {{0, 100}}), 0u);
    EXPECT_EQ(self_time(50, 100, {{0, 60}, {70, 80}}), 30u);
    EXPECT_EQ(self_time(0, 100, {{30, 40}, {32, 35}}), 90u);
}

TEST(SelfTime, RecorderAttributesNestedSpans)
{
    SpanRecorder recorder;
    const auto root_name = recorder.intern("root");
    const auto child_name = recorder.intern("child");
    EXPECT_EQ(recorder.intern("root"), root_name);
    const auto root = recorder.open(root_name, 0);
    const auto child = recorder.open(child_name, 10);
    recorder.close(child, 40);
    recorder.add_closed(child_name, 60, 70);
    recorder.close(root, 100);
    ASSERT_EQ(recorder.spans().size(), 3u);
    EXPECT_EQ(recorder.spans()[child].parent, root);
    const auto self = recorder.self_times();
    EXPECT_EQ(self[root], 60u);
    EXPECT_EQ(self[child], 30u);
    const auto totals = recorder.totals_by_name();
    EXPECT_EQ(totals.at("child").count, 2u);
    EXPECT_EQ(totals.at("child").total_ns, 40u);
    EXPECT_EQ(totals.at("root").self_ns, 60u);
    EXPECT_THROW(recorder.close(root, 200), std::logic_error);
}

TEST(SelfTime, ChromeJsonHoldsBalancedPairs)
{
    SpanRecorder recorder;
    const auto root = recorder.open(recorder.intern("root"), 1000);
    recorder.add_closed(recorder.intern("leaf"), 1000, 1000);
    recorder.close(root, 1000);
    const std::string json = recorder.chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // root B, leaf B, leaf E, root E at one timestamp
    const auto root_b = json.find("\"root\", \"cat\": \"perfbench\", \"ph\": \"B\"");
    const auto leaf_b = json.find("\"leaf\", \"cat\": \"perfbench\", \"ph\": \"B\"");
    const auto leaf_e = json.find("\"leaf\", \"cat\": \"perfbench\", \"ph\": \"E\"");
    const auto root_e = json.find("\"root\", \"cat\": \"perfbench\", \"ph\": \"E\"");
    ASSERT_NE(root_e, std::string::npos);
    EXPECT_LT(root_b, leaf_b);
    EXPECT_LT(leaf_b, leaf_e);
    EXPECT_LT(leaf_e, root_e);
}

// --- deltas of the cumulative registry histograms ---------------------------

TEST(HistogramDeltaTest, SecondPhaseReadsOnlyItsOwnObservations)
{
    fptc::util::Histogram histogram;
    histogram.observe(100);
    histogram.observe(300);
    const HistogramMark before = mark(histogram);
    histogram.observe(1000);
    histogram.observe(3000);
    histogram.observe(5);
    const HistogramDelta d = delta(before, mark(histogram));
    EXPECT_EQ(d.count, 3u);
    EXPECT_EQ(d.sum, 4005u);
    EXPECT_DOUBLE_EQ(d.mean(), 1335.0);
    EXPECT_EQ(delta(mark(histogram), mark(histogram)).mean(), 0.0);
    EXPECT_THROW((void)delta(mark(histogram), before), std::logic_error);
}

// --- metric names and the result line --------------------------------------

TEST(MetricNames, MatchTheAllowedAlphabet)
{
    for (const char* good : {"setup_s", "nn.train.conv1.fwd_us", "classify1_ms_p50", "a-b",
                             "0x"}) {
        EXPECT_TRUE(valid_metric_name(good)) << good;
    }
    for (const char* bad : {"", "_x", ".x", "a b", "a/b", "lat(ms)", "é"}) {
        EXPECT_FALSE(valid_metric_name(bad)) << bad;
    }
    EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, EveryReportedLayerNameIsValid)
{
    for (const char* group : kLayerGroups) {
        for (const char* stem : {"nn.train.", "nn.infer."}) {
            EXPECT_TRUE(valid_metric_name(std::string(stem) + group + ".fwd_us"));
            EXPECT_TRUE(valid_metric_name(std::string(stem) + group + ".bwd_us"));
        }
    }
}

TEST(MetricSetTest, RejectsBadNamesRepeatsAndNonFiniteValues)
{
    MetricSet metrics;
    metrics.add("setup_s", 0.8127, "s");
    EXPECT_THROW(metrics.add("setup_s", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(metrics.add("bad name", 1.0, "s"), std::invalid_argument);
    EXPECT_THROW(metrics.add("nan_s", std::nan(""), "s"), std::invalid_argument);
    EXPECT_EQ(metrics.result_line(true, 3, 0),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
              "{\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}}}");
}

// --- the per-layer view -----------------------------------------------------

TEST(TimedView, GroupsLeNetLayersAndLeavesOutputsUnchanged)
{
    fptc::nn::ModelConfig config;
    config.with_dropout = false;
    auto network = fptc::nn::make_supervised_network(config);
    SpanRecorder recorder;
    LayerNamer namer;
    auto view = timed_view(network, recorder, "nn.infer", namer);
    ASSERT_EQ(view.layer_count(), network.layer_count());

    fptc::nn::Tensor input({2, 1, 32, 32});
    auto data = input.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<float>(i % 7) / 7.0f;
    }
    const auto expected = network.forward(input, false);
    const auto actual = view.forward(input, false);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected.data()[i], actual.data()[i]);
    }
    const auto totals = recorder.totals_by_name();
    for (const char* group : {"conv1", "pool1", "conv2", "pool2", "fc1", "fc2", "fc3", "other"}) {
        EXPECT_EQ(totals.count(std::string("nn.infer.") + group + ".fwd"), 1u) << group;
    }
    EXPECT_EQ(totals.at("nn.infer.conv1.fwd").count, 1u);
}

} // namespace

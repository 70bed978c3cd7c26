// Unit tests for the gradient-boosted-trees baseline, the pin of
// GbtClassifier::fit to its scalar reference (tests/gbt_reference.hpp), and
// the pin of every node histogram to the plain per-sample scatter on both
// instruction sets.
#include "gbt_reference.hpp"
#include "histogram.hpp"

#include "fptc/flow/features.hpp"
#include "fptc/flowpic/flowpic.hpp"
#include "fptc/gbt/gbt.hpp"
#include "fptc/trafficgen/traffic_model.hpp"
#include "fptc/trafficgen/ucdavis19.hpp"
#include "fptc/util/isa.hpp"
#include "fptc/util/membudget.hpp"
#include "fptc/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

namespace {

using namespace fptc::gbt;

/// Gaussian blobs, one per class, linearly separable in feature 0.
void make_blobs(std::size_t n_per_class, std::size_t classes, std::size_t dims, double spread,
                std::vector<std::vector<float>>& features, std::vector<std::size_t>& labels,
                std::uint64_t seed = 1)
{
    fptc::util::Rng rng(seed);
    for (std::size_t c = 0; c < classes; ++c) {
        for (std::size_t i = 0; i < n_per_class; ++i) {
            std::vector<float> row(dims);
            for (std::size_t d = 0; d < dims; ++d) {
                row[d] = static_cast<float>(rng.normal(static_cast<double>(c) * 3.0, spread));
            }
            features.push_back(std::move(row));
            labels.push_back(c);
        }
    }
}

TEST(Gbt, LearnsSeparableBlobs)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(60, 3, 4, 0.5, features, labels);

    GbtConfig config;
    config.num_rounds = 30;
    GbtClassifier model(config, 3);
    model.fit(features, labels);

    std::size_t correct = 0;
    for (std::size_t i = 0; i < features.size(); ++i) {
        if (model.predict(features[i]) == labels[i]) {
            ++correct;
        }
    }
    EXPECT_GT(static_cast<double>(correct) / features.size(), 0.97);
}

TEST(Gbt, GeneralizesToHeldOut)
{
    std::vector<std::vector<float>> train_x;
    std::vector<std::size_t> train_y;
    make_blobs(80, 2, 6, 1.0, train_x, train_y, 1);
    std::vector<std::vector<float>> test_x;
    std::vector<std::size_t> test_y;
    make_blobs(40, 2, 6, 1.0, test_x, test_y, 2);

    GbtConfig config;
    config.num_rounds = 40;
    GbtClassifier model(config, 2);
    model.fit(train_x, train_y);
    const auto predictions = model.predict_batch(test_x);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test_x.size(); ++i) {
        correct += predictions[i] == test_y[i];
    }
    EXPECT_GT(static_cast<double>(correct) / test_x.size(), 0.9);
}

TEST(Gbt, LearnsXorInteraction)
{
    // XOR needs depth >= 2 splits: single-feature stumps cannot solve it.
    fptc::util::Rng rng(3);
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    for (int i = 0; i < 400; ++i) {
        const float a = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        const float b = rng.bernoulli(0.5) ? 1.0f : 0.0f;
        features.push_back({a + static_cast<float>(rng.normal(0, 0.05)),
                            b + static_cast<float>(rng.normal(0, 0.05))});
        labels.push_back(static_cast<std::size_t>(a != b));
    }
    GbtConfig config;
    config.num_rounds = 40;
    GbtClassifier model(config, 2);
    model.fit(features, labels);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < features.size(); ++i) {
        correct += model.predict(features[i]) == labels[i];
    }
    EXPECT_GT(static_cast<double>(correct) / features.size(), 0.95);
    EXPECT_GE(model.average_tree_depth(), 1.0);
}

TEST(Gbt, ProbabilitiesFormDistribution)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(30, 4, 3, 0.8, features, labels);
    GbtConfig config;
    config.num_rounds = 10;
    GbtClassifier model(config, 4);
    model.fit(features, labels);

    const auto proba = model.predict_proba(features.front());
    ASSERT_EQ(proba.size(), 4u);
    double total = 0.0;
    for (const double p : proba) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Gbt, TreeCountAndDepthBounds)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(40, 3, 2, 0.5, features, labels);
    GbtConfig config;
    config.num_rounds = 15;
    config.max_depth = 4;
    GbtClassifier model(config, 3);
    model.fit(features, labels);
    EXPECT_EQ(model.tree_count(), 45u); // rounds x classes
    EXPECT_LE(model.average_tree_depth(), 4.0);
    EXPECT_GT(model.average_tree_depth(), 0.0);
}

TEST(Gbt, EasyProblemsGrowShortTrees)
{
    // Mirrors the paper's observation (Sec. 4.1.2) that a nearly separable
    // problem yields very short trees (averages 1.3-1.7).
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(50, 2, 1, 0.1, features, labels); // trivially separable
    GbtClassifier model(GbtConfig{}, 2);
    model.fit(features, labels);
    EXPECT_LE(model.average_tree_depth(), 2.0);
}

TEST(Gbt, DeterministicFit)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(30, 2, 3, 1.0, features, labels);
    GbtConfig config;
    config.num_rounds = 5;
    GbtClassifier a(config, 2);
    GbtClassifier b(config, 2);
    a.fit(features, labels);
    b.fit(features, labels);
    for (const auto& row : features) {
        EXPECT_EQ(a.predict_proba(row), b.predict_proba(row));
    }
}

TEST(Gbt, ValidatesInput)
{
    GbtClassifier model(GbtConfig{}, 3);
    EXPECT_THROW(model.fit({}, {}), std::invalid_argument);
    EXPECT_THROW(model.fit({{1.0f}}, {0, 1}), std::invalid_argument);
    EXPECT_THROW(model.fit({{1.0f}, {1.0f, 2.0f}}, {0, 1}), std::invalid_argument);
    EXPECT_THROW(model.fit({{1.0f}, {2.0f}}, {0, 7}), std::invalid_argument);
    EXPECT_THROW(GbtClassifier(GbtConfig{}, 1), std::invalid_argument);
    GbtConfig bad;
    bad.num_rounds = 0;
    EXPECT_THROW(GbtClassifier(bad, 2), std::invalid_argument);

    // Non-finite features: a NaN would break the bin-edge sort's ordering.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_THROW(model.fit({{-inf, 2.0f}, {3.0f, 4.0f}}, {0, 1}), std::invalid_argument);
    try {
        model.fit({{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, nan}}, {0, 1, 0});
        ADD_FAILURE() << "NaN accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("row 2, feature 1"), std::string::npos)
            << error.what();
    }
}

TEST(Gbt, ConfigurationIsBounded)
{
    // num_bins up to XGBoost's default max_bin; beyond it the original
    // 16-bit bin indices wrapped silently.  gamma >= 0 keeps skipping
    // single-bin features exact.
    GbtConfig config;
    config.num_bins = kMaxBins;
    EXPECT_NO_THROW(GbtClassifier(config, 2));
    for (const int num_bins : {1, kMaxBins + 1, 70000}) {
        config.num_bins = num_bins;
        EXPECT_THROW(GbtClassifier(config, 2), std::invalid_argument) << num_bins;
    }
    config = GbtConfig{};
    for (const double gamma : {-0.1, std::numeric_limits<double>::quiet_NaN()}) {
        config.gamma = gamma;
        EXPECT_THROW(GbtClassifier(config, 2), std::invalid_argument) << gamma;
    }
}

TEST(Gbt, PredictValidatesFeatureSize)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(20, 2, 3, 0.5, features, labels);
    GbtConfig config;
    config.num_rounds = 2;
    GbtClassifier model(config, 2);
    model.fit(features, labels);
    const std::vector<float> wrong_size{1.0f};
    EXPECT_THROW((void)model.predict(wrong_size), std::invalid_argument);
}

TEST(GbtTree, EmptyTreePredictsZero)
{
    const Tree tree;
    const std::vector<float> x{1.0f};
    EXPECT_FLOAT_EQ(tree.predict(x), 0.0f);
    EXPECT_EQ(tree.depth(), 0);
}

TEST(Gbt, TrainingPollsTheCancelToken)
{
    // The executor's watchdog cancels via this token; fit() must unwind at
    // its next poll instead of finishing the boosting schedule.
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(40, 3, 4, 0.5, features, labels);

    fptc::util::CancelToken token;
    token.cancel(fptc::util::CancelKind::timeout);
    GbtConfig config;
    config.cancel = &token;
    GbtClassifier model(config, 3);
    const auto baseline = fptc::util::mem_budget().in_use();
    EXPECT_THROW(model.fit(features, labels), fptc::util::CancelledError);
    EXPECT_EQ(fptc::util::mem_budget().in_use(), baseline);
}

TEST(Gbt, MemBudgetChargeMatchesTheSlotLayout)
{
    // n = 8, num_bins = 4: quantile edges sit at sorted positions 1, 3, 5.
    //   feature 0: constant  -> edges {1}        one bin, dropped
    //   feature 1: i         -> edges {1, 3, 5}  bins 0..3, 4 slots
    //   feature 2: i % 2     -> edges {0, 1}     bins 1..2 (bin 0 empty), 2 slots
    // Working set: margins + probabilities 2 x 8 x 2 doubles, gradients +
    // hessians 2 x 8 floats, 6 {g, h} slots; and the histogram layout.  Only
    // feature 2's default bin holds half the samples, fewer than a 16-feature
    // block, so no feature is masked: 8 + 1 list offsets (size_t), 8 x 2
    // scattered uint32 slots, and the node's 8 {g, h} pairs.
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    for (std::size_t i = 0; i < 8; ++i) {
        features.push_back({1.0f, static_cast<float>(i), static_cast<float>(i % 2)});
        labels.push_back(i / 4);
    }
    const std::size_t expected =
        2 * 8 * 2 * 8 + 2 * 8 * 4 + 6 * 16 + (8 + 1) * 8 + 8 * 2 * 4 + 8 * 16;
    GbtConfig config;
    config.num_bins = 4;
    config.num_rounds = 3;
    GbtClassifier model(config, 2);

    auto& budget = fptc::util::mem_budget();
    const auto baseline = budget.in_use();
    budget.reset_peak();
    model.fit(features, labels);
    EXPECT_EQ(budget.peak_bytes() - baseline, expected);
    EXPECT_EQ(budget.in_use(), baseline);
}

TEST(Gbt, UntrippedTokenDoesNotDisturbTraining)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(40, 2, 3, 0.5, features, labels);

    fptc::util::CancelToken token;
    GbtConfig cancellable;
    cancellable.num_rounds = 10;
    cancellable.cancel = &token;
    GbtConfig plain;
    plain.num_rounds = 10;

    GbtClassifier a(cancellable, 2);
    GbtClassifier b(plain, 2);
    a.fit(features, labels);
    b.fit(features, labels);
    // Polling is observation-only: the fitted model is bit-identical.
    for (const auto& sample : features) {
        EXPECT_EQ(a.predict(sample), b.predict(sample));
    }
}

// ---------------------------------------------------------------------------
// The fit against its scalar reference: every tree node for node, with the
// threshold and leaf value compared by their bytes.

[[nodiscard]] ::testing::AssertionResult same_trees(const std::vector<Tree>& got,
                                                    const std::vector<Tree>& want)
{
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
               << got.size() << " trees vs " << want.size() << " in the reference";
    }
    for (std::size_t t = 0; t < got.size(); ++t) {
        if (got[t].nodes.size() != want[t].nodes.size()) {
            return ::testing::AssertionFailure() << "tree " << t << ": " << got[t].nodes.size()
                                                 << " nodes vs " << want[t].nodes.size();
        }
        for (std::size_t j = 0; j < got[t].nodes.size(); ++j) {
            const auto& a = got[t].nodes[j];
            const auto& b = want[t].nodes[j];
            if (a.feature != b.feature || a.left != b.left || a.right != b.right ||
                std::bit_cast<std::uint32_t>(a.threshold) !=
                    std::bit_cast<std::uint32_t>(b.threshold) ||
                std::bit_cast<std::uint32_t>(a.value) != std::bit_cast<std::uint32_t>(b.value)) {
                return ::testing::AssertionFailure()
                       << "tree " << t << " node " << j << ": (feature " << a.feature << ", "
                       << a.left << "/" << a.right << ", threshold " << a.threshold
                       << ", value " << a.value << ") vs reference (feature " << b.feature
                       << ", " << b.left << "/" << b.right << ", threshold " << b.threshold
                       << ", value " << b.value << ")";
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/// Fits the classifier and the reference on the same data; returns the
/// classifier for further checks.
GbtClassifier fit_against_reference(const GbtConfig& config, std::size_t classes,
                                     const std::vector<std::vector<float>>& features,
                                     const std::vector<std::size_t>& labels)
{
    GbtClassifier model(config, classes);
    model.fit(features, labels);
    EXPECT_TRUE(same_trees(model.trees(), reference::fit(config, classes, features, labels)));
    return model;
}

/// Splits taken across the ensemble (a pin over stumps-only trees would
/// prove little).
std::size_t split_count(const GbtClassifier& model)
{
    std::size_t splits = 0;
    for (const auto& tree : model.trees()) {
        for (const auto& node : tree.nodes) {
            splits += node.feature >= 0;
        }
    }
    return splits;
}

/// 16 synthetic UCDAVIS19 flows per class, as 32x32 flowpics or as the
/// 30-element early time series.
void make_ucdavis(bool flowpic, std::vector<std::vector<float>>& features,
                  std::vector<std::size_t>& labels)
{
    fptc::util::Rng rng(21);
    fptc::flowpic::FlowpicConfig config;
    config.resolution = 32;
    for (std::size_t c = 0; c < 5; ++c) {
        const auto profile = fptc::trafficgen::ucdavis19_profile(c, false);
        for (const auto& f : fptc::trafficgen::generate_flows(profile, c, 16, rng)) {
            if (flowpic) {
                features.push_back(fptc::flowpic::Flowpic::from_flow(f, config).flattened());
            } else {
                const auto early = fptc::flow::early_time_series(f);
                features.emplace_back(early.begin(), early.end());
            }
            labels.push_back(c);
        }
    }
}

TEST(GbtReference, SparseFlowpicsMatch)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_ucdavis(true, features, labels);
    std::size_t zeros = 0;
    for (const auto& row : features) {
        zeros += static_cast<std::size_t>(std::count(row.begin(), row.end(), 0.0f));
    }
    EXPECT_GT(static_cast<double>(zeros) / (features.size() * 1024.0), 0.8);

    GbtConfig config;
    config.num_rounds = 10;
    const auto model = fit_against_reference(config, 5, features, labels);
    EXPECT_GT(split_count(model), 0u);
}

TEST(GbtReference, DenseTimeSeriesMatch)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_ucdavis(false, features, labels);
    GbtConfig config;
    config.num_rounds = 10;
    const auto model = fit_against_reference(config, 5, features, labels);
    EXPECT_GT(split_count(model), 0u);
}

/// Blobs with three single-bin columns mixed in: two constants, and one
/// that is 0 on all but the last 2% of rows, so every quantile edge is 0
/// and all its values share bin 1 although it is not constant.
void add_single_bin_columns(std::vector<std::vector<float>>& features)
{
    const std::size_t n = features.size();
    for (std::size_t i = 0; i < n; ++i) {
        auto& row = features[i];
        row.insert(row.begin(), 0.0f);
        row.insert(row.begin() + 2, 3.5f);
        row.push_back(i + n / 50 >= n ? static_cast<float>(i) : 0.0f);
    }
}

TEST(GbtReference, SingleBinFeaturesMatch)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(50, 3, 3, 1.5, features, labels);
    add_single_bin_columns(features);
    GbtConfig config;
    config.num_rounds = 8;
    const auto model = fit_against_reference(config, 3, features, labels);
    EXPECT_GT(split_count(model), 0u);
    for (const auto& tree : model.trees()) {
        for (const auto& node : tree.nodes) {
            EXPECT_TRUE(node.feature != 0 && node.feature != 2 && node.feature != 6);
        }
    }
}

TEST(GbtReference, ZeroMinChildWeightMatchesForEveryGamma)
{
    // With min_child_weight = 0 the reference scores the empty-side
    // candidates of single-bin features (gain = -gamma) instead of skipping
    // them; none of them may win.
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(40, 2, 3, 1.5, features, labels, 4);
    add_single_bin_columns(features);
    for (const double gamma : {0.0, 0.05, 0.5}) {
        GbtConfig config;
        config.num_rounds = 6;
        config.min_child_weight = 0.0;
        config.gamma = gamma;
        SCOPED_TRACE(gamma);
        const auto model = fit_against_reference(config, 2, features, labels);
        EXPECT_GT(split_count(model), 0u);
    }
}

TEST(GbtReference, FeatureConstantInsideOneChildMatches)
{
    // Feature 0 separates class 0 first; feature 1 is constant across
    // class 0 but informative between classes 1 and 2, so the child holding
    // class 0 sees a single-bin feature the root did not.
    fptc::util::Rng rng(8);
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    for (std::size_t i = 0; i < 150; ++i) {
        const std::size_t c = i % 3;
        const float x0 = static_cast<float>((c == 0 ? 0.0 : 4.0) + rng.normal(0.0, 0.3));
        const float x1 =
            c == 0 ? 2.0f : static_cast<float>((c == 1 ? 0.0 : 4.0) + rng.normal(0.0, 1.0));
        features.push_back({x0, x1});
        labels.push_back(c);
    }
    GbtConfig config;
    config.num_rounds = 8;
    const auto model = fit_against_reference(config, 3, features, labels);
    EXPECT_GE(model.average_tree_depth(), 1.0);
}

TEST(GbtReference, ExtremeBinCountsMatch)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_blobs(150, 2, 4, 2.0, features, labels, 6);
    for (const int num_bins : {2, kMaxBins}) {
        GbtConfig config;
        config.num_rounds = 6;
        config.num_bins = num_bins;
        SCOPED_TRACE(num_bins);
        const auto model = fit_against_reference(config, 2, features, labels);
        EXPECT_GT(split_count(model), 0u);
    }
}

TEST(GbtReference, TwoSamplesMatch)
{
    // With n = 2 every quantile edge is the smaller value, so both samples
    // share one bin of every feature: all features drop and every tree is a
    // single leaf, whose value must still match.
    GbtConfig config;
    config.num_rounds = 4;
    config.min_child_weight = 0.0;
    const auto model =
        fit_against_reference(config, 2, {{0.0f, 1.0f}, {1.0f, 1.0f}}, {0, 1});
    EXPECT_EQ(split_count(model), 0u);
    EXPECT_EQ(model.tree_count(), 8u);
}

// ---------------------------------------------------------------------------
// Node histograms against the plain per-sample scatter, byte for byte, on
// the baseline kernels (forced) and on AVX2.

/// Runs `body` on the baseline kernels, then on the AVX2 ones; the AVX2
/// half is skipped on a CPU without AVX2.
template <typename Body>
void on_both_isas(Body body)
{
    {
        SCOPED_TRACE("baseline kernels");
        fptc::util::force_baseline(true);
        body();
        fptc::util::force_baseline(false);
    }
    if (::testing::Test::HasFatalFailure()) {
        return;
    }
    if (fptc::util::selected_isa() != fptc::util::Isa::avx2) {
        GTEST_SKIP() << "no AVX2 on this CPU: only the baseline half ran";
    }
    SCOPED_TRACE("AVX2 kernels");
    body();
}

/// The oracle: every (sample, active feature) entry of the node added to
/// its slot, samples ascending, g and h as separate double sums from +0.
std::vector<double> scatter_histogram(const detail::BinMap& bins,
                                      const std::vector<std::vector<float>>& features,
                                      const std::vector<std::uint32_t>& samples,
                                      const std::vector<float>& g, const std::vector<float>& h)
{
    std::vector<double> hist(2 * bins.slot_count, 0.0);
    for (const auto i : samples) {
        for (std::size_t a = 0; a < bins.active.size(); ++a) {
            const auto slot = bins.slot_of(a, features[i][bins.active[a].feature]);
            hist[2 * slot] += static_cast<double>(g[i]);
            hist[2 * slot + 1] += static_cast<double>(h[i]);
        }
    }
    return hist;
}

/// Gradients as fit() makes them, float(p - [y = k]) with p in [0, 1] and
/// h = float(max(p (1 - p), 1e-6)), every fifth g an exact +0 (p = 1 on
/// the label, or p = 0 elsewhere).  p spans 26 decades, as softmax
/// probabilities do once margins grow: sums of floats that close in
/// magnitude would be exact in double, whatever their order.
void make_gradients(std::size_t n, std::vector<float>& g, std::vector<float>& h)
{
    fptc::util::Rng rng(17);
    g.resize(n);
    h.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double p =
            i % 5 == 0 ? (i % 2 == 0 ? 1.0 : 0.0) : std::exp(-rng.uniform(0.0, 60.0));
        const bool label = i % 5 == 0 ? i % 2 == 0 : rng.bernoulli(0.3);
        g[i] = static_cast<float>(p - (label ? 1.0 : 0.0));
        h[i] = static_cast<float>(std::max(p * (1.0 - p), 1e-6));
    }
}

/// Nodes to check: the root, every node of a random recursive split down
/// to single samples (so 1- and 2-sample nodes too), and `extra`.
std::vector<std::vector<std::uint32_t>> nodes_of(std::size_t n,
                                                 std::vector<std::vector<std::uint32_t>> extra)
{
    fptc::util::Rng rng(23);
    std::vector<std::vector<std::uint32_t>> nodes;
    std::vector<std::vector<std::uint32_t>> stack(1);
    for (std::uint32_t i = 0; i < n; ++i) {
        stack[0].push_back(i);
    }
    while (!stack.empty()) {
        auto node = std::move(stack.back());
        stack.pop_back();
        if (node.size() >= 2) {
            std::vector<std::uint32_t> left;
            std::vector<std::uint32_t> right;
            for (const auto i : node) {
                (rng.bernoulli(0.4) ? left : right).push_back(i);
            }
            for (auto* child : {&left, &right}) {
                if (!child->empty() && child->size() < node.size()) {
                    stack.push_back(std::move(*child));
                }
            }
        }
        nodes.push_back(std::move(node));
    }
    for (auto& node : extra) {
        nodes.push_back(std::move(node));
    }
    return nodes;
}

/// Fills every node's histogram through NodeHistogram and compares it to
/// the scatter by its bytes.  Returns how many features were masked.
std::size_t expect_histograms_match(const std::vector<std::vector<float>>& features, int num_bins,
                                    const std::vector<std::vector<std::uint32_t>>& extra = {})
{
    const auto bins = detail::build_bins(features, num_bins);
    detail::NodeHistogram histogram(bins, features);
    std::vector<float> g;
    std::vector<float> h;
    make_gradients(features.size(), g, h);
    std::vector<double> hist(2 * bins.slot_count);
    std::size_t nodes = 0;
    for (const auto& samples : nodes_of(features.size(), extra)) {
        std::fill(hist.begin(), hist.end(), std::numeric_limits<double>::quiet_NaN());
        histogram.fill(samples, g.data(), h.data(), hist.data());
        const auto want = scatter_histogram(bins, features, samples, g, h);
        if (std::memcmp(hist.data(), want.data(), hist.size() * sizeof(double)) != 0) {
            std::size_t k = 0;
            while (std::bit_cast<std::uint64_t>(hist[k]) == std::bit_cast<std::uint64_t>(want[k])) {
                ++k;
            }
            ADD_FAILURE() << "node " << nodes << " (" << samples.size() << " samples): slot "
                          << k / 2 << (k % 2 == 0 ? " g " : " h ") << hist[k] << " vs "
                          << want[k] << " from the scatter";
            return histogram.masked_features();
        }
        ++nodes;
    }
    EXPECT_GE(nodes, features.size());
    return histogram.masked_features();
}

TEST(GbtKernel, SparseFlowpicNodesMatchTheScatter)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_ucdavis(true, features, labels);
    on_both_isas([&] { EXPECT_GT(expect_histograms_match(features, 32), 0u); });
}

TEST(GbtKernel, DenseTimeSeriesNodesMatchTheScatter)
{
    std::vector<std::vector<float>> features;
    std::vector<std::size_t> labels;
    make_ucdavis(false, features, labels);
    // Fewer than a block's worth of its features have a default bin holding
    // half the samples, so all of them stay on the scatter.
    on_both_isas([&] { EXPECT_EQ(expect_histograms_match(features, 32), 0u); });
}

TEST(GbtKernel, ShiftedAllAndNoDefaultFeaturesMatchTheScatter)
{
    // 37 features, no multiple of the 16-feature block: 21 mostly-zero
    // ones, whose default bin is their first; 8 whose default value 5 lies
    // mid-range, so their default bin is neither bin 0 nor their first; 8
    // uniform ones without a default.  29 qualify, 16 are masked.
    fptc::util::Rng rng(31);
    std::vector<std::vector<float>> features(96, std::vector<float>(37));
    for (auto& row : features) {
        for (std::size_t f = 0; f < 37; ++f) {
            const double u = rng.uniform();
            if (f < 21) {
                row[f] = u < 0.55 + 0.01 * static_cast<double>(f)
                             ? 0.0f
                             : static_cast<float>(rng.uniform_int(1, 9));
            } else if (f < 29) {
                row[f] = u < 0.7 ? 5.0f : static_cast<float>(rng.uniform_int(0, 9));
            } else {
                row[f] = static_cast<float>(rng.uniform(-1.0, 1.0));
            }
        }
    }
    const auto bins = detail::build_bins(features, 16);
    ASSERT_EQ(bins.active.size(), 37u);
    std::size_t qualify = 0;
    for (std::size_t a = 0; a < 37; ++a) {
        const auto& af = bins.active[a];
        qualify += 2 * af.default_count >= features.size();
        if (a < 21) {
            EXPECT_EQ(af.default_bin, af.first_bin) << a;
        } else if (a < 29) {
            EXPECT_GT(af.default_bin, af.first_bin) << a;
        }
    }
    EXPECT_EQ(qualify, 29u);
    // The feature with the highest default share is masked: one node whose
    // every sample is default in it, one where none is.
    const auto top = std::max_element(bins.active.begin(), bins.active.end(),
                                      [](const auto& x, const auto& y) {
                                          return x.default_count < y.default_count;
                                      });
    std::vector<std::uint32_t> all_default;
    std::vector<std::uint32_t> no_default;
    for (std::uint32_t i = 0; i < features.size(); ++i) {
        (bins.bin_of(top->feature, features[i][top->feature]) == top->default_bin ? all_default
                                                                                   : no_default)
            .push_back(i);
    }
    ASSERT_GE(no_default.size(), 2u);
    on_both_isas([&] {
        EXPECT_EQ(expect_histograms_match(features, 16, {all_default, no_default}), 16u);
    });
}

TEST(GbtKernel, FitsMatchTheReferenceOnBothIsas)
{
    std::vector<std::vector<float>> sparse;
    std::vector<std::size_t> sparse_labels;
    make_ucdavis(true, sparse, sparse_labels);
    std::vector<std::vector<float>> dense;
    std::vector<std::size_t> dense_labels;
    make_ucdavis(false, dense, dense_labels);
    GbtConfig config;
    config.num_rounds = 6;
    on_both_isas([&] {
        EXPECT_GT(split_count(fit_against_reference(config, 5, sparse, sparse_labels)), 0u);
        EXPECT_GT(split_count(fit_against_reference(config, 5, dense, dense_labels)), 0u);
    });
}

} // namespace

// Tests for the two paper-flagged extensions: SupCon (Sec. 5 future work)
// and the direction-aware flowpic (footnote 3).
#include "fptc/core/byol.hpp"
#include "fptc/core/campaign.hpp"
#include "fptc/core/data.hpp"
#include "fptc/flowpic/flowpic.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace fptc;

// ------------------------------------------------------------- SupCon loss

TEST(SupCon, ClusteredGeometryHasLowerLossThanScattered)
{
    // Two classes along orthogonal directions, 4 samples each: the ideal
    // SupCon geometry.
    constexpr std::size_t dim = 8;
    nn::Tensor clustered({8, dim});
    std::vector<std::size_t> labels(8);
    for (std::size_t i = 0; i < 8; ++i) {
        labels[i] = i / 4;
        clustered[i * dim + labels[i]] = 1.0f;
        clustered[i * dim + 4 + i % 4] = 0.05f; // tiny per-sample variation
    }
    const double clustered_loss = nn::sup_con(clustered, labels, 0.1).loss;

    util::Rng rng(1);
    const auto scattered = nn::Tensor::randn({8, dim}, rng);
    const double scattered_loss = nn::sup_con(scattered, labels, 0.1).loss;
    EXPECT_LT(clustered_loss, scattered_loss);
}

TEST(SupCon, GradientDescendsLoss)
{
    util::Rng rng(2);
    auto projections = nn::Tensor::randn({10, 6}, rng);
    const std::vector<std::size_t> labels{0, 0, 1, 1, 2, 2, 0, 1, 2, 0};
    const auto result = nn::sup_con(projections, labels, 0.2);
    for (std::size_t i = 0; i < projections.size(); ++i) {
        projections[i] -= 0.1f * result.grad[i];
    }
    EXPECT_LT(nn::sup_con(projections, labels, 0.2).loss, result.loss);
}

TEST(SupCon, NumericalGradient)
{
    util::Rng rng(3);
    auto projections = nn::Tensor::randn({6, 5}, rng);
    const std::vector<std::size_t> labels{0, 0, 1, 1, 2, 2};
    const auto analytic = nn::sup_con(projections, labels, 0.3);
    constexpr float eps = 1e-2f;
    for (std::size_t i = 0; i < projections.size(); i += 2) {
        const float original = projections[i];
        projections[i] = original + eps;
        const double up = nn::sup_con(projections, labels, 0.3).loss;
        projections[i] = original - eps;
        const double down = nn::sup_con(projections, labels, 0.3).loss;
        projections[i] = original;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(analytic.grad[i], numeric, 5e-3 + 0.05 * std::fabs(numeric)) << "index " << i;
    }
}

TEST(SupCon, AnchorsWithoutPositivesAreSkipped)
{
    // All-distinct labels: no positives anywhere -> zero loss, zero grad.
    util::Rng rng(4);
    const auto projections = nn::Tensor::randn({4, 4}, rng);
    const std::vector<std::size_t> labels{0, 1, 2, 3};
    const auto result = nn::sup_con(projections, labels);
    EXPECT_DOUBLE_EQ(result.loss, 0.0);
    for (const float g : result.grad.data()) {
        EXPECT_FLOAT_EQ(g, 0.0f);
    }
}

TEST(SupCon, Validation)
{
    util::Rng rng(5);
    const auto projections = nn::Tensor::randn({4, 4}, rng);
    EXPECT_THROW((void)nn::sup_con(projections, std::vector<std::size_t>{0, 1}),
                 std::invalid_argument);
    EXPECT_THROW((void)nn::sup_con(projections, std::vector<std::size_t>{0, 0, 1, 1}, 0.0),
                 std::invalid_argument);
}

// -------------------------------------------------- directional flowpic

flow::Flow mixed_direction_flow()
{
    flow::Flow f;
    for (int i = 0; i < 60; ++i) {
        flow::Packet p;
        p.timestamp = 0.2 * i;
        p.size = i % 2 == 0 ? 200 : 1400; // up small, down large
        p.direction = i % 2 == 0 ? flow::Direction::upstream : flow::Direction::downstream;
        f.packets.push_back(p);
    }
    return f;
}

TEST(DirectionalFlowpic, ChannelsSumToPlainFlowpic)
{
    const auto f = mixed_direction_flow();
    const flowpic::FlowpicConfig config{.resolution = 32};
    const auto plain = flowpic::Flowpic::from_flow(f, config);
    const auto [up, down] = flowpic::directional_flowpics(f, config);
    for (std::size_t i = 0; i < plain.counts().size(); ++i) {
        EXPECT_FLOAT_EQ(up.counts()[i] + down.counts()[i], plain.counts()[i]);
    }
}

TEST(DirectionalFlowpic, ChannelsSeparateDirections)
{
    const auto f = mixed_direction_flow();
    const auto [up, down] = flowpic::directional_flowpics(f, {.resolution = 32});
    // Upstream packets are all small (rows ~4), downstream all large (~row 29).
    EXPECT_GT(up.total_mass(), 0.0);
    EXPECT_GT(down.total_mass(), 0.0);
    for (std::size_t c = 0; c < 32; ++c) {
        EXPECT_FLOAT_EQ(up.at(29, c), 0.0f);   // no large packets upstream
        EXPECT_FLOAT_EQ(down.at(4, c), 0.0f);  // no small packets downstream
    }
}

TEST(DirectionalFlowpic, RasterizeDirectionalShape)
{
    const auto f = mixed_direction_flow();
    const auto set = core::rasterize_directional(std::span(&f, 1), {.resolution = 32});
    EXPECT_EQ(set.channels, 2u);
    EXPECT_EQ(set.images.front().size(), 2u * 32 * 32);
    const auto batch = set.tensor_of(0);
    EXPECT_EQ(batch.shape(), (nn::Shape{1, 2, 32, 32}));
}

TEST(DirectionalFlowpic, AugmentSetDirectionalWorksForAllKinds)
{
    const auto f = mixed_direction_flow();
    util::Rng rng(6);
    for (const auto kind : augment::all_augmentations()) {
        const auto set = core::augment_set_directional(std::span(&f, 1), kind, 2,
                                                       {.resolution = 32}, rng);
        const std::size_t expected = kind == augment::AugmentationKind::none ? 1u : 2u;
        EXPECT_EQ(set.size(), expected) << augment::augmentation_name(kind);
        EXPECT_EQ(set.channels, 2u);
        for (const float v : set.images.front()) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GE(v, 0.0f);
        }
    }
}

TEST(DirectionalFlowpic, TwoChannelNetworkForward)
{
    nn::ModelConfig config;
    config.input_channels = 2;
    config.num_classes = 5;
    auto network = nn::make_supervised_network(config);
    const auto y = network.forward(nn::Tensor({2, 2, 32, 32}), false);
    EXPECT_EQ(y.shape(), (nn::Shape{2, 5}));
    // More input channels -> more conv1 parameters than the 1-channel net.
    nn::ModelConfig plain = config;
    plain.input_channels = 1;
    auto plain_network = nn::make_supervised_network(plain);
    EXPECT_GT(network.parameter_count(), plain_network.parameter_count());
}

// ------------------------------------------------------ campaign plumbing

TEST(Extensions, SupConCampaignRunSmoke)
{
    const auto data = core::load_ucdavis(0.2, 19);
    core::SimClrOptions options;
    options.per_class = 30;
    options.pretrain_max_epochs = 3;
    const auto run = core::run_ucdavis_supcon(data, 1, 1, 1, options);
    EXPECT_GE(run.pretrain_epochs, 1);
    // Supervised contrastive pre-training must give a usable representation.
    EXPECT_GT(run.script_accuracy(), 0.5);
}

TEST(Byol, TargetStartsAsExactCopyAndTracksByEma)
{
    nn::ModelConfig config;
    config.with_dropout = false;
    auto network = core::make_byol_network(config);
    const auto online = network.online.parameters();
    const auto target = network.target.parameters();
    ASSERT_EQ(online.size(), target.size());
    for (std::size_t i = 0; i < online.size(); ++i) {
        ASSERT_EQ(online[i]->value.size(), target[i]->value.size());
        for (std::size_t j = 0; j < online[i]->value.size(); ++j) {
            ASSERT_FLOAT_EQ(online[i]->value[j], target[i]->value[j]);
        }
    }
}

TEST(Byol, PretrainReducesRegressionLoss)
{
    trafficgen::UcdavisOptions gen;
    gen.samples_scale = 0.05;
    const auto pool =
        trafficgen::make_ucdavis19(trafficgen::UcdavisPartition::pretraining, gen);

    nn::ModelConfig config;
    config.with_dropout = false;
    auto network = core::make_byol_network(config);
    const augment::ViewPairGenerator views;
    core::ByolConfig pretrain;
    pretrain.max_epochs = 3;
    pretrain.patience = 3;
    const auto result = core::pretrain_byol(network, pool.flows, views, pretrain);
    EXPECT_GE(result.epochs_run, 1);
    // The regression loss lives in [0, 4]; after training it must sit well
    // below the untrained ~2 (orthogonal embeddings).
    EXPECT_LT(result.final_loss, 1.0);
}

TEST(Byol, CampaignRunSmoke)
{
    const auto data = core::load_ucdavis(0.2, 19);
    core::SimClrOptions options;
    options.per_class = 30;
    options.pretrain_max_epochs = 3;
    const auto run = core::run_ucdavis_byol(data, 1, 1, 1, options);
    EXPECT_GE(run.pretrain_epochs, 1);
    EXPECT_GT(run.script_accuracy(), 0.4); // far above 20% chance
}

TEST(Byol, CampaignRunTakesTheCallersBatchSize)
{
    // One sample per step cannot form a view pair, so pre-training runs no
    // epoch, as it does for SimCLR; at BYOL's default batch of 32 it would.
    const auto data = core::load_ucdavis(0.2, 19);
    core::SimClrOptions options;
    options.per_class = 10;
    options.pretrain_max_epochs = 2;
    options.batch_samples = 1;
    EXPECT_EQ(core::run_ucdavis_byol(data, 1, 1, 1, options).pretrain_epochs, 0);
    EXPECT_EQ(core::run_ucdavis_simclr(data, 1, 1, 1, options).pretrain_epochs, 0);
}

TEST(Extensions, DirectionalCampaignRunSmoke)
{
    const auto data = core::load_ucdavis(0.2, 19);
    core::SupervisedOptions options;
    options.per_class = 30;
    options.augment_copies = 1;
    options.max_epochs = 5;
    options.leftover_cap = 50;
    options.directional = true;
    const auto run = core::run_ucdavis_supervised(data, augment::AugmentationKind::none, 1, 1,
                                                  options);
    EXPECT_GT(run.script_accuracy(), 0.6);
}

} // namespace

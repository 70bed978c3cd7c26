// Tests of the model factories against the paper's App. C listings —
// including the exact trainable-parameter counts printed there — plus
// optimizers and weight serialization.
#include "fptc/nn/conv.hpp"
#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/optimizer.hpp"
#include "fptc/nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using namespace fptc::nn;

TEST(Models, SupervisedParameterCountMatchesListing1)
{
    // App. C listing 1/2: "Total params: 61,281" for flowpic_dim 32,
    // 5 classes (with or without dropout — dropout has no parameters).
    for (const bool with_dropout : {true, false}) {
        ModelConfig config;
        config.flowpic_dim = 32;
        config.num_classes = 5;
        config.with_dropout = with_dropout;
        auto network = make_supervised_network(config);
        EXPECT_EQ(network.parameter_count(), 61281u) << "dropout=" << with_dropout;
    }
}

TEST(Models, SimClrParameterCountsMatchListings3And4)
{
    // Listing 3 (projection 30): 68,842.  Listing 4 (projection 84): 75,376.
    ModelConfig config;
    config.flowpic_dim = 32;
    config.with_dropout = false;
    config.projection_dim = 30;
    auto small = make_simclr_network(config);
    EXPECT_EQ(small.trunk.parameter_count() + small.projection.parameter_count(), 68842u);

    config.projection_dim = 84;
    auto large = make_simclr_network(config);
    EXPECT_EQ(large.trunk.parameter_count() + large.projection.parameter_count(), 75376u);
}

TEST(Models, FinetuneHeadMatchesListing5)
{
    // Listing 5's trainable classifier: Linear(120 -> 5) = 605 params.
    ModelConfig config;
    config.num_classes = 5;
    auto head = make_finetune_head(config);
    EXPECT_EQ(head.parameter_count(), 605u);
}

TEST(Models, ForwardShapes)
{
    for (const std::size_t dim : {std::size_t{32}, std::size_t{64}}) {
        ModelConfig config;
        config.flowpic_dim = dim;
        config.num_classes = 5;
        auto network = make_supervised_network(config);
        const auto y = network.forward(Tensor({3, 1, dim, dim}), false);
        EXPECT_EQ(y.shape(), (Shape{3, 5})) << "dim=" << dim;
    }
}

TEST(Models, LargeResolutionUsesEffectiveDim)
{
    EXPECT_EQ(effective_input_dim(32), 32u);
    EXPECT_EQ(effective_input_dim(64), 64u);
    EXPECT_EQ(effective_input_dim(256), 64u);
    EXPECT_EQ(effective_input_dim(1500), 65u); // 1500 / (1500/64 = 23)

    ModelConfig config;
    config.flowpic_dim = 1500;
    config.num_classes = 5;
    auto network = make_supervised_network(config);
    // The "full" architecture takes the pre-pooled 65x65 input.
    const auto y = network.forward(Tensor({2, 1, 65, 65}), false);
    EXPECT_EQ(y.shape(), (Shape{2, 5}));
}

TEST(Models, SimClrForwardAndEmbed)
{
    ModelConfig config;
    config.flowpic_dim = 32;
    config.projection_dim = 30;
    auto network = make_simclr_network(config);
    const Tensor x({4, 1, 32, 32});
    const auto z = network.forward(x, false);
    EXPECT_EQ(z.shape(), (Shape{4, 30}));
    const auto h = network.embed(x);
    EXPECT_EQ(h.shape(), (Shape{4, kRepresentationDim}));
}

TEST(Models, OnlyTheTrunksFirstConvSkipsItsInputGradient)
{
    // conv1's input gradient would be the gradient w.r.t. the flowpic,
    // which no caller reads; conv2's feeds conv1.
    ModelConfig config;
    auto supervised = make_supervised_network(config);
    auto simclr = make_simclr_network(config);
    for (Sequential* trunk : {&supervised, &simclr.trunk}) {
        EXPECT_FALSE(dynamic_cast<Conv2d&>(trunk->layer(0)).input_gradient());
        EXPECT_TRUE(dynamic_cast<Conv2d&>(trunk->layer(3)).input_gradient());
    }
    const Tensor x({4, 1, 32, 32});
    const auto logits = supervised.forward(x, true);
    const std::vector<std::size_t> labels{0, 1, 2, 3};
    EXPECT_TRUE(supervised.backward(cross_entropy(logits, labels).grad).empty());
    // The projection head still returns the gradient the trunk needs.
    const auto z = simclr.forward(x, true);
    EXPECT_EQ(simclr.projection.backward(nt_xent(z).grad).shape(),
              (Shape{4, kRepresentationDim}));
}

TEST(Models, SeedChangesInitialization)
{
    ModelConfig a;
    a.seed = 1;
    ModelConfig b;
    b.seed = 2;
    auto net_a = make_supervised_network(a);
    auto net_b = make_supervised_network(b);
    const auto pa = net_a.parameters();
    const auto pb = net_b.parameters();
    bool any_different = false;
    for (std::size_t i = 0; i < pa.front()->value.size(); ++i) {
        any_different |= pa.front()->value[i] != pb.front()->value[i];
    }
    EXPECT_TRUE(any_different);
}

TEST(Optimizer, SgdStepMovesAgainstGradient)
{
    Parameter p(Tensor({2}, {1.0f, -1.0f}));
    p.grad = Tensor({2}, {0.5f, -0.5f});
    Sgd sgd({&p}, 0.1);
    sgd.step();
    EXPECT_FLOAT_EQ(p.value[0], 0.95f);
    EXPECT_FLOAT_EQ(p.value[1], -0.95f);
    sgd.zero_grad();
    EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    Parameter p(Tensor({1}, {0.0f}));
    Sgd sgd({&p}, 0.1, 0.9);
    p.grad = Tensor({1}, {1.0f});
    sgd.step(); // v = 1, x = -0.1
    sgd.step(); // v = 1.9, x = -0.29
    EXPECT_NEAR(p.value[0], -0.29f, 1e-6);
}

TEST(Optimizer, AdamConvergesOnQuadratic)
{
    // Minimize (x - 3)^2 via Adam.
    Parameter p(Tensor({1}, {0.0f}));
    Adam adam({&p}, 0.1);
    for (int i = 0; i < 300; ++i) {
        p.grad = Tensor({1}, {2.0f * (p.value[0] - 3.0f)});
        adam.step();
    }
    EXPECT_NEAR(p.value[0], 3.0f, 0.05f);
}

TEST(Optimizer, RejectsNullParameters)
{
    EXPECT_THROW(Sgd({nullptr}, 0.1), std::invalid_argument);
}

TEST(Serialize, RoundTripPreservesOutputs)
{
    ModelConfig config;
    config.flowpic_dim = 32;
    config.seed = 5;
    auto original = make_supervised_network(config);
    fptc::util::Rng rng(6);
    const auto x = Tensor::randn({2, 1, 32, 32}, rng, 0.5f);
    const auto y_before = original.forward(x, false);

    std::stringstream buffer;
    save_parameters(original.parameters(), buffer);

    ModelConfig other = config;
    other.seed = 999; // different init, then overwritten by load
    auto restored = make_supervised_network(other);
    load_parameters(restored.parameters(), buffer);
    const auto y_after = restored.forward(x, false);

    ASSERT_EQ(y_before.size(), y_after.size());
    for (std::size_t i = 0; i < y_before.size(); ++i) {
        EXPECT_FLOAT_EQ(y_before[i], y_after[i]);
    }
}

TEST(Serialize, DetectsArchitectureMismatch)
{
    ModelConfig small;
    small.flowpic_dim = 32;
    auto a = make_supervised_network(small);
    std::stringstream buffer;
    save_parameters(a.parameters(), buffer);

    ModelConfig big = small;
    big.flowpic_dim = 64; // different flatten width
    auto b = make_supervised_network(big);
    EXPECT_THROW(load_parameters(b.parameters(), buffer), std::runtime_error);
}

TEST(Serialize, DetectsTruncation)
{
    ModelConfig config;
    auto network = make_supervised_network(config);
    std::stringstream buffer;
    save_parameters(network.parameters(), buffer);
    const auto full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW(load_parameters(network.parameters(), truncated), std::runtime_error);
}

TEST(Models, RejectsTooSmallInput)
{
    ModelConfig config;
    config.flowpic_dim = 8; // too small for two 5x5 conv + pool stages
    EXPECT_THROW(make_supervised_network(config), std::invalid_argument);
}

} // namespace

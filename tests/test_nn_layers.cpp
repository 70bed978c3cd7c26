// Unit tests for individual layers: hand-computed forward values, backward
// routing, dropout semantics and the Sequential masking idiom.
#include "fptc/nn/conv.hpp"
#include "fptc/nn/layers.hpp"
#include "fptc/nn/sequential.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace {

using namespace fptc::nn;

TEST(Linear, ForwardMatchesManualComputation)
{
    Linear layer(2, 3, /*seed=*/1);
    // Overwrite weights deterministically: W = [[1,2],[3,4],[5,6]], b = [.5,.5,.5].
    auto params = layer.parameters();
    auto w = params[0]->value.data();
    for (std::size_t i = 0; i < 6; ++i) {
        w[i] = static_cast<float>(i + 1);
    }
    params[1]->value.fill(0.5f);

    const Tensor x({1, 2}, {10.0f, 20.0f});
    const auto y = layer.forward(x, false);
    ASSERT_EQ(y.shape(), (Shape{1, 3}));
    EXPECT_FLOAT_EQ(y[0], 1 * 10 + 2 * 20 + 0.5f);
    EXPECT_FLOAT_EQ(y[1], 3 * 10 + 4 * 20 + 0.5f);
    EXPECT_FLOAT_EQ(y[2], 5 * 10 + 6 * 20 + 0.5f);
}

TEST(Linear, BackwardAccumulatesParameterGrads)
{
    Linear layer(2, 1, 1);
    auto params = layer.parameters();
    params[0]->value.data()[0] = 2.0f;
    params[0]->value.data()[1] = -1.0f;
    params[1]->value.fill(0.0f);

    const Tensor x({2, 2}, {1, 2, 3, 4});
    (void)layer.forward(x, true);
    const Tensor gy({2, 1}, {1.0f, 0.5f});
    const auto gx = layer.backward(gy);

    // dL/dx = gy * W.
    EXPECT_FLOAT_EQ(gx[0], 2.0f);
    EXPECT_FLOAT_EQ(gx[1], -1.0f);
    EXPECT_FLOAT_EQ(gx[2], 1.0f);
    EXPECT_FLOAT_EQ(gx[3], -0.5f);
    // dL/dW = sum_n gy_n * x_n = 1*[1,2] + 0.5*[3,4] = [2.5, 4].
    EXPECT_FLOAT_EQ(params[0]->grad.data()[0], 2.5f);
    EXPECT_FLOAT_EQ(params[0]->grad.data()[1], 4.0f);
    // dL/db = 1.5.
    EXPECT_FLOAT_EQ(params[1]->grad.data()[0], 1.5f);
}

TEST(Linear, RejectsWrongInputShape)
{
    Linear layer(4, 2, 1);
    EXPECT_THROW((void)layer.forward(Tensor({1, 3}), false), std::invalid_argument);
}

TEST(ReLU, ForwardBackward)
{
    ReLU relu;
    const Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
    const auto y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 2.0f);
    const Tensor gy({4}, {1, 1, 1, 1});
    const auto gx = relu.backward(gy);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
    EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(ReLU, PropagatesNaN)
{
    // As in PyTorch: NaN passes forward, and its gradient passes backward.
    ReLU relu;
    const Tensor x({3}, {std::nanf(""), -0.0f, 1.0f});
    const auto y = relu.forward(x, true);
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_FALSE(std::signbit(y[1])); // -0 maps to +0
    const auto gx = relu.backward(Tensor({3}, {2.0f, 2.0f, 2.0f}));
    EXPECT_FLOAT_EQ(gx[0], 2.0f);
    EXPECT_FLOAT_EQ(gx[1], 0.0f);
    EXPECT_FLOAT_EQ(gx[2], 2.0f);
}

TEST(Flatten, RoundTrip)
{
    Flatten flatten;
    const Tensor x({2, 3, 4, 4});
    const auto y = flatten.forward(x, false);
    EXPECT_EQ(y.shape(), (Shape{2, 48}));
    const auto gx = flatten.backward(Tensor({2, 48}));
    EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Identity, PassThrough)
{
    Identity identity;
    const Tensor x({3}, {1, 2, 3});
    const auto y = identity.forward(x, true);
    EXPECT_FLOAT_EQ(y[1], 2.0f);
    EXPECT_EQ(identity.parameter_count(), 0u);
}

TEST(Dropout, EvalModeIsIdentity)
{
    Dropout dropout(0.5, 1);
    const Tensor x({100});
    Tensor ones = x;
    ones.fill(1.0f);
    const auto y = dropout.forward(ones, /*training=*/false);
    EXPECT_DOUBLE_EQ(y.sum(), 100.0);
}

TEST(Dropout, TrainModeZerosAndRescales)
{
    Dropout dropout(0.5, 2);
    Tensor ones({10000});
    ones.fill(1.0f);
    const auto y = dropout.forward(ones, /*training=*/true);
    std::size_t zeros = 0;
    for (const float v : y.data()) {
        if (v == 0.0f) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(v, 2.0f); // inverted dropout scaling
        }
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
    // Expected value preserved.
    EXPECT_NEAR(y.sum() / 10000.0, 1.0, 0.06);

    // Backward uses the same mask.
    Tensor gy({10000});
    gy.fill(1.0f);
    const auto gx = dropout.backward(gy);
    for (std::size_t i = 0; i < gx.size(); ++i) {
        EXPECT_FLOAT_EQ(gx[i], y[i]); // mask * scale in both directions
    }
}

TEST(Dropout, RejectsInvalidProbability)
{
    EXPECT_THROW(Dropout(1.0, 1), std::invalid_argument);
    EXPECT_THROW(Dropout(-0.1, 1), std::invalid_argument);
}

TEST(Dropout2d, ZerosWholeChannels)
{
    Dropout2d dropout(0.5, 3);
    Tensor x({4, 8, 3, 3});
    x.fill(1.0f);
    const auto y = dropout.forward(x, true);
    // Each (n, c) plane must be all-zero or all-2.0.
    const std::size_t plane = 9;
    for (std::size_t nc = 0; nc < 32; ++nc) {
        const float first = y[nc * plane];
        for (std::size_t i = 0; i < plane; ++i) {
            EXPECT_FLOAT_EQ(y[nc * plane + i], first);
        }
        EXPECT_TRUE(first == 0.0f || first == 2.0f);
    }
}

TEST(MaxPool2d, ForwardPicksMaxima)
{
    MaxPool2d pool(2);
    const Tensor x({1, 1, 4, 4}, {1, 2, 0, 0, //
                                  3, 4, 0, 1, //
                                  5, 0, 9, 8, //
                                  0, 6, 7, 0});
    const auto y = pool.forward(x, false);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y[0], 4.0f);
    EXPECT_FLOAT_EQ(y[1], 1.0f);
    EXPECT_FLOAT_EQ(y[2], 6.0f);
    EXPECT_FLOAT_EQ(y[3], 9.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax)
{
    MaxPool2d pool(2);
    const Tensor x({1, 1, 2, 2}, {1, 5, 2, 3});
    (void)pool.forward(x, false);
    const Tensor gy({1, 1, 1, 1}, {7.0f});
    const auto gx = pool.backward(gy);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
    EXPECT_FLOAT_EQ(gx[1], 7.0f); // the max got the gradient
    EXPECT_FLOAT_EQ(gx[2], 0.0f);
    EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(MaxPool2d, NaNWinsAndStays)
{
    // As in PyTorch: a NaN beats every number before or after it, and the
    // first NaN of a window is the one routed back.
    MaxPool2d pool(2);
    const float nan = std::nanf("");
    const Tensor x({1, 1, 2, 6}, {1, nan, 5, 2, nan, nan, //
                                  3, 4, 1, nan, 1, 7});
    const auto y = pool.forward(x, false);
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_TRUE(std::isnan(y[1]));
    EXPECT_TRUE(std::isnan(y[2]));
    const auto gx = pool.backward(Tensor({1, 1, 1, 3}, {1.0f, 2.0f, 3.0f}));
    EXPECT_FLOAT_EQ(gx[1], 1.0f);
    EXPECT_FLOAT_EQ(gx[9], 2.0f);
    EXPECT_FLOAT_EQ(gx[4], 3.0f);
    EXPECT_DOUBLE_EQ(gx.sum(), 6.0);

    // Infinities are numbers: no NaN, the first maximum wins.
    const float inf = std::numeric_limits<float>::infinity();
    const auto z = pool.forward(Tensor({1, 1, 2, 2}, {-inf, inf, inf, 0}), false);
    EXPECT_EQ(z[0], inf);
    EXPECT_FLOAT_EQ(pool.backward(Tensor({1, 1, 1, 1}, {1.0f}))[1], 1.0f);
    const auto m = pool.forward(Tensor({1, 1, 2, 2}, {-inf, -inf, -inf, -inf}), false);
    EXPECT_EQ(m[0], -inf);
}

TEST(MaxPool2d, FloorsOddDimensions)
{
    MaxPool2d pool(2);
    const auto y = pool.forward(Tensor({1, 1, 5, 5}), false);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
}

TEST(Conv2d, ForwardMatchesManualComputation)
{
    Conv2d conv(1, 1, 2, /*seed=*/1);
    auto params = conv.parameters();
    // Kernel [[1, 0], [0, 1]] (trace filter), bias 0.25.
    auto w = params[0]->value.data();
    w[0] = 1.0f;
    w[1] = 0.0f;
    w[2] = 0.0f;
    w[3] = 1.0f;
    params[1]->value.fill(0.25f);

    const Tensor x({1, 1, 3, 3}, {1, 2, 3, //
                                  4, 5, 6, //
                                  7, 8, 9});
    const auto y = conv.forward(x, false);
    ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y[0], 1 + 5 + 0.25f);
    EXPECT_FLOAT_EQ(y[1], 2 + 6 + 0.25f);
    EXPECT_FLOAT_EQ(y[2], 4 + 8 + 0.25f);
    EXPECT_FLOAT_EQ(y[3], 5 + 9 + 0.25f);
}

TEST(Conv2d, StrideReducesOutput)
{
    Conv2d conv(1, 2, 3, 1, /*stride=*/2);
    const auto y = conv.forward(Tensor({1, 1, 7, 7}), false);
    EXPECT_EQ(y.shape(), (Shape{1, 2, 3, 3}));
}

TEST(Conv2d, RejectsBadInput)
{
    Conv2d conv(2, 4, 3, 1);
    EXPECT_THROW((void)conv.forward(Tensor({1, 1, 8, 8}), false), std::invalid_argument);
    EXPECT_THROW((void)conv.forward(Tensor({1, 2, 2, 2}), false), std::invalid_argument);
}

TEST(Sequential, MaskLayerReplacesWithIdentity)
{
    Sequential net;
    net.add(std::make_unique<Linear>(4, 4, 1));
    const auto dropout_index = net.add(std::make_unique<Dropout>(0.5, 2));
    net.add(std::make_unique<Linear>(4, 2, 3));
    const auto params_before = net.parameter_count();
    net.mask_layer(dropout_index);
    EXPECT_EQ(net.layer(dropout_index).name(), "Identity");
    EXPECT_EQ(net.parameter_count(), params_before); // dropout had no params
    const auto y = net.forward(Tensor({1, 4}), true);
    EXPECT_EQ(y.shape(), (Shape{1, 2}));
}

TEST(Sequential, SummaryListsLayers)
{
    Sequential net;
    net.add(std::make_unique<Linear>(8, 4, 1));
    net.add(std::make_unique<ReLU>());
    const auto text = net.summary({1, 8});
    EXPECT_NE(text.find("Linear"), std::string::npos);
    EXPECT_NE(text.find("ReLU"), std::string::npos);
    EXPECT_NE(text.find("Total params: 36"), std::string::npos); // 8*4+4
}

TEST(Sequential, ZeroGradClearsAll)
{
    Sequential net;
    net.add(std::make_unique<Linear>(2, 2, 1));
    (void)net.forward(Tensor({1, 2}, {1, 1}), true);
    (void)net.backward(Tensor({1, 2}, {1, 1}));
    net.zero_grad();
    for (auto* p : net.parameters()) {
        for (const float g : p->grad.data()) {
            EXPECT_FLOAT_EQ(g, 0.0f);
        }
    }
}

} // namespace

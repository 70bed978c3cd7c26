// Bit-exactness of the optimized Conv2d and Linear against the scalar
// reference loops (tests/nn_reference.cpp).  Outputs and weight, bias and
// input gradients must match byte for byte: per layer over a sweep of
// shapes and of output gradients (dense, mostly or all exact zeros, real
// ReLU -> MaxPool masks), and through whole LeNet-5 networks trained for a
// few steps.
#include "nn_reference.hpp"

#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/optimizer.hpp"
#include "fptc/nn/sequential.hpp"
#include "fptc/util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

namespace {

using namespace fptc::nn;
using fptc::util::Rng;

::testing::AssertionResult bit_equal(const Tensor& actual, const Tensor& expected)
{
    if (actual.shape() != expected.shape()) {
        return ::testing::AssertionFailure()
               << "shape " << actual.shape_string() << " vs " << expected.shape_string();
    }
    const auto a = actual.data();
    const auto e = expected.data();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &e[i], sizeof(float)) != 0) {
            return ::testing::AssertionFailure()
                   << "element " << i << " of " << a.size() << ": " << a[i] << " vs " << e[i];
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_parameters(const std::vector<Parameter*>& actual,
                                           const std::vector<Parameter*>& expected)
{
    if (actual.size() != expected.size()) {
        return ::testing::AssertionFailure()
               << actual.size() << " vs " << expected.size() << " parameters";
    }
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (auto value = bit_equal(actual[i]->value, expected[i]->value); !value) {
            return value << " (parameter " << i << " value)";
        }
        if (auto grad = bit_equal(actual[i]->grad, expected[i]->grad); !grad) {
            return grad << " (parameter " << i << " grad)";
        }
    }
    return ::testing::AssertionSuccess();
}

/// Normal entries of which about half are exact zeros, some of them -0,
/// as a gradient after ReLU: exercises the zero-gradient terms.
Tensor half_zero_randn(const Shape& shape, Rng& rng)
{
    Tensor t(shape);
    for (auto& v : t.data()) {
        const double u = rng.uniform();
        v = u < 0.45 ? 0.0f : u < 0.5 ? -0.0f : static_cast<float>(rng.normal());
    }
    return t;
}

/// An output gradient for a layer output `y`.
using GradientMaker = Tensor (*)(const Tensor& y, Rng& rng);

Tensor half_zero_gradient(const Tensor& y, Rng& rng)
{
    return half_zero_randn(y.shape(), rng);
}

/// About 75% exact zeros, a fifth of them -0, as in training after ReLU
/// and 2x2 MaxPool.
Tensor mostly_zero_gradient(const Tensor& y, Rng& rng)
{
    Tensor t(y.shape());
    for (auto& v : t.data()) {
        const double u = rng.uniform();
        v = u < 0.6 ? 0.0f : u < 0.75 ? -0.0f : static_cast<float>(rng.normal());
    }
    return t;
}

/// Every element an exact zero, +0 and -0 mixed.
Tensor zero_gradient(const Tensor& y, Rng& rng)
{
    Tensor t(y.shape());
    for (auto& v : t.data()) {
        v = rng.uniform() < 0.5 ? 0.0f : -0.0f;
    }
    return t;
}

/// The gradient a conv output gets in LeNet: a dense gradient on
/// MaxPool2d(2)(ReLU(y)), sent back through both layers.
Tensor pooled_relu_gradient(const Tensor& y, Rng& rng)
{
    ReLU relu;
    MaxPool2d pool(2);
    const Tensor pooled = pool.forward(relu.forward(y, true), true);
    return relu.backward(pool.backward(Tensor::randn(pooled.shape(), rng)));
}

/// Runs `layer` and `ref` (which starts as its copy) through two forward /
/// backward rounds, so the second round's parameter gradients accumulate
/// onto the first's, comparing every output and gradient.  A layer that
/// computes no input gradient must return an empty tensor.
void expect_layers_agree(Layer& layer, Layer& ref, const Shape& input_shape, Rng& rng,
                         GradientMaker make_gradient = half_zero_gradient,
                         bool input_gradient = true)
{
    ASSERT_TRUE(same_parameters(layer.parameters(), ref.parameters()));
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Tensor x = half_zero_randn(input_shape, rng);
        const Tensor y = layer.forward(x, true);
        ASSERT_TRUE(bit_equal(y, ref.forward(x, true))) << "forward";
        const Tensor gy = make_gradient(y, rng);
        const Tensor gx = layer.backward(gy);
        const Tensor ref_gx = ref.backward(gy);
        if (input_gradient) {
            ASSERT_TRUE(bit_equal(gx, ref_gx)) << "input gradient";
        } else {
            ASSERT_TRUE(gx.empty()) << "input gradient computed: " << gx.shape_string();
        }
        ASSERT_TRUE(same_parameters(layer.parameters(), ref.parameters()));
    }
}

struct ConvCase {
    std::size_t in_channels, out_channels, hw, kernel, stride, batch;
};

std::string describe(const ConvCase& c)
{
    std::ostringstream out;
    out << "C_in=" << c.in_channels << " C_out=" << c.out_channels << " H=W=" << c.hw
        << " k=" << c.kernel << " stride=" << c.stride << " batch=" << c.batch;
    return out.str();
}

void expect_conv_agrees(const ConvCase& c, GradientMaker make_gradient = half_zero_gradient,
                        bool input_gradient = true)
{
    SCOPED_TRACE(describe(c));
    Conv2d layer(c.in_channels, c.out_channels, c.kernel, /*seed=*/c.hw * 131 + c.kernel,
                 c.stride);
    layer.set_input_gradient(input_gradient);
    Rng rng(c.in_channels * 1000003 + c.out_channels * 1009 + c.batch);
    for (auto& b : layer.parameters()[1]->value.data()) {
        b = static_cast<float>(rng.normal(0.0, 0.1));
    }
    reference::RefConv2d ref(layer);
    expect_layers_agree(layer, ref, {c.batch, c.in_channels, c.hw, c.hw}, rng, make_gradient,
                        input_gradient);
}

constexpr std::array<std::size_t, 3> kInChannels = {1, 3, 6};
constexpr std::array<std::size_t, 3> kOutChannels = {1, 6, 16};
constexpr std::array<std::size_t, 6> kSizes = {5, 14, 16, 17, 32, 64};
constexpr std::array<std::size_t, 3> kKernels = {2, 3, 5};
constexpr std::array<std::size_t, 2> kStrides = {1, 2};

TEST(Conv2dKernel, MatchesReferenceForEveryShapeAtBatchOne)
{
    for (const auto hw : kSizes) {
        for (const auto kernel : kKernels) {
            for (const auto stride : kStrides) {
                for (const auto in : kInChannels) {
                    for (const auto out : kOutChannels) {
                        expect_conv_agrees({in, out, hw, kernel, stride, 1});
                        if (HasFatalFailure()) {
                            return;
                        }
                    }
                }
            }
        }
    }
}

TEST(Conv2dKernel, MatchesReferenceAtBatch16And32)
{
    // Every (size, kernel, stride) at both batch sizes, the channel pair
    // cycling through the sweep; at 32x32 and up only C_in = 1 (the conv1
    // shapes) so the scalar oracle stays fast under sanitizers.
    std::size_t next = 0;
    for (const std::size_t batch : {16, 32}) {
        for (const auto hw : kSizes) {
            for (const auto kernel : kKernels) {
                for (const auto stride : kStrides) {
                    const std::size_t pair = next++;
                    const std::size_t in = hw >= 32 ? 1 : kInChannels[pair / 3 % 3];
                    expect_conv_agrees({in, kOutChannels[pair % 3], hw, kernel, stride, batch});
                    if (HasFatalFailure()) {
                        return;
                    }
                }
            }
        }
    }
}

TEST(Conv2dKernel, MatchesReferenceAtLeNetShapes)
{
    for (const std::size_t batch : {16, 32}) {
        expect_conv_agrees({1, 6, 32, 5, 1, batch});
        expect_conv_agrees({1, 6, 64, 5, 1, batch});
        expect_conv_agrees({6, 16, 14, 5, 1, batch});
        expect_conv_agrees({6, 16, 30, 5, 1, batch});
    }
}

/// Geometries for the sparse-gradient tests: the LeNet shapes, every
/// kernel size and stride, odd sizes, channel counts past one register
/// group of kernel rows (6 x 5 = 30 rows).
constexpr std::array<ConvCase, 8> kSparseCases = {{{1, 6, 32, 5, 1, 16},
                                                   {6, 16, 14, 5, 1, 16},
                                                   {1, 6, 64, 5, 1, 8},
                                                   {6, 16, 30, 5, 1, 4},
                                                   {3, 6, 17, 3, 2, 5},
                                                   {6, 1, 16, 2, 1, 3},
                                                   {3, 16, 14, 5, 2, 2},
                                                   {1, 1, 6, 5, 1, 7}}};

TEST(Conv2dKernel, MatchesReferenceOnMostlyZeroGradients)
{
    for (const auto& c : kSparseCases) {
        expect_conv_agrees(c, mostly_zero_gradient);
        if (HasFatalFailure()) {
            return;
        }
    }
}

TEST(Conv2dKernel, MatchesReferenceOnAllZeroGradients)
{
    for (const auto& c : kSparseCases) {
        expect_conv_agrees(c, zero_gradient);
        if (HasFatalFailure()) {
            return;
        }
    }
}

TEST(Conv2dKernel, MatchesReferenceOnReluMaxPoolGradients)
{
    for (const auto& c : kSparseCases) {
        expect_conv_agrees(c, pooled_relu_gradient);
        if (HasFatalFailure()) {
            return;
        }
    }
}

TEST(Conv2dKernel, WithoutInputGradientKeepsParameterGradients)
{
    for (const auto& c : kSparseCases) {
        expect_conv_agrees(c, pooled_relu_gradient, /*input_gradient=*/false);
        expect_conv_agrees(c, half_zero_gradient, /*input_gradient=*/false);
        if (HasFatalFailure()) {
            return;
        }
    }
}

TEST(LinearKernel, MatchesReference)
{
    constexpr std::array<std::pair<std::size_t, std::size_t>, 4> kShapes = {
        {{2, 3}, {84, 5}, {120, 84}, {400, 120}}};
    for (const auto& [in, out] : kShapes) {
        for (const std::size_t batch : {1, 7, 16, 17, 32}) {
            SCOPED_TRACE("in=" + std::to_string(in) + " out=" + std::to_string(out) +
                         " batch=" + std::to_string(batch));
            Linear layer(in, out, /*seed=*/in + out);
            Rng rng(in * 31 + batch);
            for (auto& b : layer.parameters()[1]->value.data()) {
                b = static_cast<float>(rng.normal(0.0, 0.1));
            }
            reference::RefLinear ref(layer);
            expect_layers_agree(layer, ref, {batch, in}, rng);
            if (HasFatalFailure()) {
                return;
            }
        }
    }
}

/// Forwards every call to a layer owned by another network: same object,
/// same dropout stream.
class Borrowed final : public Layer {
public:
    explicit Borrowed(Layer& inner) : inner_(inner) {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }
    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override
    {
        return inner_.forward(input, training);
    }
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override
    {
        return inner_.backward(grad_output);
    }
    [[nodiscard]] std::vector<Parameter*> parameters() override { return inner_.parameters(); }

private:
    Layer& inner_;
};

/// `donor` with each Conv2d / Linear replaced by a reference copy and
/// every other layer borrowed.  Built from a second network of the same
/// config, the twin starts identical to the first, dropout masks included.
Sequential reference_twin(Sequential& donor)
{
    Sequential twin;
    for (std::size_t i = 0; i < donor.layer_count(); ++i) {
        Layer& layer = donor.layer(i);
        if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
            twin.add(std::make_unique<reference::RefConv2d>(*conv));
        } else if (auto* linear = dynamic_cast<Linear*>(&layer)) {
            twin.add(std::make_unique<reference::RefLinear>(*linear));
        } else {
            twin.add(std::make_unique<Borrowed>(layer));
        }
    }
    return twin;
}

/// A flowpic-like batch: non-negative, mostly empty cells.
Tensor flowpic_batch(std::size_t batch, std::size_t dim, Rng& rng)
{
    Tensor x({batch, 1, dim, dim});
    for (auto& v : x.data()) {
        v = rng.uniform() < 0.8 ? 0.0f : static_cast<float>(rng.uniform());
    }
    return x;
}

void expect_supervised_training_agrees(std::size_t dim, std::size_t batch = 8)
{
    SCOPED_TRACE("flowpic_dim=" + std::to_string(dim) + " batch=" + std::to_string(batch));
    ModelConfig config;
    config.flowpic_dim = dim;
    Sequential network = make_supervised_network(config);
    Sequential donor = make_supervised_network(config);
    Sequential twin = reference_twin(donor);
    ASSERT_TRUE(same_parameters(network.parameters(), twin.parameters()));
    Adam optimizer(network.parameters(), 1e-3);
    Adam twin_optimizer(twin.parameters(), 1e-3);

    Rng rng(dim);
    const Tensor x = flowpic_batch(batch, dim, rng);
    std::vector<std::size_t> labels(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        labels[i] = i % config.num_classes;
    }
    for (int step = 0; step < 3; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const Tensor logits = network.forward(x, true);
        const Tensor twin_logits = twin.forward(x, true);
        ASSERT_TRUE(bit_equal(logits, twin_logits)) << "logits";
        network.zero_grad();
        twin.zero_grad();
        (void)network.backward(cross_entropy(logits, labels).grad);
        (void)twin.backward(cross_entropy(twin_logits, labels).grad);
        optimizer.step();
        twin_optimizer.step();
        ASSERT_TRUE(same_parameters(network.parameters(), twin.parameters()));
    }
}

TEST(KernelPin, SupervisedLeNetTrainsBitIdenticallyAt32)
{
    expect_supervised_training_agrees(32);
}

TEST(KernelPin, SupervisedLeNetTrainsBitIdenticallyAt64)
{
    expect_supervised_training_agrees(64);
}

TEST(KernelPin, SupervisedLeNetTrainsBitIdenticallyAtBatch32)
{
    expect_supervised_training_agrees(32, 32);
}

void expect_simclr_step_agrees(std::size_t batch)
{
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ModelConfig config;
    SimClrNetwork network = make_simclr_network(config);
    SimClrNetwork donor = make_simclr_network(config);
    SimClrNetwork twin{reference_twin(donor.trunk), reference_twin(donor.projection)};
    ASSERT_TRUE(same_parameters(network.parameters(), twin.parameters()));
    Adam optimizer(network.parameters(), 1e-3);
    Adam twin_optimizer(twin.parameters(), 1e-3);

    Rng rng(5);
    const Tensor views = flowpic_batch(batch, config.flowpic_dim, rng); // batch / 2 view pairs
    const Tensor z = network.forward(views, true);
    const Tensor twin_z = twin.forward(views, true);
    ASSERT_TRUE(bit_equal(z, twin_z)) << "projections";
    network.zero_grad();
    twin.zero_grad();
    network.backward(nt_xent(z).grad);
    twin.backward(nt_xent(twin_z).grad);
    optimizer.step();
    twin_optimizer.step();
    EXPECT_TRUE(same_parameters(network.parameters(), twin.parameters()));
}

TEST(KernelPin, SimClrNtXentStepIsBitIdentical)
{
    expect_simclr_step_agrees(8);
}

TEST(KernelPin, SimClrNtXentStepIsBitIdenticalAtBatch32)
{
    expect_simclr_step_agrees(32);
}

} // namespace

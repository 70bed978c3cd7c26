// Bit-exactness of the optimized GEMM, Conv2d, Linear, MaxPool2d and Adam
// kernels against the scalar reference loops (tests/nn_reference.cpp).
// Outputs, weight, bias and input gradients and Adam's weights and moments
// must match byte for byte: the GEMM over shapes that reach every column
// and row tail, each layer over a sweep of shapes (kernel rows narrower
// than, as wide as and wider than both vector widths; last windows that
// end at the end of the batch) and of output gradients (dense, mostly or
// all exact zeros, real ReLU -> MaxPool masks) or pooling windows (ties,
// signed zeros, infinities, NaN), Adam over every tail length and special
// gradient value, and whole LeNet-5 networks trained for a few steps.
// Every such test runs twice: on the baseline kernels, forced, and on the
// AVX2 ones, a half skipped on CPUs without AVX2.
#include "nn_reference.hpp"

#include "gemm.hpp"

#include "fptc/nn/loss.hpp"
#include "fptc/nn/models.hpp"
#include "fptc/nn/optimizer.hpp"
#include "fptc/nn/sequential.hpp"
#include "fptc/util/isa.hpp"
#include "fptc/util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

namespace {

using namespace fptc::nn;
using fptc::util::Isa;
using fptc::util::Rng;

bool cpu_has_avx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/// Runs the baseline kernels for its lifetime.
class ForcedBaseline {
public:
    ForcedBaseline() { fptc::util::force_baseline(true); }
    ~ForcedBaseline() { fptc::util::force_baseline(false); }
    ForcedBaseline(const ForcedBaseline&) = delete;
    ForcedBaseline& operator=(const ForcedBaseline&) = delete;
};

/// Runs `body` on the baseline kernels, then on the AVX2 ones; the AVX2
/// half is skipped on a CPU without AVX2.
template <typename Body>
void on_both_paths(Body body)
{
    {
        SCOPED_TRACE("baseline kernels");
        const ForcedBaseline forced;
        ASSERT_EQ(fptc::util::active_isa(), Isa::baseline);
        body();
    }
    if (::testing::Test::HasFatalFailure()) {
        return;
    }
    if (!cpu_has_avx2()) {
        GTEST_SKIP() << "no AVX2 on this CPU: only the baseline half ran";
    }
    SCOPED_TRACE("AVX2 kernels");
    ASSERT_EQ(fptc::util::active_isa(), Isa::avx2);
    body();
}

TEST(KernelDispatch, PicksAvx2WheneverTheCpuHasIt)
{
    // A build that lost the AVX2 unit, or a pick that fell back, would
    // leave an AVX2 host on 4 lanes without failing anything else.
    EXPECT_EQ(fptc::util::selected_isa(), cpu_has_avx2() ? Isa::avx2 : Isa::baseline);
    EXPECT_EQ(fptc::util::active_isa(), fptc::util::selected_isa());
    {
        const ForcedBaseline forced;
        EXPECT_EQ(fptc::util::active_isa(), Isa::baseline);
    }
    EXPECT_EQ(fptc::util::active_isa(), fptc::util::selected_isa());
}

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
constexpr std::array<std::size_t, 8> kKernels = {1, 2, 3, 4, 5, 7, 8, 9};
constexpr std::array<std::size_t, 2> kStrides = {1, 2};

TEST(Conv2dKernel, MatchesReferenceForEveryShapeAtBatchOne)
{
    on_both_paths([] {
        for (const auto hw : kSizes) {
            for (const auto kernel : kKernels) {
                if (kernel > hw) {
                    continue;
                }
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
    });
}

TEST(Conv2dKernel, MatchesReferenceAtBatch16And32)
{
    on_both_paths([] {
        // Every (size, kernel, stride) at both batch sizes, the channel pair
        // cycling through the sweep; at 32x32 and up only C_in = 1 (the conv1
        // shapes) so the scalar oracle stays fast under sanitizers.
        std::size_t next = 0;
        for (const std::size_t batch : {16, 32}) {
            for (const auto hw : kSizes) {
                for (const auto kernel : kKernels) {
                    if (kernel > hw) {
                        continue;
                    }
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
    });
}

TEST(Conv2dKernel, MatchesReferenceAtLeNetShapes)
{
    on_both_paths([] {
        for (const std::size_t batch : {16, 32}) {
            expect_conv_agrees({1, 6, 32, 5, 1, batch});
            expect_conv_agrees({1, 6, 64, 5, 1, batch});
            expect_conv_agrees({6, 16, 14, 5, 1, batch});
            expect_conv_agrees({6, 16, 30, 5, 1, batch});
        }
    });
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
    on_both_paths([] {
        for (const auto& c : kSparseCases) {
            expect_conv_agrees(c, mostly_zero_gradient);
            if (HasFatalFailure()) {
                return;
            }
        }
    });
}

TEST(Conv2dKernel, MatchesReferenceOnAllZeroGradients)
{
    on_both_paths([] {
        for (const auto& c : kSparseCases) {
            expect_conv_agrees(c, zero_gradient);
            if (HasFatalFailure()) {
                return;
            }
        }
    });
}

TEST(Conv2dKernel, MatchesReferenceOnReluMaxPoolGradients)
{
    on_both_paths([] {
        for (const auto& c : kSparseCases) {
            expect_conv_agrees(c, pooled_relu_gradient);
            if (HasFatalFailure()) {
                return;
            }
        }
    });
}

TEST(Conv2dKernel, WithoutInputGradientKeepsParameterGradients)
{
    on_both_paths([] {
        for (const auto& c : kSparseCases) {
            expect_conv_agrees(c, pooled_relu_gradient, /*input_gradient=*/false);
            expect_conv_agrees(c, half_zero_gradient, /*input_gradient=*/false);
            if (HasFatalFailure()) {
                return;
            }
        }
    });
}

/// Mostly exact zeros, but the last `tail` elements of every plane
/// nonzero, so the last window of the last sample sends terms.
Tensor last_windows_gradient(const Tensor& y, Rng& rng)
{
    Tensor t = mostly_zero_gradient(y, rng);
    const std::size_t plane = y.dim(2) * y.dim(3);
    const std::size_t tail = plane < 3 ? plane : 3;
    for (std::size_t p = 0; p < y.size() / plane; ++p) {
        for (std::size_t i = plane - tail; i < plane; ++i) {
            t[p * plane + i] = static_cast<float>(rng.normal()) + 2.0f;
        }
    }
    return t;
}

TEST(Conv2dKernel, LastWindowEndsAtTheEndOfTheBatch)
{
    // (hw − k) divisible by the stride puts the last window's last element
    // on the last float of the input; a vector of the kernel row's width
    // rounded up would read past it.  Run under AddressSanitizer
    // (asan-ubsan preset) this catches any read or write past the batch.
    on_both_paths([] {
        for (const auto kernel : kKernels) {
            for (const std::size_t stride : {1, 2}) {
                for (const std::size_t in : {1, 3}) {
                    const std::size_t hw = kernel + 2 * stride;
                    expect_conv_agrees({in, 2, hw, kernel, stride, 3}, last_windows_gradient);
                    expect_conv_agrees({in, 2, hw, kernel, stride, 3}, last_windows_gradient,
                                       /*input_gradient=*/false);
                    if (HasFatalFailure()) {
                        return;
                    }
                }
            }
        }
    });
}

TEST(LinearKernel, MatchesReference)
{
    on_both_paths([] {
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
    });
}

/// Normal entries, a tenth of them exact zeros of either sign.
std::vector<float> gemm_operand(std::size_t size, Rng& rng)
{
    std::vector<float> v(size);
    for (auto& x : v) {
        const double u = rng.uniform();
        x = u < 0.05 ? 0.0f : u < 0.1 ? -0.0f : static_cast<float>(rng.normal());
    }
    return v;
}

TEST(GemmKernel, MatchesReferenceOnEveryTail)
{
    // n reaches every column block and tail of both widths (32/16/8/4 and
    // 16/8/4 columns, then scalar), m odd and even, k from one term to
    // fc1's 400; leading dimensions wider than the rows, whose padding must
    // stay untouched.
    constexpr std::array<std::size_t, 13> kColumns = {1, 3, 7, 8, 9, 15, 16,
                                                      17, 31, 32, 33, 100, 784};
    constexpr std::array<std::size_t, 5> kRows = {1, 2, 3, 6, 17};
    constexpr std::array<std::size_t, 4> kDepths = {1, 25, 150, 400};
    on_both_paths([&] {
        for (const auto n : kColumns) {
            for (const auto m : kRows) {
                for (const auto k : kDepths) {
                    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                                 " k=" + std::to_string(k));
                    const std::size_t lda = k + 1;
                    const std::size_t ldb = n + 2;
                    const std::size_t ldc = n + 3;
                    Rng rng(m * 7919 + n * 31 + k);
                    const auto a = gemm_operand(m * lda, rng);
                    const auto b = gemm_operand(k * ldb, rng);
                    auto c = gemm_operand(m * ldc, rng);
                    auto expected = c;
                    detail::gemm_acc(m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
                    reference::gemm_acc(m, n, k, a.data(), lda, b.data(), ldb, expected.data(),
                                        ldc);
                    ASSERT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)),
                              0);
                }
            }
        }
    });
}

/// Adam gradients: normal values with ±0, subnormals, values near
/// FLT_MAX (whose squares overflow), ±inf and NaN mixed in.  The NaN is
/// x86's default NaN (−qNaN, 0xFFC00000), the one every invalid operation
/// (inf − inf, 0 · inf) returns, so all NaNs in play share one pattern:
/// where two different NaNs meet in an add, which one comes out depends on
/// the order the compiler gave the operands, which C++ leaves open (a
/// −O0 AVX2 build returned the other one than the −O0 reference loop).
std::vector<float> adam_gradient(std::size_t n, Rng& rng)
{
    constexpr float kMax = std::numeric_limits<float>::max();
    constexpr float kTiny = std::numeric_limits<float>::denorm_min();
    const std::array<float, 10> kSpecial = {0.0f,         -0.0f,  kTiny * 3,
                                            -kTiny * 700, kMax,   -kMax * 0.75f,
                                            std::numeric_limits<float>::infinity(),
                                            -std::numeric_limits<float>::infinity(),
                                            -std::numeric_limits<float>::quiet_NaN(), 1e-30f};
    std::vector<float> g(n);
    for (auto& v : g) {
        v = rng.uniform() < 0.3 ? kSpecial[static_cast<std::size_t>(rng.uniform_int(0, 9))]
                                : static_cast<float>(rng.normal());
    }
    return g;
}

TEST(AdamKernel, MatchesReferenceOnEveryTailAndSpecialValue)
{
    // Lengths below, at and past both vector widths, and LeNet-5's 61,281
    // weights; eight steps of fresh gradients, so non-finite moments meet
    // later gradients of every kind.
    on_both_paths([] {
        for (const std::size_t n : {1, 3, 7, 8, 9, 61281}) {
            SCOPED_TRACE("n=" + std::to_string(n));
            Rng rng(n);
            std::vector<float> value(n);
            for (auto& v : value) {
                v = static_cast<float>(rng.normal(0.0, 0.1));
            }
            std::vector<float> m(n, 0.0f);
            std::vector<float> v(n, 0.0f);
            auto ref_value = value;
            auto ref_m = m;
            auto ref_v = v;
            for (int step = 1; step <= 8; ++step) {
                SCOPED_TRACE("step " + std::to_string(step));
                const auto grad = adam_gradient(n, rng);
                const double alpha =
                    1e-3 * std::sqrt(1.0 - std::pow(0.999, step)) / (1.0 - std::pow(0.9, step));
                detail::adam_update(n, value.data(), grad.data(), m.data(), v.data(), 0.9f,
                                    0.999f, alpha, 1e-8);
                reference::adam_update(n, ref_value.data(), grad.data(), ref_m.data(),
                                       ref_v.data(), 0.9f, 0.999f, alpha, 1e-8);
                ASSERT_EQ(std::memcmp(m.data(), ref_m.data(), n * sizeof(float)), 0) << "m";
                ASSERT_EQ(std::memcmp(v.data(), ref_v.data(), n * sizeof(float)), 0) << "v";
                ASSERT_EQ(std::memcmp(value.data(), ref_value.data(), n * sizeof(float)), 0)
                    << "value";
            }
        }
    });
}

/// Pool inputs drawn from a few values, so windows tie often, with +0 and
/// -0, both infinities, and -inf-only windows common at `inf_share`.
Tensor pool_input(const Shape& shape, Rng& rng, double inf_share = 0.1)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    Tensor t(shape);
    for (auto& v : t.data()) {
        const double u = rng.uniform();
        if (u < inf_share) {
            v = -kInf;
            continue;
        }
        switch (rng.uniform_int(0, 7)) {
        case 0: v = 0.0f; break;
        case 1: v = -0.0f; break;
        case 2: v = 1.0f; break;
        case 3: v = -1.0f; break;
        case 4: v = kInf; break;
        default: v = static_cast<float>(rng.normal()); break;
        }
    }
    return t;
}

/// MaxPool2d and the reference agree on the output and, through a backward
/// pass of distinct gradients, on every window's index.
::testing::AssertionResult pools_agree(std::size_t window, const Tensor& x)
{
    MaxPool2d pool(window);
    reference::RefMaxPool2d ref(window);
    const Tensor y = pool.forward(x, true);
    if (auto same = bit_equal(y, ref.forward(x, true)); !same) {
        return same << " (forward)";
    }
    Tensor gy(y.shape());
    for (std::size_t i = 0; i < gy.size(); ++i) {
        gy[i] = static_cast<float>(i + 1);
    }
    if (auto same = bit_equal(pool.backward(gy), ref.backward(gy)); !same) {
        return same << " (backward: a window's index differs)";
    }
    return ::testing::AssertionSuccess();
}

TEST(MaxPoolKernel, MatchesReferenceOnEveryTail)
{
    // Output widths 1..33 reach both vector widths, the overlapping last
    // block and the scalar path; odd sizes drop their last row / column.
    on_both_paths([] {
        for (const std::size_t h : {2, 3, 10, 28}) {
            for (std::size_t w = 2; w <= 67; w += w < 20 ? 1 : 7) {
                SCOPED_TRACE("h=" + std::to_string(h) + " w=" + std::to_string(w));
                Rng rng(h * 101 + w);
                ASSERT_TRUE(pools_agree(2, pool_input({2, 3, h, w}, rng)));
            }
        }
        Rng rng(3);
        ASSERT_TRUE(pools_agree(2, pool_input({16, 6, 28, 28}, rng, 0.0))) << "pool1";
        ASSERT_TRUE(pools_agree(2, pool_input({16, 16, 10, 10}, rng, 0.0))) << "pool2";
        ASSERT_TRUE(pools_agree(3, pool_input({2, 3, 9, 10}, rng))) << "3x3 window";
    });
}

TEST(MaxPoolKernel, TiesSignedZerosAndInfinities)
{
    on_both_paths([] {
        constexpr float kInf = std::numeric_limits<float>::infinity();
        // Each window as (a b / c d), 16 in a row, rotated through every
        // position so each case meets every lane of both widths.
        const std::vector<std::array<float, 4>> kWindows = {{
            {1, 1, 1, 1},                     // four-way tie: a
            {0, 2, 2, 0},                     // b and c tie: b
            {0, 0, 2, 2},                     // c and d tie: c
            {-0.0f, 0, 0, -0.0f},             // +0 never beats -0: a
            {0, -0.0f, -0.0f, 0},             // a
            {-0.0f, -0.0f, 0, 0},             // a
            {-kInf, -kInf, -kInf, -kInf},     // no max: plane index 0
            {kInf, 3, kInf, 3},               // a
            {-kInf, kInf, kInf, -kInf},       // b
            {-kInf, -kInf, -kInf, -2},        // d
            {-1, -1, -kInf, -1},              // a
            {5, -kInf, 5, kInf},              // d
            {-0.0f, -kInf, -kInf, -kInf},     // a
            {-kInf, -kInf, 0, -0.0f},         // c
            {7, 7, 8, 8},                     // c
            {-3, -2, -2, -3},                 // b
        }};
        for (std::size_t shift = 0; shift < kWindows.size(); ++shift) {
            Tensor x({1, 2, 2, 2 * kWindows.size()});
            const std::size_t w = 2 * kWindows.size();
            for (std::size_t plane = 0; plane < 2; ++plane) {
                for (std::size_t i = 0; i < kWindows.size(); ++i) {
                    const auto& win = kWindows[(i + shift + plane) % kWindows.size()];
                    float* top = x.data().data() + plane * 2 * w + 2 * i;
                    top[0] = win[0];
                    top[1] = win[1];
                    top[w] = win[2];
                    top[w + 1] = win[3];
                }
            }
            SCOPED_TRACE("shift " + std::to_string(shift));
            ASSERT_TRUE(pools_agree(2, x));
        }
    });
}

TEST(MaxPoolKernel, NaNInEachWindowPosition)
{
    on_both_paths([] {
        const float nan = std::nanf("");
        for (std::size_t position = 0; position < 4; ++position) {
            SCOPED_TRACE("NaN at window position " + std::to_string(position));
            Rng rng(position);
            Tensor x = pool_input({2, 3, 10, 18}, rng);
            // Every third window gets a NaN at `position`; the first window
            // also one at d, so it holds two unless position is d.
            for (std::size_t p = 0; p < 6; ++p) {
                for (std::size_t oy = 0; oy < 5; ++oy) {
                    for (std::size_t ox = oy % 3; ox < 9; ox += 3) {
                        x[p * 180 + (2 * oy + position / 2) * 18 + 2 * ox + position % 2] = nan;
                    }
                }
            }
            x[19] = nan;
            ASSERT_TRUE(pools_agree(2, x));
        }
    });
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

/// `donor` with each Conv2d / Linear / MaxPool2d replaced by a reference
/// copy and every other layer borrowed.  Built from a second network of the
/// same config, the twin starts identical to the first, dropout masks
/// included.
Sequential reference_twin(Sequential& donor)
{
    Sequential twin;
    for (std::size_t i = 0; i < donor.layer_count(); ++i) {
        Layer& layer = donor.layer(i);
        if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
            twin.add(std::make_unique<reference::RefConv2d>(*conv));
        } else if (auto* linear = dynamic_cast<Linear*>(&layer)) {
            twin.add(std::make_unique<reference::RefLinear>(*linear));
        } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
            twin.add(std::make_unique<reference::RefMaxPool2d>(pool->window()));
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
    on_both_paths([] {
        expect_supervised_training_agrees(32);
    });
}

TEST(KernelPin, SupervisedLeNetTrainsBitIdenticallyAt64)
{
    on_both_paths([] {
        expect_supervised_training_agrees(64);
    });
}

TEST(KernelPin, SupervisedLeNetTrainsBitIdenticallyAtBatch32)
{
    on_both_paths([] {
        expect_supervised_training_agrees(32, 32);
    });
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
    on_both_paths([] {
        expect_simclr_step_agrees(8);
    });
}

TEST(KernelPin, SimClrNtXentStepIsBitIdenticalAtBatch32)
{
    on_both_paths([] {
        expect_simclr_step_agrees(32);
    });
}

} // namespace

#include "gemm.hpp"

#include "kernels.hpp"

#include "fptc/util/isa.hpp"

namespace fptc::nn::detail {

#if defined(__x86_64__)
namespace avx2 { // gemm_avx2.cpp, built with -mavx2

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept;
bool max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept;
void conv1_forward(std::size_t batch, std::size_t channels, std::size_t h, std::size_t w,
                   std::size_t k, const float* x, const float* kernel, const float* bias,
                   float* y) noexcept;
std::size_t gather_nonzeros(const float* gy, const ConvShape& s, float* list) noexcept;
void conv_weight_grad(const float* list, std::size_t count, const float* x,
                      std::size_t readable, const ConvShape& s, float* gk, float* gb) noexcept;
void conv_input_grad(const float* list, std::size_t count, const float* kernel, float* gx,
                     std::size_t writable, const ConvShape& s) noexcept;
void adam_update(std::size_t n, float* value, const float* grad, float* m, float* v, float b1,
                 float b2, double alpha, double epsilon) noexcept;

} // namespace avx2
#endif

namespace {

/// One instruction set's kernels.
struct Kernels {
    decltype(&detail::gemm_acc) gemm_acc;
    decltype(&detail::max_pool_2x2) max_pool_2x2;
    decltype(&detail::conv1_forward) conv1_forward;
    decltype(&detail::gather_nonzeros) gather_nonzeros;
    decltype(&detail::conv_weight_grad) conv_weight_grad;
    decltype(&detail::conv_input_grad) conv_input_grad;
    decltype(&detail::adam_update) adam_update;
};

constexpr Kernels kBaseline{gemm_lanes<v4f>,
                            max_pool_lanes<v4f>,
                            conv1_lanes<v4f>,
                            gather_lanes<v4f>,
                            weight_grad_lanes<v4f>,
                            input_grad_lanes<v4f>,
                            adam_lanes<v4f>};

/// The kernels of util::active_isa().
const Kernels& active() noexcept
{
#if defined(__x86_64__)
    static constexpr Kernels kAvx2{avx2::gemm_acc,
                                   avx2::max_pool_2x2,
                                   avx2::conv1_forward,
                                   avx2::gather_nonzeros,
                                   avx2::conv_weight_grad,
                                   avx2::conv_input_grad,
                                   avx2::adam_update};
    if (util::active_isa() == util::Isa::avx2) {
        return kAvx2;
    }
#endif
    return kBaseline;
}

} // namespace

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    active().gemm_acc(m, n, k, a, lda, b, ldb, c, ldc);
}

bool max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept
{
    return active().max_pool_2x2(planes, h, w, x, y, arg);
}

void conv1_forward(std::size_t batch, std::size_t channels, std::size_t h, std::size_t w,
                   std::size_t k, const float* x, const float* kernel, const float* bias,
                   float* y) noexcept
{
    active().conv1_forward(batch, channels, h, w, k, x, kernel, bias, y);
}

std::size_t gather_nonzeros(const float* gy, const ConvShape& s, float* list) noexcept
{
    return active().gather_nonzeros(gy, s, list);
}

void conv_weight_grad(const float* list, std::size_t count, const float* x,
                      std::size_t readable, const ConvShape& s, float* gk, float* gb) noexcept
{
    active().conv_weight_grad(list, count, x, readable, s, gk, gb);
}

void conv_input_grad(const float* list, std::size_t count, const float* kernel, float* gx,
                     std::size_t writable, const ConvShape& s) noexcept
{
    active().conv_input_grad(list, count, kernel, gx, writable, s);
}

void adam_update(std::size_t n, float* value, const float* grad, float* m, float* v, float b1,
                 float b2, double alpha, double epsilon) noexcept
{
    active().adam_update(n, value, grad, m, v, b1, b2, alpha, epsilon);
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept
{
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

} // namespace fptc::nn::detail

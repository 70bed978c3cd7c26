// The AVX2 instantiation of kernels.hpp: 8-lane (v8f) GEMM, 2×2 max
// pooling, conv1 forward, the three Conv2d backward kernels, and Adam on
// 4 double lanes.  This unit alone is built with -mavx2
// (src/nn/CMakeLists.txt); gemm.cpp calls it only on a CPU that has AVX2.
// Its only global symbols are the entry points in detail::avx2; the
// NnIsaHygiene test checks that with nm.
#if defined(__x86_64__)

#include "kernels.hpp"

namespace fptc::nn::detail::avx2 {

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    gemm_lanes<v8f>(m, n, k, a, lda, b, ldb, c, ldc);
}

bool max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept
{
    return max_pool_lanes<v8f>(planes, h, w, x, y, arg);
}

void conv1_forward(std::size_t batch, std::size_t channels, std::size_t h, std::size_t w,
                   std::size_t k, const float* x, const float* kernel, const float* bias,
                   float* y) noexcept
{
    conv1_lanes<v8f>(batch, channels, h, w, k, x, kernel, bias, y);
}

std::size_t gather_nonzeros(const float* gy, const ConvShape& s, float* list) noexcept
{
    return gather_lanes<v8f>(gy, s, list);
}

void conv_weight_grad(const float* list, std::size_t count, const float* x,
                      std::size_t readable, const ConvShape& s, float* gk, float* gb) noexcept
{
    weight_grad_lanes<v8f>(list, count, x, readable, s, gk, gb);
}

void conv_input_grad(const float* list, std::size_t count, const float* kernel, float* gx,
                     std::size_t writable, const ConvShape& s) noexcept
{
    input_grad_lanes<v8f>(list, count, kernel, gx, writable, s);
}

void adam_update(std::size_t n, float* value, const float* grad, float* m, float* v, float b1,
                 float b2, double alpha, double epsilon) noexcept
{
    adam_lanes<v8f>(n, value, grad, m, v, b1, b2, alpha, epsilon);
}

} // namespace fptc::nn::detail::avx2

#endif

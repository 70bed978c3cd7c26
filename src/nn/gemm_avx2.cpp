// The AVX2 instantiation of kernels.hpp: 8-lane (v8f) GEMM and 2×2 max
// pooling.  This unit alone is built with -mavx2 (src/nn/CMakeLists.txt);
// gemm.cpp calls it only on a CPU that has AVX2.  Its only global symbols
// are the two entry points in detail::avx2; the NnIsaHygiene test checks
// that with nm.
#if defined(__x86_64__)

#include "kernels.hpp"

namespace fptc::nn::detail::avx2 {

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    gemm_lanes<v8f>(m, n, k, a, lda, b, ldb, c, ldc);
}

void max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept
{
    max_pool_lanes<v8f>(planes, h, w, x, y, arg);
}

} // namespace fptc::nn::detail::avx2

#endif

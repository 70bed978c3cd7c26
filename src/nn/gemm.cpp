#include "gemm.hpp"

#include "kernels.hpp"

#include <atomic>

namespace fptc::nn::detail {

#if defined(__x86_64__)
namespace avx2 { // gemm_avx2.cpp, built with -mavx2

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept;
void max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept;

} // namespace avx2
#endif

namespace {

/// One instruction set's kernels.
struct Kernels {
    Isa isa;
    void (*gemm_acc)(std::size_t, std::size_t, std::size_t, const float*, std::size_t,
                     const float*, std::size_t, float*, std::size_t) noexcept;
    void (*max_pool_2x2)(std::size_t, std::size_t, std::size_t, const float*, float*,
                         std::size_t*) noexcept;
};

constexpr Kernels kBaseline{Isa::baseline, gemm_lanes<v4f>, max_pool_lanes<v4f>};

/// AVX2 where the CPU has it, read once per process.
const Kernels& selected() noexcept
{
#if defined(__x86_64__)
    static constexpr Kernels kAvx2{Isa::avx2, avx2::gemm_acc, avx2::max_pool_2x2};
    static const Kernels* const chosen = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") ? &kAvx2 : &kBaseline;
    }();
    return *chosen;
#else
    return kBaseline;
#endif
}

std::atomic<bool> baseline_forced{false};

const Kernels& active() noexcept
{
    return baseline_forced.load(std::memory_order_relaxed) ? kBaseline : selected();
}

} // namespace

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    active().gemm_acc(m, n, k, a, lda, b, ldb, c, ldc);
}

void max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept
{
    active().max_pool_2x2(planes, h, w, x, y, arg);
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept
{
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

Isa selected_isa() noexcept
{
    return selected().isa;
}

Isa active_isa() noexcept
{
    return active().isa;
}

void force_baseline(bool on) noexcept
{
    baseline_forced.store(on, std::memory_order_relaxed);
}

} // namespace fptc::nn::detail

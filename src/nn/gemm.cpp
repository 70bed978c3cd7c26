#include "gemm.hpp"

namespace fptc::nn::detail {

namespace {

/// C[Rows × 4·Vecs] += A[Rows × k] · B[k × 4·Vecs], accumulators in registers.
template <std::size_t Rows, std::size_t Vecs>
inline void tile(std::size_t k, const float* a, std::size_t lda, const float* b, std::size_t ldb,
                 float* c, std::size_t ldc) noexcept
{
    v4f acc[Rows][Vecs];
    for (std::size_t r = 0; r < Rows; ++r) {
        for (std::size_t v = 0; v < Vecs; ++v) {
            acc[r][v] = load<v4f>(c + r * ldc + v * kLanes);
        }
    }
    for (std::size_t p = 0; p < k; ++p) {
        v4f bv[Vecs];
        for (std::size_t v = 0; v < Vecs; ++v) {
            bv[v] = load<v4f>(b + p * ldb + v * kLanes);
        }
        for (std::size_t r = 0; r < Rows; ++r) {
            const float s = a[r * lda + p];
            const v4f av = {s, s, s, s};
            for (std::size_t v = 0; v < Vecs; ++v) {
                acc[r][v] += av * bv[v];
            }
        }
    }
    for (std::size_t r = 0; r < Rows; ++r) {
        for (std::size_t v = 0; v < Vecs; ++v) {
            store(c + r * ldc + v * kLanes, acc[r][v]);
        }
    }
}

/// One column of C for Rows rows, scalar.
template <std::size_t Rows>
inline void column(std::size_t k, const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    float acc[Rows];
    for (std::size_t r = 0; r < Rows; ++r) {
        acc[r] = c[r * ldc];
    }
    for (std::size_t p = 0; p < k; ++p) {
        const float bp = b[p * ldb];
        for (std::size_t r = 0; r < Rows; ++r) {
            acc[r] += a[r * lda + p] * bp;
        }
    }
    for (std::size_t r = 0; r < Rows; ++r) {
        c[r * ldc] = acc[r];
    }
}

/// Columns [j, j + 4·Vecs) of every row: row pairs, then the odd last row.
/// Vecs == 0 selects the scalar single-column path.
template <std::size_t Vecs>
inline void column_block(std::size_t m, std::size_t k, const float* a, std::size_t lda,
                         const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2) {
        if constexpr (Vecs == 0) {
            column<2>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
        } else {
            tile<2, Vecs>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
        }
    }
    if (i < m) {
        if constexpr (Vecs == 0) {
            column<1>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
        } else {
            tile<1, Vecs>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
        }
    }
}

} // namespace

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    // Column blocks outermost: one k×16 panel of B stays in L1 while every
    // row pair of A streams past it.
    std::size_t j = 0;
    for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
        column_block<4>(m, k, a, lda, b + j, ldb, c + j, ldc);
    }
    for (; j + kLanes <= n; j += kLanes) {
        column_block<1>(m, k, a, lda, b + j, ldb, c + j, ldc);
    }
    for (; j < n; ++j) {
        column_block<0>(m, k, a, lda, b + j, ldb, c + j, ldc);
    }
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

// The one source of the GEMM and 2×2 max-pool kernels, templated on the
// vector type.  gemm.cpp instantiates it at the x86-64 baseline (v4f) and
// gemm_avx2.cpp, built with -mavx2, at v8f; gemm.cpp's table picks one
// per process.  Everything here has internal linkage (see gemm.hpp): each
// unit keeps its own copies, compiled for its own instruction set.
//
// Include only from those two units.  Nothing below may call an inline
// function with external linkage, library ones included (hence
// __builtin_huge_valf, not std::numeric_limits): its out-of-line copy
// from the AVX2 unit could be the one every caller gets.
#pragma once

#include "gemm.hpp"

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace fptc::nn::detail {

namespace {

template <typename V>
constexpr std::size_t lanes_of = sizeof(V) / sizeof(float);

/// Two and four indices: one 16- or 32-byte register.
using v2z = std::size_t __attribute__((vector_size(2 * sizeof(std::size_t))));
using v4z = std::size_t __attribute__((vector_size(4 * sizeof(std::size_t))));

/// Stores base + each 32-bit lane of `index` at p as a std::size_t, one
/// register of 64-bit indices at a time.
template <typename Mask>
inline void store_indices(std::size_t* p, Mask index, std::size_t base) noexcept
{
    if constexpr (sizeof(Mask) == 16) {
        const v2z lo = __builtin_convertvector(__builtin_shufflevector(index, index, 0, 1), v2z);
        const v2z hi = __builtin_convertvector(__builtin_shufflevector(index, index, 2, 3), v2z);
        store(p, lo + base);
        store(p + 2, hi + base);
    } else {
        const v4z lo =
            __builtin_convertvector(__builtin_shufflevector(index, index, 0, 1, 2, 3), v4z);
        const v4z hi =
            __builtin_convertvector(__builtin_shufflevector(index, index, 4, 5, 6, 7), v4z);
        store(p, lo + base);
        store(p + 4, hi + base);
    }
}

/// The vector half as wide as V: v8f → v4f → float.
template <typename V>
struct Half;
template <>
struct Half<v8f> {
    using type = v4f;
};
template <>
struct Half<v4f> {
    using type = float;
};

/// C[Rows × Vecs·L] += A[Rows × k] · B[k × Vecs·L], accumulators in
/// registers; L is V's lane count (1 for V = float).
template <typename V, std::size_t Rows, std::size_t Vecs>
inline void tile(std::size_t k, const float* a, std::size_t lda, const float* b, std::size_t ldb,
                 float* c, std::size_t ldc) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    V acc[Rows][Vecs];
    for (std::size_t r = 0; r < Rows; ++r) {
        for (std::size_t v = 0; v < Vecs; ++v) {
            acc[r][v] = load<V>(c + r * ldc + v * L);
        }
    }
    for (std::size_t p = 0; p < k; ++p) {
        V bv[Vecs];
        for (std::size_t v = 0; v < Vecs; ++v) {
            bv[v] = load<V>(b + p * ldb + v * L);
        }
        for (std::size_t r = 0; r < Rows; ++r) {
            const float s = a[r * lda + p];
            for (std::size_t v = 0; v < Vecs; ++v) {
                acc[r][v] += s * bv[v];
            }
        }
    }
    for (std::size_t r = 0; r < Rows; ++r) {
        for (std::size_t v = 0; v < Vecs; ++v) {
            store(c + r * ldc + v * L, acc[r][v]);
        }
    }
}

/// Columns [0, Vecs·L) of every row: row pairs, then the odd last row.
template <typename V, std::size_t Vecs>
inline void column_block(std::size_t m, std::size_t k, const float* a, std::size_t lda,
                         const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2) {
        tile<V, 2, Vecs>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
    }
    if (i < m) {
        tile<V, 1, Vecs>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
    }
}

/// gemm_acc on V: blocks of 4, 2 and 1 vectors (32, 16, 8 columns for v8f;
/// 16, 8, 4 for v4f), the leftover columns at half the width.  Column
/// blocks run outermost, so one k × 4L panel of B stays in L1 while every
/// row pair of A streams past it.
template <typename V>
void gemm_lanes(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    std::size_t j = 0;
    for (; j + 4 * L <= n; j += 4 * L) {
        column_block<V, 4>(m, k, a, lda, b + j, ldb, c + j, ldc);
    }
    if (j + 2 * L <= n) {
        column_block<V, 2>(m, k, a, lda, b + j, ldb, c + j, ldc);
        j += 2 * L;
    }
    if (j + L <= n) {
        column_block<V, 1>(m, k, a, lda, b + j, ldb, c + j, ldc);
        j += L;
    }
    if constexpr (!std::is_same_v<V, float>) {
        if (j < n) {
            gemm_lanes<typename Half<V>::type>(m, n - j, k, a, lda, b + j, ldb, c + j, ldc);
        }
    }
}

/// Even and odd elements of the 2L floats at p.
template <typename V>
inline void deinterleave(const float* p, V& even, V& odd) noexcept
{
    if constexpr (std::is_same_v<V, float>) {
        even = p[0];
        odd = p[1];
    } else if constexpr (std::is_same_v<V, v4f>) {
        const v4f lo = load<v4f>(p);
        const v4f hi = load<v4f>(p + 4);
        even = __builtin_shufflevector(lo, hi, 0, 2, 4, 6);
        odd = __builtin_shufflevector(lo, hi, 1, 3, 5, 7);
    } else {
        const v8f lo = load<v8f>(p);
        const v8f hi = load<v8f>(p + 8);
        even = __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
        odd = __builtin_shufflevector(lo, hi, 1, 3, 5, 7, 9, 11, 13, 15);
    }
}

/// Outputs [ox, ox + L) of one output row of a plane: `top` is the
/// plane's upper input row of the windows, `row` its offset in the plane,
/// w the row stride, `base` the plane's offset in the input.  With the
/// windows (a b / c d), strict-`>` selects of (a, b), of (c, d) and then
/// of the two winners keep the first maximum in row-major order, ties
/// included, as the scan does; a window that is all −inf gets index base.
/// Vector lanes compute the index in 32 bits (the caller checks the plane
/// fits), comparison masks being −1 where true.
template <typename V>
inline void pool_lanes(const float* top, std::size_t row, std::size_t w, std::size_t ox,
                       std::size_t base, float* y, std::size_t* arg) noexcept
{
    V a, b, c, d;
    deinterleave(top + 2 * ox, a, b);
    deinterleave(top + w + 2 * ox, c, d);
    const auto right_top = b > a;
    const V upper = right_top ? b : a;
    const auto right_bottom = d > c;
    const V lower = right_bottom ? d : c;
    const auto below = lower > upper;
    const V best = below ? lower : upper;
    const auto found = best > -__builtin_huge_valf();
    store(y + ox, best);
    if constexpr (std::is_same_v<V, float>) {
        const std::size_t right = below ? right_bottom : right_top;
        arg[ox] = base + (found ? row + (below ? w : 0) + 2 * ox + right : 0);
    } else {
        using Mask = std::remove_const_t<decltype(found)>;
        Mask column;
        for (std::size_t i = 0; i < lanes_of<V>; ++i) {
            column[i] = static_cast<std::int32_t>(2 * i);
        }
        const Mask right = below ? right_bottom : right_top;
        const Mask index = (static_cast<std::int32_t>(row + 2 * ox) + column +
                            (below & static_cast<std::int32_t>(w)) - right) &
                           found;
        store_indices(arg + ox, index, base);
    }
}

/// One output row of width out_w on V, the last block overlapping the one
/// before it when out_w is no multiple of L (the outputs it recomputes
/// come out the same); rows narrower than L go to the half width.
template <typename V>
inline void pool_row(const float* top, std::size_t row, std::size_t w, std::size_t out_w,
                     std::size_t base, float* y, std::size_t* arg) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    if constexpr (!std::is_same_v<V, float>) {
        if (out_w < L) {
            pool_row<typename Half<V>::type>(top, row, w, out_w, base, y, arg);
            return;
        }
    }
    std::size_t ox = 0;
    for (; ox + L <= out_w; ox += L) {
        pool_lanes<V>(top, row, w, ox, base, y, arg);
    }
    if (ox < out_w) {
        pool_lanes<V>(top, row, w, out_w - L, base, y, arg);
    }
}

/// max_pool_2x2 on V.
template <typename V>
void max_pool_lanes(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                    std::size_t* arg) noexcept
{
    const std::size_t out_h = h / 2;
    const std::size_t out_w = w / 2;
    for (std::size_t p = 0; p < planes; ++p) {
        const std::size_t base = p * h * w;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            const std::size_t row = 2 * oy * w;
            const std::size_t out = (p * out_h + oy) * out_w;
            pool_row<V>(x + base + row, row, w, out_w, base, y + out, arg + out);
        }
    }
}

} // namespace

} // namespace fptc::nn::detail

// The one source of the nn kernels, templated on the vector type: the
// GEMM, the 2×2 max pool, conv1's direct forward, Conv2d's three
// backward kernels (nonzero gather, weight-gradient walk, input-gradient
// scatter) and Adam's update.  gemm.cpp instantiates them at the x86-64 baseline
// (v4f, v2d) and gemm_avx2.cpp, built with -mavx2, at v8f (v4d); gemm.cpp's
// table picks one set per process.  Everything here has internal linkage
// (see gemm.hpp): each unit keeps its own copies, compiled for its own
// instruction set.
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

/// Bit i set where lane i of the comparison mask m is true (−1).
template <typename Mask>
inline int lane_bits(Mask m) noexcept
{
    if constexpr (sizeof(Mask) == sizeof(v4f)) {
        return __builtin_ia32_movmskps(__builtin_bit_cast(v4f, m));
    } else {
#if defined(__AVX2__) // a 32-byte mask exists in the AVX2 unit only
        return __builtin_ia32_movmskps256(__builtin_bit_cast(v8f, m));
#endif
    }
}

/// Outputs [ox, ox + L) of one output row of a plane: `top` is the
/// plane's upper input row of the windows, `row` its offset in the plane,
/// w the row stride, `base` the plane's offset in the input.  With the
/// windows (a b / c d), strict-`>` selects of (a, b), of (c, d) and then
/// of the two winners keep the first maximum in row-major order, ties
/// included, as the scan does; a window that is all −inf gets index base.
/// Vector lanes compute the index in 32 bits (the caller checks the plane
/// fits), comparison masks being −1 where true.  Returns nonzero when a
/// window holds a NaN, which the selects cannot order.
template <typename V>
inline int pool_lanes(const float* top, std::size_t row, std::size_t w, std::size_t ox,
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
    const auto unordered = (a != a) | (b != b) | (c != c) | (d != d);
    store(y + ox, best);
    if constexpr (std::is_same_v<V, float>) {
        const std::size_t right = below ? right_bottom : right_top;
        arg[ox] = base + (found ? row + (below ? w : 0) + 2 * ox + right : 0);
        return unordered;
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
        return lane_bits(unordered);
    }
}

/// One output row of width out_w on V, the last block overlapping the one
/// before it when out_w is no multiple of L (the outputs it recomputes
/// come out the same); rows narrower than L go to the half width.
/// Nonzero when a window of the row holds a NaN.
template <typename V>
inline int pool_row(const float* top, std::size_t row, std::size_t w, std::size_t out_w,
                    std::size_t base, float* y, std::size_t* arg) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    if constexpr (!std::is_same_v<V, float>) {
        if (out_w < L) {
            return pool_row<typename Half<V>::type>(top, row, w, out_w, base, y, arg);
        }
    }
    int unordered = 0;
    std::size_t ox = 0;
    for (; ox + L <= out_w; ox += L) {
        unordered |= pool_lanes<V>(top, row, w, ox, base, y, arg);
    }
    if (ox < out_w) {
        unordered |= pool_lanes<V>(top, row, w, out_w - L, base, y, arg);
    }
    return unordered;
}

/// max_pool_2x2 on V.
template <typename V>
bool max_pool_lanes(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                    std::size_t* arg) noexcept
{
    const std::size_t out_h = h / 2;
    const std::size_t out_w = w / 2;
    int unordered = 0;
    for (std::size_t p = 0; p < planes; ++p) {
        const std::size_t base = p * h * w;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
            const std::size_t row = 2 * oy * w;
            const std::size_t out = (p * out_h + oy) * out_w;
            unordered |= pool_row<V>(x + base + row, row, w, out_w, base, y + out, arg + out);
        }
    }
    return unordered != 0;
}

// ---------------------------------------------------------------- lanes

/// A vector of V's width holding each lane's index, as V's comparison
/// mask type (32-bit integers).
template <typename V>
inline auto lane_index() noexcept
{
    decltype(V{} < V{}) index;
    for (std::size_t i = 0; i < lanes_of<V>; ++i) {
        index[i] = static_cast<std::int32_t>(i);
    }
    return index;
}

/// s in every lane of V.
template <typename V>
inline V splat(float s) noexcept
{
    if constexpr (std::is_same_v<V, float>) {
        return s;
    } else {
        V v;
        for (std::size_t i = 0; i < lanes_of<V>; ++i) {
            v[i] = s;
        }
        return v;
    }
}

/// Lanes [0, n) of V from p, 0 < n ≤ L, the others zero; reads nothing at
/// or past p + n (an AVX2 masked load never faults on a masked lane).
template <typename V>
inline V load_lanes(const float* p, std::size_t n) noexcept
{
    if constexpr (std::is_same_v<V, float>) {
        return *p;
    } else {
        if (n == lanes_of<V>) {
            return load<V>(p);
        }
        if constexpr (std::is_same_v<V, v8f>) {
            return __builtin_ia32_maskloadps256(reinterpret_cast<const v8f*>(p),
                                                lane_index<V>() < static_cast<std::int32_t>(n));
        } else {
            V v{};
            for (std::size_t i = 0; i < n; ++i) {
                v[i] = p[i];
            }
            return v;
        }
    }
}

/// Stores lanes [0, n) of v at p, 0 < n ≤ L; writes nothing else.
template <typename V>
inline void store_lanes(float* p, V v, std::size_t n) noexcept
{
    if constexpr (std::is_same_v<V, float>) {
        *p = v;
    } else {
        if (n == lanes_of<V>) {
            store(p, v);
        } else if constexpr (std::is_same_v<V, v8f>) {
            __builtin_ia32_maskstoreps256(reinterpret_cast<v8f*>(p),
                                          lane_index<V>() < static_cast<std::int32_t>(n), v);
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                p[i] = v[i];
            }
        }
    }
}

/// A whole vector from p where `readable` ≥ L floats follow it, else the
/// ones there (readable ≥ 1) and zeros.
template <typename V>
inline V load_upto(const float* p, std::size_t readable) noexcept
{
    return readable >= lanes_of<V> ? load<V>(p) : load_lanes<V>(p, readable);
}

// ------------------------------------------------------- conv1 forward

/// R output channels × Vecs vectors of one output row, at stride 1 on one
/// input plane, the second vector `second` outputs after the first (L, or
/// less where they overlap): y[r][i] = bias[r], then += kernel[r][ky][kx] ·
/// x[ky][kx + i] for every tap in ascending (ky, kx) — the order in which
/// the GEMM over im2col adds its tap rows, so each output gets the same
/// bits.  x is the window row's top-left input, w the input's row stride,
/// `plane` an output plane's size.
template <typename V, std::size_t R, std::size_t Vecs>
inline void direct_tile(const float* x, std::size_t w, std::size_t k, std::size_t second,
                        const float* kernel, const float* bias, float* y,
                        std::size_t plane) noexcept
{
    const std::size_t taps = k * k;
    const std::size_t at[2] = {0, second};
    V acc[R][Vecs];
    for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < Vecs; ++v) {
            acc[r][v] = splat<V>(bias[r]);
        }
    }
    for (std::size_t ky = 0; ky < k; ++ky) {
        const float* x_row = x + ky * w;
        const float* k_row = kernel + ky * k;
        for (std::size_t kx = 0; kx < k; ++kx) {
            V xv[Vecs];
            for (std::size_t v = 0; v < Vecs; ++v) {
                xv[v] = load<V>(x_row + kx + at[v]);
            }
            for (std::size_t r = 0; r < R; ++r) {
                const float c = k_row[r * taps + kx];
                for (std::size_t v = 0; v < Vecs; ++v) {
                    acc[r][v] += c * xv[v];
                }
            }
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < Vecs; ++v) {
            store(y + r * plane + at[v], acc[r][v]);
        }
    }
}

/// One output row of R channels in tiles of 2 vectors (12 accumulators
/// for R = 6, enough independent sums to hide the add latency).  The last
/// tile overlaps the one before it when out_w is no multiple of 2L, and a
/// row of L to 2L outputs is one tile of two overlapping vectors (the
/// outputs computed twice come out the same); rows narrower than L go to
/// the half width.
template <typename V, std::size_t R>
inline void direct_row(const float* x, std::size_t w, std::size_t k, std::size_t out_w,
                       const float* kernel, const float* bias, float* y,
                       std::size_t plane) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    if constexpr (!std::is_same_v<V, float>) {
        if (out_w < L) {
            direct_row<typename Half<V>::type, R>(x, w, k, out_w, kernel, bias, y, plane);
            return;
        }
    }
    if (out_w < 2 * L) {
        direct_tile<V, R, 2>(x, w, k, out_w - L, kernel, bias, y, plane);
        return;
    }
    std::size_t ox = 0;
    for (; ox + 2 * L <= out_w; ox += 2 * L) {
        direct_tile<V, R, 2>(x + ox, w, k, L, kernel, bias, y + ox, plane);
    }
    if (ox < out_w) {
        direct_tile<V, R, 2>(x + out_w - 2 * L, w, k, L, kernel, bias, y + out_w - 2 * L, plane);
    }
}

/// direct_row for `channels` ≤ R output channels.
template <typename V, std::size_t R = 6>
inline void direct_row_upto(std::size_t channels, const float* x, std::size_t w, std::size_t k,
                            std::size_t out_w, const float* kernel, const float* bias, float* y,
                            std::size_t plane) noexcept
{
    if constexpr (R > 1) {
        if (channels < R) {
            direct_row_upto<V, R - 1>(channels, x, w, k, out_w, kernel, bias, y, plane);
            return;
        }
    }
    direct_row<V, R>(x, w, k, out_w, kernel, bias, y, plane);
}

/// conv1_forward on V: six output channels share each input load.
template <typename V>
void conv1_lanes(std::size_t batch, std::size_t channels, std::size_t h, std::size_t w,
                 std::size_t k, const float* x, const float* kernel, const float* bias,
                 float* y) noexcept
{
    constexpr std::size_t kBlock = 6;
    const std::size_t out_h = h - k + 1;
    const std::size_t out_w = w - k + 1;
    const std::size_t plane = out_h * out_w;
    for (std::size_t n = 0; n < batch; ++n) {
        const float* x_n = x + n * h * w;
        float* y_n = y + n * channels * plane;
        for (std::size_t oc = 0; oc < channels; oc += kBlock) {
            const std::size_t block = channels - oc < kBlock ? channels - oc : kBlock;
            for (std::size_t oy = 0; oy < out_h; ++oy) {
                direct_row_upto<V, kBlock>(block, x_n + oy * w, w, k, out_w, kernel + oc * k * k,
                                           bias + oc, y_n + oc * plane + oy * out_w, plane);
            }
        }
    }
}

// ------------------------------------------------------ conv backward

/// One entry of a nonzero list: an output-gradient element g and the
/// offset of its receptive field's top-left element, (oy·stride)·W +
/// ox·stride, in a sample's input planes; two floats wide.
struct Nonzero {
    std::uint32_t offset;
    float g;
};
static_assert(sizeof(Nonzero) == 2 * sizeof(float));

inline Nonzero nonzero_at(const float* list, std::size_t j) noexcept
{
    Nonzero e;
    __builtin_memcpy(&e, list + 2 * j, sizeof e);
    return e;
}

inline void put_nonzero(float* list, std::size_t slot, std::uint32_t offset, float g) noexcept
{
    const Nonzero e{offset, g};
    __builtin_memcpy(list + 2 * slot, &e, sizeof e);
}

/// For each 8-bit mask: the indices of its set bits in ascending order, a
/// nibble each from the low end, and how many there are.
struct CompressTable {
    std::uint32_t order[256];
    std::uint8_t count[256];
};

constexpr CompressTable make_compress_table() noexcept
{
    CompressTable t{};
    for (unsigned bits = 0; bits < 256; ++bits) {
        unsigned n = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if ((bits >> i) & 1U) {
                t.order[bits] |= i << (4 * n++);
            }
        }
        t.count[bits] = static_cast<std::uint8_t>(n);
    }
    return t;
}

constexpr CompressTable kCompress = make_compress_table();

#if defined(__AVX2__) // compiled in the AVX2 unit only

using v8u = std::uint32_t __attribute__((vector_size(32)));
using v8i = std::int32_t __attribute__((vector_size(32)));

/// Appends the nonzero lanes of g (bits: where g != 0) to the list at
/// `count`, their offsets origin + i·stride, with two 8-lane permutes and
/// two 32-byte stores.  Writes 16 floats at list + 2·count.
inline void compress8(v8f g, int bits, std::uint32_t origin, std::uint32_t stride, float* list,
                      std::size_t count) noexcept
{
    v8u shift;
    v8u step;
    for (std::uint32_t i = 0; i < 8; ++i) {
        shift[i] = 4 * i;
        step[i] = i;
    }
    const v8i order = __builtin_bit_cast(v8i, ((v8u{} + kCompress.order[bits]) >> shift) & 15U);
    const v8f offsets = __builtin_bit_cast(v8f, origin + step * stride);
    const v8f o = __builtin_ia32_permvarsf256(offsets, order);
    const v8f v = __builtin_ia32_permvarsf256(g, order);
    const v8f lo = __builtin_shufflevector(o, v, 0, 8, 1, 9, 4, 12, 5, 13);
    const v8f hi = __builtin_shufflevector(o, v, 2, 10, 3, 11, 6, 14, 7, 15);
    store(list + 2 * count, __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 8, 9, 10, 11));
    store(list + 2 * count + 8, __builtin_shufflevector(lo, hi, 4, 5, 6, 7, 12, 13, 14, 15));
}

#endif

/// gather_nonzeros on V: blocks of L outputs that hold no nonzero cost one
/// compare; a block that does is appended lane by lane, branch-free (every
/// lane written to the next free slot, which only a nonzero claims), or on
/// v8f by compress8.  NaN counts as nonzero (`g != 0`), as in the
/// reference's `g == 0` skip.
template <typename V>
std::size_t gather_lanes(const float* gy, const ConvShape& shape, float* list) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    const ConvShape s = shape; // a local the list stores cannot alias
    const auto stride = static_cast<std::uint32_t>(s.stride);
    std::size_t count = 0;
    for (std::size_t oy = 0; oy < s.out_h; ++oy) {
        const float* row = gy + oy * s.out_w;
        const auto origin = static_cast<std::uint32_t>(oy * s.stride * s.w);
        std::size_t ox = 0;
        for (; ox + L <= s.out_w; ox += L) {
            const V g = load<V>(row + ox);
            const int bits = lane_bits(g != 0.0f);
            if (bits == 0) {
                continue;
            }
            const auto at = origin + static_cast<std::uint32_t>(ox) * stride;
#if defined(__AVX2__)
            if constexpr (std::is_same_v<V, v8f>) {
                compress8(g, bits, at, stride, list, count);
                count += kCompress.count[bits];
                continue;
            }
#endif
            {
                for (std::size_t i = 0; i < L; ++i) {
                    put_nonzero(list, count, at + static_cast<std::uint32_t>(i) * stride, g[i]);
                    count += (bits >> i) & 1;
                }
            }
        }
        for (; ox < s.out_w; ++ox) {
            const float g = row[ox];
            put_nonzero(list, count, origin + static_cast<std::uint32_t>(ox) * stride, g);
            count += g != 0.0f ? 1 : 0;
        }
    }
    return count;
}

/// Weight-gradient rows for R consecutive kernel rows of one oc, lanes
/// [0, n) of each: gk[r·k + i] += g · x[offset + x_row[r] + i] over the
/// nonzeros in list order, the R accumulators (and, with Bias, the bias
/// gradient) held in registers for the whole walk.  Lanes n..L read the
/// elements after the row; they are summed but never stored.  The first
/// `safe` nonzeros read whole vectors; the others, whose vectors would
/// reach past the `readable` floats at x, read only what is there.
template <typename V, std::size_t R, bool Bias>
inline void weight_rows(const float* list, std::size_t safe, std::size_t count, const float* x,
                        std::size_t readable, const std::size_t* x_row, float* gk,
                        std::size_t k, std::size_t n, float* gb) noexcept
{
    V acc[R];
    for (std::size_t r = 0; r < R; ++r) {
        acc[r] = load_lanes<V>(gk + r * k, n);
    }
    float bias = Bias ? *gb : 0.0f;
    for (std::size_t j = 0; j < safe; ++j) {
        const Nonzero e = nonzero_at(list, j);
        const float* xe = x + e.offset;
        for (std::size_t r = 0; r < R; ++r) {
            acc[r] += e.g * load<V>(xe + x_row[r]);
        }
        if constexpr (Bias) {
            bias += e.g;
        }
    }
    for (std::size_t j = safe; j < count; ++j) {
        const Nonzero e = nonzero_at(list, j);
        for (std::size_t r = 0; r < R; ++r) {
            const std::size_t at = e.offset + x_row[r];
            acc[r] += e.g * load_upto<V>(x + at, readable - at);
        }
        if constexpr (Bias) {
            bias += e.g;
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        store_lanes(gk + r * k, acc[r], n);
    }
    if constexpr (Bias) {
        *gb = bias;
    }
}

/// weight_rows for `rows` ≤ R kernel rows.
template <typename V, bool Bias, std::size_t R = 8>
inline void weight_rows_upto(std::size_t rows, const float* list, std::size_t safe,
                             std::size_t count, const float* x, std::size_t readable,
                             const std::size_t* x_row, float* gk, std::size_t k, std::size_t n,
                             float* gb) noexcept
{
    if constexpr (R > 1) {
        if (rows < R) {
            weight_rows_upto<V, Bias, R - 1>(rows, list, safe, count, x, readable, x_row, gk, k,
                                             n, gb);
            return;
        }
    }
    weight_rows<V, R, Bias>(list, safe, count, x, readable, x_row, gk, k, n, gb);
}

/// Lanes [lane, lane + n) of a group of kernel rows, n ≤ L: one walk of
/// the list on the narrowest vector that holds n lanes, summing the bias
/// gradient too when gb is not null.
template <typename V>
inline void weight_column(const float* list, std::size_t count, const float* x,
                          std::size_t readable, const std::size_t* x_row, std::size_t rows,
                          float* gk, std::size_t k, std::size_t lane, std::size_t n,
                          float* gb) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    if constexpr (!std::is_same_v<V, float>) {
        if (n <= lanes_of<typename Half<V>::type>) {
            weight_column<typename Half<V>::type>(list, count, x, readable, x_row, rows, gk, k,
                                                  lane, n, gb);
            return;
        }
    }
    // The list is in ascending offset, so the nonzeros whose last row's
    // vector would leave the buffer are at its end.
    const std::size_t reach = x_row[rows - 1] + lane + L;
    std::size_t safe = count;
    while (safe > 0 && nonzero_at(list, safe - 1).offset + reach > readable) {
        --safe;
    }
    if (gb != nullptr) {
        weight_rows_upto<V, true>(rows, list, safe, count, x + lane, readable - lane, x_row,
                                  gk + lane, k, n, gb);
    } else {
        weight_rows_upto<V, false>(rows, list, safe, count, x + lane, readable - lane, x_row,
                                   gk + lane, k, n, gb);
    }
}

/// conv_weight_grad on V: per group of 8 kernel rows, one walk of the list
/// per vector of the row — one walk for any k ≤ L.  On AVX2 the last walk
/// also sums the bias gradient, its chain of adds hidden among the rows'
/// (a LeNet-5 conv1 backward took 0.73× the time of a separate pass); at
/// the baseline, where loads cannot fold into the multiply and the walk
/// needs every register, the bias takes its own pass.
template <typename V>
void weight_grad_lanes(const float* list, std::size_t count, const float* x,
                       std::size_t readable, const ConvShape& shape, float* gk, float* gb) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    constexpr std::size_t kGroup = 8;
    const ConvShape s = shape; // a local the gradient stores cannot alias
    const std::size_t k = s.kernel;
    const std::size_t rows = s.channels * k; // kernel rows (ic, ky)
    constexpr bool kBiasInWalk = std::is_same_v<V, v8f>;
    if constexpr (!kBiasInWalk) {
        float bias = *gb;
        for (std::size_t j = 0; j < count; ++j) {
            bias += nonzero_at(list, j).g;
        }
        *gb = bias;
    }
    for (std::size_t r0 = 0; r0 < rows; r0 += kGroup) {
        const std::size_t group = rows - r0 < kGroup ? rows - r0 : kGroup;
        std::size_t x_row[kGroup];
        for (std::size_t r = 0; r < group; ++r) {
            x_row[r] = ((r0 + r) / k * s.h + (r0 + r) % k) * s.w;
        }
        for (std::size_t lane = 0; lane < k; lane += L) {
            weight_column<V>(list, count, x, readable, x_row, group, gk + r0 * k, k, lane,
                             k - lane < L ? k - lane : L,
                             kBiasInWalk && r0 + group == rows && lane + L >= k ? gb : nullptr);
        }
    }
}

/// Kernel rows (ic, ky) input_grad_rows copies: C_in ≤ 12 at k = 5.
constexpr std::size_t kPaddedRows = 60;

/// p[i] += t[i] for lanes [0, n), 0 < n ≤ L; touches nothing else.
template <typename V>
inline void add_lanes(float* p, V t, std::size_t n) noexcept
{
    store_lanes(p, load_lanes<V>(p, n) + t, n);
}

/// The terms of one nonzero: g times each of the `rows` kernel rows (ic,
/// ky), each padded to Cols vectors, added to the input row under it.
/// Lanes past a row's end are masked off the stores.  With Whole, each
/// vector of the input row is read whole — the caller checked those reads
/// stay inside the buffer — else only its own lanes.
template <typename V, std::size_t K, std::size_t Cols, bool Whole>
inline void scatter_nonzero(Nonzero e, const float* padded, std::size_t channels,
                            std::size_t plane, std::size_t w, float* gx) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    for (std::size_t ic = 0; ic < channels; ++ic) {
        float* dst = gx + e.offset + ic * plane;
        for (std::size_t ky = 0; ky < K; ++ky, dst += w, padded += Cols * L) {
            for (std::size_t c = 0; c < Cols; ++c) {
                constexpr std::size_t last = K - (Cols - 1) * L; // lanes of the last vector
                const std::size_t n = c + 1 < Cols ? L : last;
                const V t = e.g * load<V>(padded + c * L);
                if constexpr (Whole) {
                    store_lanes(dst + c * L, load<V>(dst + c * L) + t, n);
                } else {
                    add_lanes(dst + c * L, t, n);
                }
            }
        }
    }
}

/// conv_input_grad on V for k = K: the oc's kernel rows are copied once,
/// padded with zeros to whole vectors, so each is one plain load.  Every
/// nonzero, in list order, adds g times each kernel row (ic, ky) to the
/// input row under it; one nonzero adds at most one term to an element,
/// so each gets its terms in list order.  The rows a nonzero touches lie
/// between two nonzeros' updates of the same elements (30 for a LeNet-5
/// conv2), which gives each store time to land before the next nonzero
/// reads it.  `writable` floats follow gx.
template <typename V, std::size_t K>
void input_grad_rows(const float* list, std::size_t count, const float* kernel, float* gx,
                     std::size_t writable, const ConvShape& s) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    constexpr std::size_t Cols = (K + L - 1) / L;
    const std::size_t plane = s.h * s.w;
    alignas(sizeof(V)) float padded[kPaddedRows * Cols * L];
    for (std::size_t r = 0; r < s.channels * K; ++r) {
        for (std::size_t c = 0; c < Cols; ++c) {
            const std::size_t n = c + 1 < Cols ? L : K - (Cols - 1) * L;
            store(padded + (r * Cols + c) * L, load_lanes<V>(kernel + r * K + c * L, n));
        }
    }
    // The list is in ascending offset: the nonzeros whose last row's last
    // vector would leave the buffer are at its end.
    const std::size_t reach = (s.channels - 1) * plane + (K - 1) * s.w + Cols * L;
    std::size_t safe = count;
    while (safe > 0 && nonzero_at(list, safe - 1).offset + reach > writable) {
        --safe;
    }
    for (std::size_t j = 0; j < safe; ++j) {
        scatter_nonzero<V, K, Cols, true>(nonzero_at(list, j), padded, s.channels, plane, s.w,
                                          gx);
    }
    for (std::size_t j = safe; j < count; ++j) {
        scatter_nonzero<V, K, Cols, false>(nonzero_at(list, j), padded, s.channels, plane, s.w,
                                           gx);
    }
}

/// conv_input_grad on V for any k: as input_grad_rows, the kernel rows
/// read in place, every access masked to its lanes.
template <typename V>
void input_grad_any(const float* list, std::size_t count, const float* kernel, float* gx,
                    const ConvShape& s) noexcept
{
    constexpr std::size_t L = lanes_of<V>;
    const std::size_t k = s.kernel;
    const std::size_t plane = s.h * s.w;
    for (std::size_t j = 0; j < count; ++j) {
        const Nonzero e = nonzero_at(list, j);
        const float* k_row = kernel;
        for (std::size_t ic = 0; ic < s.channels; ++ic) {
            float* dst = gx + e.offset + ic * plane;
            for (std::size_t ky = 0; ky < k; ++ky, dst += s.w, k_row += k) {
                for (std::size_t lane = 0; lane < k; lane += L) {
                    const std::size_t n = k - lane < L ? k - lane : L;
                    add_lanes(dst + lane, e.g * load_lanes<V>(k_row + lane, n), n);
                }
            }
        }
    }
}

/// conv_input_grad on V: LeNet-5's kernel size fixed at compile time (the
/// row loop then unrolls) while its rows fit the padded copy.
template <typename V>
void input_grad_lanes(const float* list, std::size_t count, const float* kernel, float* gx,
                      std::size_t writable, const ConvShape& shape) noexcept
{
    const ConvShape s = shape; // a local the gradient stores cannot alias
    if (s.kernel == 5 && s.channels * 5 <= kPaddedRows) {
        input_grad_rows<V, 5>(list, count, kernel, gx, writable, s);
    } else {
        input_grad_any<V>(list, count, kernel, gx, s);
    }
}

// ---------------------------------------------------------------- Adam

using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));

/// The double vector of half F's lanes: v4f → v2d, v8f → v4d.
template <typename F>
struct Doubles;
template <>
struct Doubles<v4f> {
    using type = v2d;
};
template <>
struct Doubles<v8f> {
    using type = v4d;
};

/// Lanes of d, each the correctly rounded square root.
template <typename D>
inline D sqrt_lanes(D d) noexcept
{
    if constexpr (std::is_same_v<D, v2d>) {
        return __builtin_ia32_sqrtpd(d);
    } else {
        return __builtin_ia32_sqrtpd256(d);
    }
}

/// Lanes [0, L/2) (High = false) or [L/2, L) of f, widened to double.
template <bool High, typename F>
inline typename Doubles<F>::type widen(F f) noexcept
{
    using D = typename Doubles<F>::type;
    if constexpr (std::is_same_v<F, v4f>) {
        return __builtin_convertvector(__builtin_shufflevector(f, f, 2 * High, 2 * High + 1), D);
    } else {
        return __builtin_convertvector(
            __builtin_shufflevector(f, f, 4 * High, 4 * High + 1, 4 * High + 2, 4 * High + 3), D);
    }
}

/// lo and hi, each lane rounded to float, side by side.
template <typename F, typename D>
inline F narrow(D lo, D hi) noexcept
{
    if constexpr (std::is_same_v<F, v4f>) {
        using v2f = float __attribute__((vector_size(8)));
        return __builtin_shufflevector(__builtin_convertvector(lo, v2f),
                                       __builtin_convertvector(hi, v2f), 0, 1, 2, 3);
    } else {
        return __builtin_shufflevector(__builtin_convertvector(lo, v4f),
                                       __builtin_convertvector(hi, v4f), 0, 1, 2, 3, 4, 5, 6, 7);
    }
}

/// Adam's update of lanes_of<F> weights, each lane the scalar loop's
/// operations in its order: the moments in float, the step in double.
template <typename F>
inline void adam_block(float* value, const float* grad, float* m, float* v, float b1, float b2,
                       double alpha, double epsilon) noexcept
{
    const F g = load<F>(grad);
    const F m1 = b1 * load<F>(m) + (1.0f - b1) * g;
    const F v1 = b2 * load<F>(v) + (1.0f - b2) * g * g;
    store(m, m1);
    store(v, v1);
    const auto lo = alpha * widen<false>(m1) / (sqrt_lanes(widen<false>(v1)) + epsilon);
    const auto hi = alpha * widen<true>(m1) / (sqrt_lanes(widen<true>(v1)) + epsilon);
    store(value, load<F>(value) - narrow<F>(lo, hi));
}

/// adam_update on F; the last n mod L weights run one block through
/// zero-padded copies.
template <typename F>
void adam_lanes(std::size_t n, float* value, const float* grad, float* m, float* v, float b1,
                float b2, double alpha, double epsilon) noexcept
{
    constexpr std::size_t L = lanes_of<F>;
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
        adam_block<F>(value + i, grad + i, m + i, v + i, b1, b2, alpha, epsilon);
    }
    if (i < n) {
        const std::size_t rest = n - i;
        float tail[4][L] = {};
        __builtin_memcpy(tail[0], value + i, rest * sizeof(float));
        __builtin_memcpy(tail[1], grad + i, rest * sizeof(float));
        __builtin_memcpy(tail[2], m + i, rest * sizeof(float));
        __builtin_memcpy(tail[3], v + i, rest * sizeof(float));
        adam_block<F>(tail[0], tail[1], tail[2], tail[3], b1, b2, alpha, epsilon);
        __builtin_memcpy(value + i, tail[0], rest * sizeof(float));
        __builtin_memcpy(m + i, tail[2], rest * sizeof(float));
        __builtin_memcpy(v + i, tail[3], rest * sizeof(float));
    }
}

} // namespace

} // namespace fptc::nn::detail

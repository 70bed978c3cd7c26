// The default-slot pass of the GBT node histogram, templated on the vector
// type: histogram.cpp instantiates it at the x86-64 baseline (v2d, two
// double lanes) and histogram_avx2.cpp, built with -mavx2, at v4d (four).
// Everything here has internal linkage, so each unit keeps its own copy
// compiled for its own instruction set; nothing below may call an inline
// function with external linkage, whose out-of-line copy from the AVX2
// unit could be the one every caller gets.
//
// Include only from those two units.
#pragma once

#include "histogram.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace fptc::gbt::detail {

namespace {

/// Two and four doubles: one 16- or 32-byte register.
using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));

/// A block's features are summed kVecs vectors at a time, g and h each:
/// 8 accumulator registers, one walk over the node per 4·L features.
constexpr std::size_t kVecs = 4;

using char16 = char __attribute__((vector_size(16)));
using short8 = std::int16_t __attribute__((vector_size(16)));
using int4 = std::int32_t __attribute__((vector_size(16)));

/// The 64-bit lanes of V as integers, and the 16 bytes their masks are
/// widened from (a type that depends on V, so the baseline unit never
/// looks up the AVX2 builtin that takes it).
template <typename V>
struct LaneTypes;
template <>
struct LaneTypes<v2d> {
    using type = std::int64_t __attribute__((vector_size(16)));
    using bytes = char16;
};
template <>
struct LaneTypes<v4d> {
    using type = std::int64_t __attribute__((vector_size(32)));
    using bytes = char16;
};
template <typename V>
using lanes_t = typename LaneTypes<V>::type;

/// Every lane of V set to x.
template <typename V>
inline V splat(double x) noexcept
{
    if constexpr (sizeof(V) == sizeof(v4d)) {
        return V{x, x, x, x};
    } else {
        return V{x, x};
    }
}

/// The mask bytes row[0, kVecs·L) widened to kVecs vectors of 64-bit lanes
/// (0 or all ones): one sign-extending load per vector on AVX2; at the
/// baseline, which has no such instruction, one load and byte, word and
/// dword interleaves of the bytes with themselves.
template <typename V>
inline void lane_masks(const std::uint8_t* row, lanes_t<V> (&keep)[kVecs]) noexcept
{
    if constexpr (sizeof(V) == sizeof(v4d)) {
        for (std::size_t v = 0; v < kVecs; ++v) {
            typename LaneTypes<V>::bytes bytes{};
            std::memcpy(&bytes, row + 4 * v, 4);
            keep[v] = reinterpret_cast<lanes_t<V>>(__builtin_ia32_pmovsxbq256(bytes));
        }
    } else {
        // Eight bytes into the low half, loaded as one integer: a narrow
        // store into a zeroed vector in memory would stall the full-width
        // load after it.
        std::int64_t eight = 0;
        std::memcpy(&eight, row, sizeof eight);
        const auto bytes = reinterpret_cast<typename LaneTypes<V>::bytes>(lanes_t<V>{eight, 0});
        const auto pairs = reinterpret_cast<short8>(
            __builtin_shufflevector(bytes, bytes, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7));
        const auto low = reinterpret_cast<int4>(
            __builtin_shufflevector(pairs, pairs, 0, 0, 1, 1, 2, 2, 3, 3));
        const auto high = reinterpret_cast<int4>(
            __builtin_shufflevector(pairs, pairs, 4, 4, 5, 5, 6, 6, 7, 7));
        keep[0] = reinterpret_cast<lanes_t<V>>(__builtin_shufflevector(low, low, 0, 0, 1, 1));
        keep[1] = reinterpret_cast<lanes_t<V>>(__builtin_shufflevector(low, low, 2, 2, 3, 3));
        keep[2] = reinterpret_cast<lanes_t<V>>(__builtin_shufflevector(high, high, 0, 0, 1, 1));
        keep[3] = reinterpret_cast<lanes_t<V>>(__builtin_shufflevector(high, high, 2, 2, 3, 3));
    }
}

/// sum_default_slots (histogram.hpp) at vector type V.  Per walk, the
/// accumulators start at +0 and each sample adds its g (h) to every lane,
/// ANDed with the lane's mask: the value itself where the entry is a
/// default one, +0.0 elsewhere.  An accumulator that starts at +0 and only
/// ever adds values that are not −0 is never −0, and x + (+0.0) == x for
/// every x that is not −0, so each lane ends holding exactly the sum of its
/// default entries in sample order.
template <typename V>
void default_slot_lanes(const DefaultSlots& d, const std::uint32_t* samples, std::size_t count,
                        const double* gh, double* hist) noexcept
{
    using Lanes = lanes_t<V>;
    constexpr std::size_t L = sizeof(V) / sizeof(double);
    constexpr std::size_t kWalk = kVecs * L;
    static_assert(kBlock % kWalk == 0);

    for (std::size_t first = 0; first < d.features; first += kWalk) {
        const std::size_t block = first / kBlock;
        const std::uint8_t* rows = d.mask + block * d.rows * kBlock + first % kBlock;
        V sum_g[kVecs] = {};
        V sum_h[kVecs] = {};
        for (std::size_t s = 0; s < count; ++s) {
            Lanes keep[kVecs];
            lane_masks<V>(rows + std::size_t{samples[s]} * kBlock, keep);
            const auto g = reinterpret_cast<Lanes>(splat<V>(gh[2 * s]));
            const auto h = reinterpret_cast<Lanes>(splat<V>(gh[2 * s + 1]));
            for (std::size_t v = 0; v < kVecs; ++v) {
                sum_g[v] += reinterpret_cast<V>(g & keep[v]);
                sum_h[v] += reinterpret_cast<V>(h & keep[v]);
            }
        }
        for (std::size_t j = 0; j < kWalk; ++j) {
            double* cell = hist + 2 * std::size_t{d.slot[first + j]};
            cell[0] = sum_g[j / L][j % L];
            cell[1] = sum_h[j / L][j % L];
        }
    }
}

} // namespace

} // namespace fptc::gbt::detail

// The one matrix kernel behind Conv2d and Linear, and the 16-byte vector
// type it is written in (internal to fptc_nn).
//
// gemm_acc computes C += A·B on row-major float matrices with a
// register-blocked tile: 2 rows × 16 columns of C held in 16-byte vector
// registers (the x86-64 baseline width), then 4-column vector and
// 1-column scalar tails.  Every C element receives its K products in
// ascending k, each a separately rounded multiply followed by a separately
// rounded add, starting from the value C held on entry.  That is exactly
// the sum a scalar `acc = c; for (p) acc += a[p] * b[p];` loop computes, so
// a layer that pre-fills C with its bias reproduces a direct loop over the
// same terms bit for bit.  fptc_nn is built with -ffp-contract=off so no
// compiler may fuse the multiply and add into an FMA.
#pragma once

#include <cstddef>
#include <cstring>

namespace fptc::nn::detail {

/// Four floats in one 16-byte GCC/Clang vector register.
using v4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

/// Unaligned load / store of a v4f (or, with V = float, of one float).
template <typename V>
inline V load(const float* p) noexcept
{
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename V>
inline void store(float* p, V v) noexcept
{
    std::memcpy(p, &v, sizeof v);
}

/// C[m×n] += A[m×k] · B[k×n].  Leading dimensions are the row strides of
/// each matrix in elements.  C must not overlap A or B.
void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept;

/// dst[c×r] = transpose of src[r×c] (both dense row-major).
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept;

} // namespace fptc::nn::detail

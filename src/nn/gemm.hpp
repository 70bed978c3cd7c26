// The matrix and pooling kernels behind Conv2d, Linear and MaxPool2d, the
// GCC/Clang vector types they are written in, and the table that picks
// their instruction set once per process (internal to fptc_nn).
//
// gemm_acc computes C += A·B on row-major float matrices with a
// register-blocked tile: 2 rows × 4 vectors of C held in registers, then
// 2-vector, 1-vector, half-width and scalar column tails.  A vector is
// 16 bytes (v4f, the x86-64 baseline width) or, where the CPU has AVX2,
// 32 bytes (v8f).  Every C element receives its K products in ascending k,
// each a separately rounded multiply followed by a separately rounded add,
// starting from the value C held on entry.  That is exactly the sum a
// scalar `acc = c; for (p) acc += a[p] * b[p];` loop computes, whatever the
// vector width, so a layer that pre-fills C with its bias reproduces a
// direct loop over the same terms bit for bit.  fptc_nn is built with
// -ffp-contract=off and without -mfma, so no compiler may fuse the
// multiply and add into an FMA.
//
// Both widths are compiled from one source (kernels.hpp): gemm.cpp at the
// baseline, gemm_avx2.cpp with -mavx2.  Every helper either unit compiles
// has internal linkage, as load / store below do, so the linker can never
// hand a baseline caller a copy built for AVX2 (DESIGN.md "nn kernels").
#pragma once

#include <cstddef>
#include <cstring>

namespace fptc::nn::detail {

/// Four floats in one 16-byte vector register.
using v4f = float __attribute__((vector_size(16)));
/// Eight floats in one 32-byte (AVX) vector register.
using v8f = float __attribute__((vector_size(32)));
constexpr std::size_t kLanes = 4;

namespace {

/// Unaligned load / store of a vector (or, with V = float, of one float);
/// store also writes vectors of indices.
template <typename V>
inline V load(const float* p) noexcept
{
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename T, typename V>
inline void store(T* p, V v) noexcept
{
    std::memcpy(p, &v, sizeof v);
}

} // namespace

/// C[m×n] += A[m×k] · B[k×n].  Leading dimensions are the row strides of
/// each matrix in elements.  C must not overlap A or B.
void gemm_acc(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
              const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept;

/// 2×2 / stride-2 max pooling of `planes` planes of h×w floats, none of
/// which may hold a NaN: y[p][oy][ox] is the first maximum of the window
/// in row-major order and arg[p·oh·ow + oy·ow + ox] its flat index in x,
/// exactly as MaxPool2d's scan with a strict `>` from −inf finds them —
/// including index p·h·w (the plane's first element) for a window that is
/// all −inf.  oh = h / 2, ow = w / 2; h·w must fit in an int32_t.
void max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x, float* y,
                  std::size_t* arg) noexcept;

/// dst[c×r] = transpose of src[r×c] (both dense row-major).
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept;

/// The instruction sets the kernels above are compiled for.
enum class Isa { baseline, avx2 };

/// The set chosen once per process: AVX2 when the CPU has it.
[[nodiscard]] Isa selected_isa() noexcept;

/// The set the next kernel call runs: selected_isa() unless a test or
/// benchmark forced the baseline.
[[nodiscard]] Isa active_isa() noexcept;

/// Test and benchmark hook: run the baseline kernels (true) or the
/// selected ones again (false).  Not for library code.
void force_baseline(bool on) noexcept;

} // namespace fptc::nn::detail

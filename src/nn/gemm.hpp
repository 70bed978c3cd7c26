// The matrix, convolution, pooling and optimizer kernels behind Conv2d,
// Linear, MaxPool2d and Adam and the GCC/Clang vector types they are
// written in (internal to fptc_nn).  gemm.cpp runs the instruction set
// util::active_isa() names (fptc/util/isa.hpp).
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
// direct loop over the same terms bit for bit.  The other kernels keep
// their reference loop's term order the same way.  fptc_nn is built with
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

/// 2×2 / stride-2 max pooling of `planes` planes of h×w floats: y[p][oy][ox]
/// is the first maximum of the window in row-major order and
/// arg[p·oh·ow + oy·ow + ox] its flat index in x, exactly as MaxPool2d's
/// scan with a strict `>` from −inf finds them — including index p·h·w
/// (the plane's first element) for a window that is all −inf.  oh = h / 2,
/// ow = w / 2; h·w must fit in an int32_t.  Returns true, the outputs then
/// unspecified, when any window holds a NaN, which the scan must place.
[[nodiscard]] bool max_pool_2x2(std::size_t planes, std::size_t h, std::size_t w, const float* x,
                                float* y, std::size_t* arg) noexcept;

/// Conv2d forward for C_in = 1, stride 1, without im2col: x [batch, 1, h,
/// w], kernel [channels, 1, k, k], y [batch, channels, h−k+1, w−k+1], every
/// output written.  Each output is bias[oc] plus its k² products in
/// ascending (ky, kx), the GEMM's term order, so the bits are the same.
void conv1_forward(std::size_t batch, std::size_t channels, std::size_t h, std::size_t w,
                   std::size_t k, const float* x, const float* kernel, const float* bias,
                   float* y) noexcept;

/// Geometry of one valid convolution: `channels` (C_in) input planes of
/// h×w, k×k kernels at `stride`, out_h×out_w outputs.  Plain data: the
/// kernels may call no inline function with external linkage.
struct ConvShape {
    std::size_t channels;
    std::size_t h, w;
    std::size_t kernel;
    std::size_t stride;
    std::size_t out_h, out_w;
};

/// Writes the nonzero elements of one output-gradient plane gy (out_h ×
/// out_w) to `list` in ascending (oy, ox), two floats each: the offset of
/// the receptive field's top-left input element, (oy·stride)·w +
/// ox·stride, as a uint32_t, and g.  Returns how many.  NaN counts as
/// nonzero.  `list` holds 2·out_h·out_w floats; all of it may be written.
[[nodiscard]] std::size_t gather_nonzeros(const float* gy, const ConvShape& s,
                                          float* list) noexcept;

/// The weight and bias gradient terms of one (n, oc): for each of the
/// `count` entries of `list` in order, gb += g and gk[ic][ky][kx] += g ·
/// x[offset + (ic·h + ky)·w + kx], gk being that oc's C_in·k² weights and
/// x the sample's input.  `readable` floats may be read from x on (to the
/// end of the batch); the kernels read past a row, never past that.
void conv_weight_grad(const float* list, std::size_t count, const float* x,
                      std::size_t readable, const ConvShape& s, float* gk, float* gb) noexcept;

/// The input gradient terms of one (n, oc): for each entry of `list` in
/// order, gx[offset + (ic·h + ky)·w + kx] += g · kernel[ic][ky][kx], gx
/// being the sample's input gradient and kernel that oc's weights;
/// `writable` floats may be read from gx on (to the end of the batch).
/// Writes no other element.
void conv_input_grad(const float* list, std::size_t count, const float* kernel, float* gx,
                     std::size_t writable, const ConvShape& s) noexcept;

/// Adam's update of n weights, each as the scalar loop: m = b1·m + (1−b1)·g
/// and v = b2·v + (1−b2)·g·g in float, then value −= float(alpha·double(m) /
/// (sqrt(double(v)) + epsilon)).
void adam_update(std::size_t n, float* value, const float* grad, float* m, float* v, float b1,
                 float b2, double alpha, double epsilon) noexcept;

/// dst[c×r] = transpose of src[r×c] (both dense row-major).
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) noexcept;

} // namespace fptc::nn::detail

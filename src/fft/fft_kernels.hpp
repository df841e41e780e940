// Dispatched inner kernels of the FFT family (DESIGN.md §12).
//
// Two arms per kernel, selected by ganopc::SimdLevel:
//   - scalar: portable C++, the conformance reference; compiled everywhere.
//   - avx2:   AVX2+FMA implementations in fft_avx2.cpp (a TU built with
//             -mavx2 -mfma). On non-x86 builds the avx2 symbols forward to
//             scalar so the table is always complete; dispatch never selects
//             them unless the cpuid probe passed.
//
// `fft_inplace` is the whole-transform butterfly kernel of one contiguous
// line: 1-D transforms and the row passes of the 2-D / real transforms.
// `fft_columns` runs the same transform down `count` adjacent strided lines
// at once — the column passes — four lines per 256-bit vector on the AVX2
// arm, with each twiddle broadcast across the four. Per element it performs
// exactly the arithmetic `fft_inplace` of the same arm performs on that line
// alone, so a column pass is bit-identical to transforming each column by
// itself. The VecOps entries are the complex element-wise loops of the SOCS
// forward/adjoint passes (src/litho): they live here because they operate
// on spectra and share the complex-arithmetic SIMD layout with the
// butterflies. All kernels are deterministic: fixed evaluation order, no
// data-dependent shortcuts, so each arm is bit-reproducible run-to-run.
#pragma once

#include <complex>
#include <cstddef>

#include "common/cpu.hpp"

namespace ganopc::fft {

using cfloat = std::complex<float>;
struct FftPlan;

/// In-place radix-2 transform of plan.n points (bit-reversal + butterflies +
/// inverse 1/n scaling). Both arms implement the identical algorithm.
using FftInplaceFn = void (*)(cfloat* a, const FftPlan& plan, bool inverse);

void fft_inplace_scalar(cfloat* a, const FftPlan& plan, bool inverse);
void fft_inplace_avx2(cfloat* a, const FftPlan& plan, bool inverse);

/// In-place transform of `count` adjacent lines of plan.n points each, laid
/// across rows: element j of line l is a[j * stride + l] (stride >= count).
/// Per line, bit-identical to the same arm's FftInplaceFn.
using FftColumnsFn = void (*)(cfloat* a, std::size_t stride, std::size_t count,
                              const FftPlan& plan, bool inverse);

void fft_columns_scalar(cfloat* a, std::size_t stride, std::size_t count,
                        const FftPlan& plan, bool inverse);
void fft_columns_avx2(cfloat* a, std::size_t stride, std::size_t count,
                      const FftPlan& plan, bool inverse);

/// Element-wise spectrum kernels. Ranges are [0, n) over raw pointers; the
/// litho layer calls them on deterministic per-thread chunks.
struct VecOps {
  /// out[i] = a[i] * b[i]
  void (*cmul)(const cfloat* a, const cfloat* b, cfloat* out, std::size_t n);
  /// out[i] = x[i] * conj(a[i])   (x real)
  void (*cmul_conj_real)(const float* x, const cfloat* a, cfloat* out, std::size_t n);
  /// acc[i] += w * |f[i]|^2       (norm computed in float, accumulated in double)
  void (*norm_weighted_accum)(const cfloat* f, double w, double* acc, std::size_t n);
  /// acc[i] += w * (a[i] * b[i])  — the adjoint's per-kernel spectrum sum
  void (*cmul_weighted_accum)(const cfloat* a, const cfloat* b, float w, cfloat* acc,
                              std::size_t n);
};

/// Kernel table for an explicit arm — the conformance tier's entry point.
const VecOps& vec_ops(SimdLevel level);

/// The AVX2 element-wise table (forwards to scalar on non-x86 builds).
const VecOps& vec_ops_avx2();
FftInplaceFn fft_inplace_for(SimdLevel level);
FftColumnsFn fft_columns_for(SimdLevel level);

/// Tables for the active process-wide level (resolves ganopc::simd_level()).
inline const VecOps& vec_ops() { return vec_ops(simd_level()); }

}  // namespace ganopc::fft

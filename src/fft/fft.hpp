// Radix-2 complex FFT (1-D and 2-D) used by the Hopkins lithography engine.
//
// Conventions:
//   forward:  X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N)      (no scaling)
//   inverse:  x[n] = (1/N) * sum_k X[k] * exp(+2*pi*i*k*n/N)
// 2-D transforms apply the 1-D transform along rows then columns (the real
// inverse: columns then rows); the inverse 2-D transform scales by 1/(W*H).
// Sizes must be powers of two.
//
// Row passes run the dispatched per-line kernel on each contiguous row;
// column passes run the across-lines kernel on groups of four adjacent
// columns at once (fft_kernels.hpp).
//
// Line pruning. The SOCS spectra of the litho hot path are sparse in whole
// lines: a band kernel's spectrum covers a run of rows and columns, and a
// zero-padded spectrum is zero outside its low-frequency columns. The 2-D
// transforms therefore take the runs of lines that matter — rows that may be
// nonzero on input (the row pass skips the rest, which must be zero), and
// columns whose output is read (the column pass skips the rest, whose
// output is left unspecified). A transform of +0 lines yields +0 lines, and
// a skipped zero can only change the sign of an output zero that a column of
// zeros produces, so every other computed bin is bit-identical to the full
// transform's.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ganopc::fft {

using cfloat = std::complex<float>;

/// True iff n is a power of two (and nonzero).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// In-place 1-D FFT of length n = data.size(). Requires power-of-two size.
void fft_1d(std::vector<cfloat>& data, bool inverse);

/// A circular run of lines on an n-line axis: indices begin, begin + 1, ...,
/// begin + count - 1, all mod n (begin < n, count <= n).
struct Lines {
  std::size_t begin = 0;
  std::size_t count = 0;

  /// Every line of an n-line axis.
  static Lines all(std::size_t n) { return {0, n}; }
  /// True iff line i (< n) lies in the run.
  bool contains(std::size_t i, std::size_t n) const {
    return (i + n - begin) % n < count;
  }
  /// The run of negated indices (-i mod n): where a flipped spectrum, value
  /// at (-f), keeps the lines this run covers.
  Lines mirrored(std::size_t n) const;
  /// The smallest run of whole q-line groups (aligned at multiples of q;
  /// q and n powers of two) that covers this one.
  Lines widened(std::size_t q, std::size_t n) const;
};

/// Calls fn(a, b) for each of the one or two linear index ranges [a, b)
/// that make up `lines` on an n-line axis (none when the run is empty).
template <typename Fn>
void for_each_range(Lines lines, std::size_t n, Fn&& fn) {
  const std::size_t end = lines.begin + lines.count;
  if (lines.count == 0) return;
  if (end <= n) {
    fn(lines.begin, end);
  } else {
    fn(lines.begin, n);
    fn(std::size_t{0}, end - n);
  }
}

/// In-place 2-D FFT of a row-major height x width grid. Power-of-two dims.
/// Parallelized over rows/columns via the shared thread pool.
void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse);

/// The line-pruned fft_2d: the row pass transforms only `rows` (every other
/// row must be zero on input), the column pass only `cols` (every other
/// column's output is unspecified). Lines::all on both is fft_2d.
void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse,
            Lines rows, Lines cols);

/// Convenience overload for vectors (size must equal height*width).
void fft_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width, bool inverse);

/// Forward 2-D FFT of a real height x width grid into its full complex
/// spectrum (same layout as fft_2d on a zero-imaginary input, up to
/// round-off). Costs roughly half a complex transform: row pairs are packed
/// into single complex transforms and only columns [0, W/2] are transformed,
/// the rest following from Hermitian symmetry. `out` must hold height*width.
void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width);

/// rfft_2d whose output is read only in columns [0, cols) and their
/// Hermitian mirrors (1 <= cols <= W/2 + 1): the column pass covers just
/// those columns, and every other column of `out` is unspecified.
void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width,
             std::size_t cols);

/// Inverse 2-D FFT of a Hermitian spectrum straight to its real signal
/// (the counterpart of rfft_2d, including the 1/(W*H) scaling). Only columns
/// [0, W/2] of `spec` are read; all of `spec` is clobbered as scratch.
/// Passing a non-Hermitian spectrum silently drops its anti-symmetric part.
void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width);

/// irfft_2d of a spectrum whose columns [cols, W/2] are zero
/// (1 <= cols <= W/2 + 1): those columns are neither transformed nor read.
void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width,
              std::size_t cols);

/// fftshift: move zero-frequency component to grid center (even dims only).
void fftshift_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width);

/// Band-limited (Fourier zero-padding) up-sampling of a real height x width
/// grid by an integer factor, into caller-owned buffers (allocating nothing):
/// `small_spec` holds height*width bins, `big_spec` and `out` hold
/// (height*factor)*(width*factor) values. Both spectra are clobbered. Exact
/// for signals whose spectrum vanishes above the input Nyquist — true of
/// aerial images, whose bandwidth is set by the pupil; `out` reproduces the
/// input at the original sample points up to FFT round-off. The padded
/// spectrum is nonzero in only width/2 + 1 of its (width*factor)/2 + 1
/// half-spectrum columns, and the inverse transforms only those.
void fourier_upsample_into(const float* in, std::size_t height, std::size_t width,
                           std::size_t factor, cfloat* small_spec, cfloat* big_spec,
                           float* out);

}  // namespace ganopc::fft

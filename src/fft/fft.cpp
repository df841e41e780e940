#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/cpu.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fft/fft_kernels.hpp"
#include "fft/plan.hpp"

namespace ganopc::fft {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// The kernels for the active dispatch level. Resolved per transform so
/// tests can flip `set_simd_level` between calls.
inline FftInplaceFn active_fft() { return fft_inplace_for(simd_level()); }
inline FftColumnsFn active_columns() { return fft_columns_for(simd_level()); }

void check_dims(std::size_t height, std::size_t width) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
}

void check_half_cols(std::size_t cols, std::size_t width) {
  GANOPC_CHECK_MSG(cols >= 1 && cols <= width / 2 + 1,
                   "half-spectrum column count " << cols << " outside [1, "
                                                 << width / 2 + 1 << "]");
}

// Split the spectrum Z of the packed row z = x + i*y (x, y real) into the
// spectra of x and y:  X[k] = (Z[k] + conj(Z[n-k]))/2,
//                      Y[k] = -i/2 * (Z[k] - conj(Z[n-k])).
// Z sits in `xs` and is overwritten by X; Y goes to `ys` (full length n,
// Hermitian). Each (k, n-k) pair is read before either bin is written.
void untangle_packed_row(cfloat* xs, std::size_t n, cfloat* ys) {
  const auto split = [](cfloat z, cfloat zc, cfloat& x, cfloat& y) {
    const cfloat s = z + zc;
    const cfloat d = z - zc;
    x = 0.5f * s;
    y = cfloat(0.5f * d.imag(), -0.5f * d.real());  // -i/2 * d
  };
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const std::size_t m = (n - k) & (n - 1);
    const cfloat zk = xs[k], zm = xs[m];
    split(zk, std::conj(zm), xs[k], ys[k]);
    if (m != k) split(zm, std::conj(zk), xs[m], ys[m]);
  }
}

}  // namespace

Lines Lines::mirrored(std::size_t n) const {
  if (count == 0 || count >= n) return {0, std::min(count, n)};
  return {(2 * n - (begin + count - 1)) % n, count};
}

Lines Lines::widened(std::size_t q, std::size_t n) const {
  if (count == 0) return {};
  const std::size_t b = begin - begin % q;
  const std::size_t e = (begin + count + q - 1) / q * q;
  if (e - b >= n) return all(n);
  return {b, e - b};
}

void fft_1d(std::vector<cfloat>& data, bool inverse) {
  GANOPC_CHECK_MSG(is_pow2(data.size()), "FFT size must be a power of two");
  active_fft()(data.data(), plan_for(data.size()), inverse);
}

void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse) {
  fft_2d(data, height, width, inverse, Lines::all(height), Lines::all(width));
}

void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse,
            Lines rows, Lines cols) {
  check_dims(height, width);
  GANOPC_CHECK(rows.begin < height && rows.count <= height);
  GANOPC_CHECK(cols.begin < width && cols.count <= width);
  const FftPlan& row_plan = plan_for(width);
  const FftPlan& col_plan = plan_for(height);
  const FftInplaceFn kernel = active_fft();
  const FftColumnsFn columns = active_columns();
  // Rows: note we do NOT apply 1/N scaling per axis separately; the butterfly
  // kernel scales by 1/len for inverse, so a row pass scales 1/W and a column
  // pass 1/H, composing to the desired 1/(W*H).
  parallel_for_chunks(0, rows.count, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      kernel(data + ((rows.begin + i) & (height - 1)) * width, row_plan, inverse);
  }, /*serial_threshold=*/8);
  // Columns four at a time (fft_columns); a chunk of the run may wrap past
  // the last column.
  parallel_for_chunks(0, cols.count, [&](std::size_t i0, std::size_t i1) {
    const Lines chunk{(cols.begin + i0) & (width - 1), i1 - i0};
    for_each_range(chunk, width, [&](std::size_t a, std::size_t b) {
      columns(data + a, width, b - a, col_plan, inverse);
    });
  }, /*serial_threshold=*/8);
}

void fft_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK(data.size() == height * width);
  fft_2d(data.data(), height, width, inverse);
}

void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width) {
  rfft_2d(in, out, height, width, width / 2 + 1);
}

void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width,
             std::size_t cols) {
  check_dims(height, width);
  check_half_cols(cols, width);
  const FftInplaceFn kernel = active_fft();
  const FftPlan& row_plan = plan_for(width);
  if (height == 1) {
    for (std::size_t c = 0; c < width; ++c) out[c] = cfloat(in[c], 0.0f);
    kernel(out, row_plan, false);
    return;
  }
  // Row pass at half cost: pack two real rows r, r+1 into one complex row
  // (in place in output row r), transform once, untangle via Hermitian
  // symmetry into both row spectra.
  parallel_for_chunks(0, height / 2, [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const float* x = in + (2 * p) * width;
      const float* y = x + width;
      cfloat* z = out + (2 * p) * width;
      for (std::size_t c = 0; c < width; ++c) z[c] = cfloat(x[c], y[c]);
      kernel(z, row_plan, false);
      untangle_packed_row(z, width, z + width);
    }
  }, /*serial_threshold=*/4);

  // Column pass only up to the Nyquist column (or `cols`); the remaining
  // columns follow from F[r][c] = conj(F[(H-r)%H][(W-c)%W]) for real input.
  const FftColumnsFn columns = active_columns();
  const FftPlan& col_plan = plan_for(height);
  parallel_for_chunks(0, cols, [&](std::size_t c0, std::size_t c1) {
    columns(out + c0, width, c1 - c0, col_plan, false);
  }, /*serial_threshold=*/4);
  const std::size_t half_w = width / 2;
  const std::size_t mirror_begin = std::max(half_w + 1, width - cols + 1);
  parallel_for_chunks(0, height, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t rm = (height - r) & (height - 1);
      for (std::size_t c = mirror_begin; c < width; ++c)
        out[r * width + c] = std::conj(out[rm * width + (width - c)]);
    }
  }, /*serial_threshold=*/8);
}

void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width) {
  irfft_2d(spec, out, height, width, width / 2 + 1);
}

void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width,
              std::size_t cols) {
  check_dims(height, width);
  check_half_cols(cols, width);
  const FftInplaceFn kernel = active_fft();
  const FftPlan& row_plan = plan_for(width);
  if (height == 1) {
    // The single row is transformed whole; the zero columns and their
    // mirrors are written rather than trusted.
    if (cols <= width / 2) std::fill(spec + cols, spec + (width - cols + 1), cfloat{});
    kernel(spec, row_plan, true);
    for (std::size_t c = 0; c < width; ++c) out[c] = spec[c].real();
    return;
  }
  // Inverse column pass over columns [0, cols) only — for a Hermitian
  // spectrum the upper columns carry no independent information and the row
  // pass below never reads them; columns [cols, W/2] are zero.
  const FftColumnsFn columns = active_columns();
  const FftPlan& col_plan = plan_for(height);
  const std::size_t half_w = width / 2;
  parallel_for_chunks(0, cols, [&](std::size_t c0, std::size_t c1) {
    columns(spec + c0, width, c1 - c0, col_plan, true);
  }, /*serial_threshold=*/4);

  // Row pass at half cost: each row spectrum is Hermitian (its signal is
  // real), so two rows r, r+1 pack into one inverse transform whose real and
  // imaginary parts are the two output rows. The packed row is built in
  // place in row r: upper-column bins first, rebuilt from the mirror before
  // the lower bins they read are overwritten.
  parallel_for_chunks(0, height / 2, [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      cfloat* z = spec + (2 * p) * width;
      const cfloat* si = z + width;
      for (std::size_t c = half_w + 1; c < width; ++c) {
        const std::size_t s = width - c;
        if (s >= cols) {
          z[c] = cfloat{};
          continue;
        }
        const cfloat a = std::conj(z[s]);
        const cfloat b = std::conj(si[s]);
        z[c] = a + cfloat(-b.imag(), b.real());
      }
      for (std::size_t c = 0; c <= half_w; ++c)
        z[c] = c < cols ? z[c] + cfloat(-si[c].imag(), si[c].real())  // sr + i*si
                        : cfloat{};
      kernel(z, row_plan, true);
      float* xr = out + (2 * p) * width;
      float* yr = xr + width;
      for (std::size_t c = 0; c < width; ++c) {
        xr[c] = z[c].real();
        yr[c] = z[c].imag();
      }
    }
  }, /*serial_threshold=*/4);
}

void fftshift_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width) {
  GANOPC_CHECK(data.size() == height * width);
  GANOPC_CHECK_MSG(height % 2 == 0 && width % 2 == 0, "fftshift requires even dims");
  const std::size_t hh = height / 2, hw = width / 2;
  for (std::size_t r = 0; r < hh; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t rc = (r + hh) % height;
      const std::size_t cc = (c + hw) % width;
      std::swap(data[r * width + c], data[rc * width + cc]);
    }
  }
}

void fourier_upsample_into(const float* in, std::size_t height, std::size_t width,
                           std::size_t factor, cfloat* small_spec, cfloat* big_spec,
                           float* out) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "dims must be powers of two");
  GANOPC_CHECK(factor >= 1 && is_pow2(factor));
  if (factor == 1) {
    std::copy(in, in + height * width, out);
    return;
  }
  const std::size_t oh = height * factor, ow = width * factor;

  rfft_2d(in, small_spec, height, width);
  // Place the low-frequency quadrants of the small spectrum into the corners
  // of the large spectrum. The input Nyquist rows/columns are split evenly
  // between their +/- images to keep the interpolant real and symmetric (a
  // 1-point axis has no Nyquist line: its one bin is DC).
  // The inverse below reads only half-spectrum columns [0, W/2], where the
  // padded spectrum is nonzero in columns [0, w/2] alone: only those are
  // zeroed and written (the negative-frequency and Nyquist-mirror columns
  // land in the unread upper half), and only those are transformed.
  const std::size_t hh = height / 2, hw = width / 2, cols = hw + 1;
  for (std::size_t r = 0; r < oh; ++r)
    std::fill(big_spec + r * ow, big_spec + r * ow + cols, cfloat(0.0f, 0.0f));
  for (std::size_t r = 0; r < height; ++r) {
    const bool r_nyq = height > 1 && r == hh;
    const std::size_t ro = r <= hh ? r : oh - (height - r);
    for (std::size_t c = 0; c < cols; ++c) {
      cfloat v = small_spec[r * width + c];
      if (r_nyq) v *= 0.5f;
      if (width > 1 && c == hw) v *= 0.5f;
      big_spec[ro * ow + c] += v;
      // Mirror copy for a split Nyquist row.
      if (r_nyq) big_spec[(oh - hh) * ow + c] += v;
    }
  }
  // The padded spectrum is Hermitian by construction, so the inverse runs
  // through the half-cost real-output path.
  irfft_2d(big_spec, out, oh, ow, cols);
  const auto scale = static_cast<float>(factor) * factor;  // FFT normalization
  for (std::size_t i = 0; i < oh * ow; ++i) out[i] *= scale;
}

}  // namespace ganopc::fft

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

/// The butterfly kernel for the active dispatch level. Resolved per
/// transform so tests can flip `set_simd_level` between calls.
inline FftInplaceFn active_fft() { return fft_inplace_for(simd_level()); }

// Split the spectrum Z of the packed row z = x + i*y (x, y real) into the
// spectra of x and y:  X[k] = (Z[k] + conj(Z[n-k]))/2,
//                      Y[k] = -i/2 * (Z[k] - conj(Z[n-k])).
// Writes X into `xs` and Y into `ys` (full length n, Hermitian).
void untangle_packed_rows(const cfloat* z, std::size_t n, cfloat* xs, cfloat* ys) {
  for (std::size_t k = 0; k < n; ++k) {
    const cfloat zc = std::conj(z[(n - k) & (n - 1)]);
    const cfloat s = z[k] + zc;
    const cfloat d = z[k] - zc;
    xs[k] = 0.5f * s;
    ys[k] = cfloat(0.5f * d.imag(), -0.5f * d.real());  // -i/2 * d
  }
}

}  // namespace

void fft_1d(std::vector<cfloat>& data, bool inverse) {
  GANOPC_CHECK_MSG(is_pow2(data.size()), "FFT size must be a power of two");
  active_fft()(data.data(), plan_for(data.size()), inverse);
}

void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  const FftPlan& row_plan = plan_for(width);
  const FftPlan& col_plan = plan_for(height);
  const FftInplaceFn kernel = active_fft();
  // Rows: note we do NOT apply 1/N scaling per axis separately; the butterfly
  // kernel scales by 1/len for inverse, so a row pass scales 1/W and a column
  // pass 1/H, composing to the desired 1/(W*H).
  parallel_for_chunks(0, height, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r)
      kernel(data + r * width, row_plan, inverse);
  }, /*serial_threshold=*/8);
  // Columns, with a per-column gather to keep memory access linear.
  parallel_for_chunks(0, width, [&](std::size_t c0, std::size_t c1) {
    std::vector<cfloat> tmp(height);
    for (std::size_t c = c0; c < c1; ++c) {
      for (std::size_t r = 0; r < height; ++r) tmp[r] = data[r * width + c];
      kernel(tmp.data(), col_plan, inverse);
      for (std::size_t r = 0; r < height; ++r) data[r * width + c] = tmp[r];
    }
  }, /*serial_threshold=*/8);
}

void fft_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width, bool inverse) {
  GANOPC_CHECK(data.size() == height * width);
  fft_2d(data.data(), height, width, inverse);
}

void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  const FftInplaceFn kernel = active_fft();
  const FftPlan& row_plan = plan_for(width);
  if (height == 1) {
    for (std::size_t c = 0; c < width; ++c) out[c] = cfloat(in[c], 0.0f);
    kernel(out, row_plan, false);
    return;
  }
  // Row pass at half cost: pack two real rows r, r+1 into one complex row,
  // transform once, untangle via Hermitian symmetry into both row spectra.
  parallel_for_chunks(0, height / 2, [&](std::size_t p0, std::size_t p1) {
    std::vector<cfloat> z(width);
    for (std::size_t p = p0; p < p1; ++p) {
      const float* x = in + (2 * p) * width;
      const float* y = x + width;
      for (std::size_t c = 0; c < width; ++c) z[c] = cfloat(x[c], y[c]);
      kernel(z.data(), row_plan, false);
      untangle_packed_rows(z.data(), width, out + (2 * p) * width,
                           out + (2 * p + 1) * width);
    }
  }, /*serial_threshold=*/4);

  // Column pass only up to the Nyquist column; the remaining columns follow
  // from F[r][c] = conj(F[(H-r)%H][(W-c)%W]) for real input.
  const FftPlan& col_plan = plan_for(height);
  const std::size_t half_w = width / 2;
  parallel_for_chunks(0, half_w + 1, [&](std::size_t c0, std::size_t c1) {
    std::vector<cfloat> tmp(height);
    for (std::size_t c = c0; c < c1; ++c) {
      for (std::size_t r = 0; r < height; ++r) tmp[r] = out[r * width + c];
      kernel(tmp.data(), col_plan, false);
      for (std::size_t r = 0; r < height; ++r) out[r * width + c] = tmp[r];
    }
  }, /*serial_threshold=*/4);
  parallel_for_chunks(0, height, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t rm = (height - r) & (height - 1);
      for (std::size_t c = half_w + 1; c < width; ++c)
        out[r * width + c] = std::conj(out[rm * width + (width - c)]);
    }
  }, /*serial_threshold=*/8);
}

void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width) {
  GANOPC_CHECK_MSG(is_pow2(height) && is_pow2(width), "FFT dims must be powers of two");
  const FftInplaceFn kernel = active_fft();
  const FftPlan& row_plan = plan_for(width);
  if (height == 1) {
    kernel(spec, row_plan, true);
    for (std::size_t c = 0; c < width; ++c) out[c] = spec[c].real();
    return;
  }
  // Inverse column pass over columns [0, W/2] only — for a Hermitian
  // spectrum the upper columns carry no independent information and the row
  // pass below never reads them.
  const FftPlan& col_plan = plan_for(height);
  const std::size_t half_w = width / 2;
  parallel_for_chunks(0, half_w + 1, [&](std::size_t c0, std::size_t c1) {
    std::vector<cfloat> tmp(height);
    for (std::size_t c = c0; c < c1; ++c) {
      for (std::size_t r = 0; r < height; ++r) tmp[r] = spec[r * width + c];
      kernel(tmp.data(), col_plan, true);
      for (std::size_t r = 0; r < height; ++r) spec[r * width + c] = tmp[r];
    }
  }, /*serial_threshold=*/4);

  // Row pass at half cost: each row spectrum is Hermitian (its signal is
  // real), so two rows r, r+1 pack into one inverse transform whose real and
  // imaginary parts are the two output rows. Upper-column bins are rebuilt
  // from the mirror as they are consumed.
  parallel_for_chunks(0, height / 2, [&](std::size_t p0, std::size_t p1) {
    std::vector<cfloat> z(width);
    for (std::size_t p = p0; p < p1; ++p) {
      const cfloat* sr = spec + (2 * p) * width;
      const cfloat* si = sr + width;
      for (std::size_t c = 0; c <= half_w; ++c)
        z[c] = sr[c] + cfloat(-si[c].imag(), si[c].real());  // sr + i*si
      for (std::size_t c = half_w + 1; c < width; ++c) {
        const cfloat a = std::conj(sr[width - c]);
        const cfloat b = std::conj(si[width - c]);
        z[c] = a + cfloat(-b.imag(), b.real());
      }
      kernel(z.data(), row_plan, true);
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

std::vector<float> fourier_upsample_2d(const std::vector<float>& in, std::size_t height,
                                       std::size_t width, std::size_t factor) {
  GANOPC_CHECK(in.size() == height * width);
  std::vector<float> out(in.size() * factor * factor);
  std::vector<cfloat> small_spec(in.size()), big_spec(out.size());
  fourier_upsample_into(in.data(), height, width, factor, small_spec.data(),
                        big_spec.data(), out.data());
  return out;
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
  // between their +/- images to keep the interpolant real and symmetric.
  std::fill(big_spec, big_spec + oh * ow, cfloat(0.0f, 0.0f));
  const std::size_t hh = height / 2, hw = width / 2;
  for (std::size_t r = 0; r < height; ++r) {
    const bool r_nyq = (r == hh);
    const std::size_t ro = r <= hh ? r : oh - (height - r);
    for (std::size_t c = 0; c < width; ++c) {
      const bool c_nyq = (c == hw);
      const std::size_t co = c <= hw ? c : ow - (width - c);
      cfloat v = small_spec[r * width + c];
      if (r_nyq) v *= 0.5f;
      if (c_nyq) v *= 0.5f;
      big_spec[ro * ow + co] += v;
      // Mirror copies for split Nyquist bins.
      if (r_nyq) big_spec[(oh - hh) * ow + co] += v;
      if (c_nyq) big_spec[ro * ow + (ow - hw)] += v;
      if (r_nyq && c_nyq) big_spec[(oh - hh) * ow + (ow - hw)] += v;
    }
  }
  // The padded spectrum is Hermitian by construction, so the inverse runs
  // through the half-cost real-output path.
  irfft_2d(big_spec, out, oh, ow);
  const auto scale = static_cast<float>(factor) * factor;  // FFT normalization
  for (std::size_t i = 0; i < oh * ow; ++i) out[i] *= scale;
}

}  // namespace ganopc::fft

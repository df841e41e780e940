#include "fft/fft_kernels.hpp"

#include <algorithm>
#include <vector>

#include "fft/plan.hpp"

namespace ganopc::fft {

void fft_inplace_scalar(cfloat* a, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  const cfloat* tw = plan.twiddle.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cfloat w = inverse ? std::conj(tw[k * step]) : tw[k * step];
        const cfloat u = a[i + k];
        const cfloat v = a[i + k + half] * w;
        a[i + k] = u + v;
        a[i + k + half] = u - v;
      }
    }
  }
  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) a[i] *= inv_n;
  }
}

void fft_columns_scalar(cfloat* a, std::size_t stride, std::size_t count,
                        const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  const cfloat* tw = plan.twiddle.data();
  // Four lines at a time, copied in bit-reversed order into a contiguous
  // n x 4 tile (spare lanes of a remainder group zero) and carried through
  // every stage there; per element the butterflies are fft_inplace_scalar's.
  static thread_local std::vector<cfloat> tile_buf;
  if (tile_buf.size() < 4 * n) tile_buf.resize(4 * n);
  cfloat* t = tile_buf.data();
  for (std::size_t l0 = 0; l0 < count; l0 += 4) {
    cfloat* g = a + l0;
    const std::size_t lanes = std::min<std::size_t>(4, count - l0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < 4; ++l)
        t[4 * i + l] = l < lanes ? g[plan.bitrev[i] * stride + l] : cfloat{};
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t step = n / len;
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cfloat w = inverse ? std::conj(tw[k * step]) : tw[k * step];
          cfloat* lo = t + 4 * (i + k);
          cfloat* hi = t + 4 * (i + k + half);
          for (std::size_t l = 0; l < 4; ++l) {
            const cfloat u = lo[l];
            const cfloat v = hi[l] * w;
            lo[l] = u + v;
            hi[l] = u - v;
          }
        }
      }
    }
    if (inverse) {
      const float inv_n = 1.0f / static_cast<float>(n);
      for (std::size_t i = 0; i < 4 * n; ++i) t[i] *= inv_n;
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < lanes; ++l) g[i * stride + l] = t[4 * i + l];
  }
}

namespace {

void cmul_scalar(const cfloat* a, const cfloat* b, cfloat* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void cmul_conj_real_scalar(const float* x, const cfloat* a, cfloat* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * std::conj(a[i]);
}

void norm_weighted_accum_scalar(const cfloat* f, double w, double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * std::norm(f[i]);
}

void cmul_weighted_accum_scalar(const cfloat* a, const cfloat* b, float w, cfloat* acc,
                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * (a[i] * b[i]);
}

constexpr VecOps kScalarOps = {cmul_scalar, cmul_conj_real_scalar,
                               norm_weighted_accum_scalar, cmul_weighted_accum_scalar};

}  // namespace

const VecOps& vec_ops(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? vec_ops_avx2() : kScalarOps;
}

FftInplaceFn fft_inplace_for(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? fft_inplace_avx2 : fft_inplace_scalar;
}

FftColumnsFn fft_columns_for(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? fft_columns_avx2 : fft_columns_scalar;
}

}  // namespace ganopc::fft

// AVX2+FMA arm of the FFT kernel family. This translation unit is compiled
// with -mavx2 -mfma (see src/fft/CMakeLists.txt); nothing outside it may
// assume those ISA extensions. Dispatch guarantees these functions only run
// after the cpuid probe confirmed AVX2+FMA (common/cpu.hpp).
//
// Complex floats are interleaved (re, im), so a 256-bit vector holds four
// complex values. The complex product v*w uses the moveldup/movehdup +
// fmaddsub decomposition:
//   re(vw) = vr*wr - vi*wi,  im(vw) = vr*wi + vi*wr
// which is two shuffles, one permute, one mul and one fmaddsub per four
// products. Butterfly stages with half >= 4 consume the plan's contiguous
// per-stage twiddles four at a time; the two smallest stages (half 1 and 2)
// use fixed shuffle patterns since their twiddles are +-1 / -+i.
//
// The across-lines column kernel holds one complex value from each of four
// adjacent lines per vector, so every butterfly is one vector op with the
// twiddle broadcast. It replays the per-line kernel's stage forms exactly
// (the same exact +-i twiddles in the len=4 stage, the same add-of-negation
// in the len=2 stage), which makes each line bit-identical to a
// fft_inplace_avx2 call on a gathered copy of it. Each group of four lines
// is staged through a contiguous tile (see fft_columns_avx2).
#include "fft/fft_kernels.hpp"

#include <vector>

#include "fft/plan.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ganopc::fft {

namespace {

/// Four interleaved complex products a*b.
inline __m256 cmul4(__m256 a, __m256 b) {
  const __m256 ar = _mm256_moveldup_ps(a);                  // ar0 ar0 ar1 ar1 ...
  const __m256 ai = _mm256_movehdup_ps(a);                  // ai0 ai0 ai1 ai1 ...
  const __m256 bswap = _mm256_permute_ps(b, 0xB1);          // bi0 br0 bi1 br1 ...
  return _mm256_fmaddsub_ps(ar, b, _mm256_mul_ps(ai, bswap));
}

/// Sign mask flipping the imaginary lane of each complex value (conjugation).
inline __m256 conj_mask() {
  return _mm256_castsi256_ps(
      _mm256_set_epi32(static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000), 0,
                       static_cast<int>(0x80000000), 0, static_cast<int>(0x80000000), 0));
}

}  // namespace

void fft_inplace_avx2(cfloat* data, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  auto* a = reinterpret_cast<float*>(data);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  if (n >= 4) {
    // Stage len=2 (w = 1): butterflies over adjacent complex pairs. A vector
    // holds [c0 c1 c2 c3] = two butterflies; duplicate the even/odd complex
    // of each 128-bit pair and add with the sign pattern (+, -) per pair.
    {
      const __m256 sign = _mm256_castsi256_ps(_mm256_set_epi32(
          static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0,
          static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0));
      for (std::size_t i = 0; i < n; i += 4) {
        const __m256 x = _mm256_loadu_ps(a + 2 * i);
        const __m256d xd = _mm256_castps_pd(x);
        const __m256 u = _mm256_castpd_ps(_mm256_movedup_pd(xd));       // c0 c0 c2 c2
        const __m256 v = _mm256_castpd_ps(_mm256_permute_pd(xd, 0xF));  // c1 c1 c3 c3
        _mm256_storeu_ps(a + 2 * i, _mm256_add_ps(u, _mm256_xor_ps(v, sign)));
      }
    }

    // Stage len=4 (w in {1, -i} forward / {1, +i} inverse): one vector is one
    // butterfly block [a0 a1 a2 a3]; v = [a2 a3 a2 a3] times the fixed
    // twiddle vector [1, w1, 1, w1], added with the (+, +, -, -) sign block.
    {
      const float w1im = inverse ? 1.0f : -1.0f;
      const __m256 wvec = _mm256_setr_ps(1.0f, 0.0f, 0.0f, w1im, 1.0f, 0.0f, 0.0f, w1im);
      const __m256 sign = _mm256_castsi256_ps(_mm256_set_epi32(
          static_cast<int>(0x80000000), static_cast<int>(0x80000000),
          static_cast<int>(0x80000000), static_cast<int>(0x80000000), 0, 0, 0, 0));
      for (std::size_t i = 0; i < n; i += 4) {
        const __m256 x = _mm256_loadu_ps(a + 2 * i);
        const __m256 u = _mm256_permute2f128_ps(x, x, 0x00);  // a0 a1 a0 a1
        const __m256 v = _mm256_permute2f128_ps(x, x, 0x11);  // a2 a3 a2 a3
        const __m256 vw = cmul4(v, wvec);
        _mm256_storeu_ps(a + 2 * i, _mm256_add_ps(u, _mm256_xor_ps(vw, sign)));
      }
    }

    // General stages (half >= 4): twiddles contiguous in the per-stage table.
    const __m256 cmask = conj_mask();
    for (std::size_t len = 8; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const cfloat* stw = plan.stage_twiddle.data() + (half - 1);
      for (std::size_t i = 0; i < n; i += len) {
        float* lo = a + 2 * i;
        float* hi = a + 2 * (i + half);
        for (std::size_t k = 0; k < half; k += 4) {
          __m256 w = _mm256_loadu_ps(reinterpret_cast<const float*>(stw + k));
          if (inverse) w = _mm256_xor_ps(w, cmask);
          const __m256 u = _mm256_loadu_ps(lo + 2 * k);
          const __m256 v = cmul4(_mm256_loadu_ps(hi + 2 * k), w);
          _mm256_storeu_ps(lo + 2 * k, _mm256_add_ps(u, v));
          _mm256_storeu_ps(hi + 2 * k, _mm256_sub_ps(u, v));
        }
      }
    }
  } else {
    // Tiny transforms (n < 4) run the scalar butterflies.
    const cfloat* tw = plan.twiddle.data();
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2, step = n / len;
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cfloat w = inverse ? std::conj(tw[k * step]) : tw[k * step];
          const cfloat u = data[i + k];
          const cfloat v = data[i + k + half] * w;
          data[i + k] = u + v;
          data[i + k + half] = u - v;
        }
      }
    }
  }

  if (inverse) {
    const float inv_n = 1.0f / static_cast<float>(n);
    const __m256 s = _mm256_set1_ps(inv_n);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_ps(a + 2 * i, _mm256_mul_ps(_mm256_loadu_ps(a + 2 * i), s));
    for (; i < n; ++i) data[i] *= inv_n;
  }
}

namespace {

/// Butterfly stages (and the inverse 1/n scaling) of one n x 4 tile: four
/// lines interleaved, one vector per row, already in bit-reversed order.
void tile_stages(float* t, const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  const auto row = [t](std::size_t i) { return t + 8 * i; };
  const __m256 neg = _mm256_set1_ps(-0.0f);
  // Stage len=2 (w = 1).
  for (std::size_t i = 0; i < n; i += 2) {
    const __m256 u = _mm256_loadu_ps(row(i));
    const __m256 v = _mm256_loadu_ps(row(i + 1));
    _mm256_storeu_ps(row(i), _mm256_add_ps(u, v));
    _mm256_storeu_ps(row(i + 1), _mm256_add_ps(u, _mm256_xor_ps(v, neg)));
  }
  // Stage len=4 (w in {1, -i} forward / {1, +i} inverse, exact).
  {
    const float w1im = inverse ? 1.0f : -1.0f;
    const __m256 w[2] = {_mm256_setr_ps(1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 0.0f),
                         _mm256_setr_ps(0.0f, w1im, 0.0f, w1im, 0.0f, w1im, 0.0f, w1im)};
    for (std::size_t i = 0; i < n; i += 4)
      for (std::size_t k = 0; k < 2; ++k) {
        const __m256 u = _mm256_loadu_ps(row(i + k));
        const __m256 v = cmul4(_mm256_loadu_ps(row(i + k + 2)), w[k]);
        _mm256_storeu_ps(row(i + k), _mm256_add_ps(u, v));
        _mm256_storeu_ps(row(i + k + 2), _mm256_add_ps(u, _mm256_xor_ps(v, neg)));
      }
  }
  // General stages (half >= 4): one broadcast twiddle per k.
  const __m256 cmask = conj_mask();
  for (std::size_t len = 8; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const cfloat* stw = plan.stage_twiddle.data() + (half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      __m256 w = _mm256_castpd_ps(
          _mm256_broadcast_sd(reinterpret_cast<const double*>(stw + k)));
      if (inverse) w = _mm256_xor_ps(w, cmask);
      for (std::size_t i = 0; i < n; i += len) {
        const __m256 u = _mm256_loadu_ps(row(i + k));
        const __m256 v = cmul4(_mm256_loadu_ps(row(i + k + half)), w);
        _mm256_storeu_ps(row(i + k), _mm256_add_ps(u, v));
        _mm256_storeu_ps(row(i + k + half), _mm256_sub_ps(u, v));
      }
    }
  }
  if (inverse) {
    const __m256 s = _mm256_set1_ps(1.0f / static_cast<float>(n));
    for (std::size_t i = 0; i < n; ++i)
      _mm256_storeu_ps(row(i), _mm256_mul_ps(_mm256_loadu_ps(row(i)), s));
  }
}

}  // namespace

void fft_columns_avx2(cfloat* a, std::size_t stride, std::size_t count,
                      const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  if (n < 4) {
    // Tiny transforms: the per-line kernel's scalar butterflies, per line.
    for (std::size_t l = 0; l < count; ++l) {
      cfloat line[2];
      for (std::size_t i = 0; i < n; ++i) line[i] = a[i * stride + l];
      fft_inplace_avx2(line, plan, inverse);
      for (std::size_t i = 0; i < n; ++i) a[i * stride + l] = line[i];
    }
    return;
  }
  // Each group of four lines is copied, in bit-reversed order, into a
  // contiguous n x 4 tile and transformed there: in place, a row stride of
  // 1 KiB or more maps the group's rows onto a handful of L1 sets.
  static thread_local std::vector<cfloat> tile_buf;
  if (tile_buf.size() < 4 * n) tile_buf.resize(4 * n);
  float* t = reinterpret_cast<float*>(tile_buf.data());
  auto* f = reinterpret_cast<float*>(a);
  const std::size_t fstride = 2 * stride;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t l = 0; l < count; l += 4) {
    float* g = f + 2 * l;
    if (count - l >= 4) {
      for (std::size_t i = 0; i < n; ++i)
        _mm256_storeu_ps(t + 8 * i, _mm256_loadu_ps(g + plan.bitrev[i] * fstride));
      tile_stages(t, plan, inverse);
      for (std::size_t i = 0; i < n; ++i)
        _mm256_storeu_ps(g + i * fstride, _mm256_loadu_ps(t + 8 * i));
    } else {
      // Remainder group: 1-3 lines, the spare lanes zero.
      const __m256i mask = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(2 * (count - l))), lane);
      for (std::size_t i = 0; i < n; ++i)
        _mm256_storeu_ps(t + 8 * i, _mm256_maskload_ps(g + plan.bitrev[i] * fstride, mask));
      tile_stages(t, plan, inverse);
      for (std::size_t i = 0; i < n; ++i)
        _mm256_maskstore_ps(g + i * fstride, mask, _mm256_loadu_ps(t + 8 * i));
    }
  }
}

namespace {

void cmul_avx2(const cfloat* a, const cfloat* b, cfloat* out, std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  const auto* bf = reinterpret_cast<const float*>(b);
  auto* of = reinterpret_cast<float*>(out);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_ps(of + 2 * i, cmul4(_mm256_loadu_ps(af + 2 * i),
                                       _mm256_loadu_ps(bf + 2 * i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void cmul_conj_real_avx2(const float* x, const cfloat* a, cfloat* out, std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  auto* of = reinterpret_cast<float*>(out);
  const __m256 cmask = conj_mask();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 xf = _mm_loadu_ps(x + i);  // x0 x1 x2 x3
    const __m256 xd = _mm256_set_m128(_mm_unpackhi_ps(xf, xf), _mm_unpacklo_ps(xf, xf));
    const __m256 ac = _mm256_xor_ps(_mm256_loadu_ps(af + 2 * i), cmask);
    _mm256_storeu_ps(of + 2 * i, _mm256_mul_ps(xd, ac));
  }
  for (; i < n; ++i) out[i] = x[i] * std::conj(a[i]);
}

/// Compress [p0 p0 p1 p1 | p2 p2 p3 p3] duplicated pairs to [p0 p1 p2 p3].
inline __m128 compress_pairs(__m256 dup) {
  const __m128 lo = _mm256_castps256_ps128(dup);
  const __m128 hi = _mm256_extractf128_ps(dup, 1);
  return _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
}

void norm_weighted_accum_avx2(const cfloat* f, double w, double* acc, std::size_t n) {
  const auto* ff = reinterpret_cast<const float*>(f);
  const __m256d wv = _mm256_set1_pd(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(ff + 2 * i);
    const __m256 sq = _mm256_mul_ps(v, v);  // r0^2 i0^2 r1^2 i1^2 ...
    const __m256 norms_dup = _mm256_add_ps(_mm256_moveldup_ps(sq), _mm256_movehdup_ps(sq));
    const __m256d nd = _mm256_cvtps_pd(compress_pairs(norms_dup));
    _mm256_storeu_pd(acc + i, _mm256_fmadd_pd(wv, nd, _mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) acc[i] += w * std::norm(f[i]);
}

void cmul_weighted_accum_avx2(const cfloat* a, const cfloat* b, float w, cfloat* acc,
                              std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  const auto* bf = reinterpret_cast<const float*>(b);
  auto* accf = reinterpret_cast<float*>(acc);
  const __m256 wv = _mm256_set1_ps(w);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 p = cmul4(_mm256_loadu_ps(af + 2 * i), _mm256_loadu_ps(bf + 2 * i));
    _mm256_storeu_ps(accf + 2 * i, _mm256_fmadd_ps(wv, p, _mm256_loadu_ps(accf + 2 * i)));
  }
  for (; i < n; ++i) acc[i] += w * (a[i] * b[i]);
}

constexpr VecOps kAvx2Ops = {cmul_avx2, cmul_conj_real_avx2, norm_weighted_accum_avx2,
                             cmul_weighted_accum_avx2};

}  // namespace

const VecOps& vec_ops_avx2() { return kAvx2Ops; }

}  // namespace ganopc::fft

#else  // !(__AVX2__ && __FMA__): non-x86 or flag-less build — forward to scalar.

namespace ganopc::fft {

void fft_inplace_avx2(cfloat* a, const FftPlan& plan, bool inverse) {
  fft_inplace_scalar(a, plan, inverse);
}

void fft_columns_avx2(cfloat* a, std::size_t stride, std::size_t count,
                      const FftPlan& plan, bool inverse) {
  fft_columns_scalar(a, stride, count, plan, inverse);
}

const VecOps& vec_ops_avx2() { return vec_ops(SimdLevel::kScalar); }

}  // namespace ganopc::fft

#endif

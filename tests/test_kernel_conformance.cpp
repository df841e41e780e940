// Differential kernel-conformance tier (DESIGN.md §12).
//
// Every AVX2+FMA kernel arm is checked against the scalar reference across
// randomized shapes, buffer alignments (offset loads), and vector-tail sizes.
// Error bounds follow from the arms' only legitimate divergence — FMA
// contraction and the polynomial exp — so they are a few float ULPs relative
// to the value scale, far below any physical tolerance in the pipeline. Each
// arm is additionally asserted to be run-to-run deterministic (bitwise).
// On machines without AVX2+FMA the AVX2 cases GTEST_SKIP: the scalar arm is
// the reference and has nothing to differ from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "common/cpu.hpp"
#include "common/prng.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"
#include "fft/plan.hpp"
#include "geometry/grid.hpp"
#include "gradcheck.hpp"
#include "ilt/ilt_kernels.hpp"
#include "litho/lithosim.hpp"
#include "litho/resist_kernels.hpp"
#include "nn/gemm.hpp"

namespace ganopc {
namespace {

using fft::cfloat;

bool have_avx2() { return cpu_supports_avx2_fma(); }

#define SKIP_WITHOUT_AVX2() \
  if (!have_avx2()) GTEST_SKIP() << "CPU lacks AVX2+FMA; scalar arm is the reference"

/// Restores the process-wide dispatch level when a test body returns.
struct LevelGuard {
  SimdLevel saved = simd_level();
  ~LevelGuard() { set_simd_level(saved); }
};

/// Sizes hitting every dispatch regime: sub-vector, one vector, vector plus
/// every tail length, and multi-vector.
const std::size_t kSizes[] = {1, 2, 3, 5, 7, 8, 9, 11, 15, 16, 17, 31, 33, 64, 100, 255, 1024};
/// Start offsets into an over-allocated buffer so unaligned loads are hit.
const std::size_t kOffsets[] = {0, 1, 3};

std::vector<float> random_floats(Prng& rng, std::size_t n, float lo, float hi) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

std::vector<cfloat> random_complex(Prng& rng, std::size_t n) {
  std::vector<cfloat> v(n);
  for (auto& x : v)
    x = {static_cast<float>(rng.uniform(-1.0, 1.0)),
         static_cast<float>(rng.uniform(-1.0, 1.0))};
  return v;
}

float max_abs_diff(const float* a, const float* b, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

float max_abs_diff(const cfloat* a, const cfloat* b, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

float max_mag(const cfloat* a, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i]));
  return m;
}

// ---------------------------------------------------------------------------
// ILT pixel-pass kernels
// ---------------------------------------------------------------------------

TEST(IltKernelConformance, SigmoidRelaxMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const ilt::IltKernels& sc = ilt::ilt_kernels(SimdLevel::kScalar);
  const ilt::IltKernels& vx = ilt::ilt_kernels(SimdLevel::kAvx2);
  Prng rng(101);
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      for (const float beta : {2.0f, 4.0f, 8.0f}) {
        std::vector<float> p = random_floats(rng, n + off, -4.0f, 4.0f);
        std::vector<float> ms(n + off, -1.0f), mv(n + off, -1.0f);
        sc.sigmoid_relax(p.data() + off, beta, ms.data() + off, n);
        vx.sigmoid_relax(p.data() + off, beta, mv.data() + off, n);
        // Sigmoid is bounded in [0,1]; the poly-exp arm agrees to ~2 float ULPs.
        EXPECT_LE(max_abs_diff(ms.data() + off, mv.data() + off, n), 2e-6f)
            << "n=" << n << " off=" << off << " beta=" << beta;
      }
    }
  }
}

TEST(IltKernelConformance, ChainRuleMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const ilt::IltKernels& sc = ilt::ilt_kernels(SimdLevel::kScalar);
  const ilt::IltKernels& vx = ilt::ilt_kernels(SimdLevel::kAvx2);
  Prng rng(102);
  const float beta = 4.0f;
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      std::vector<float> mb = random_floats(rng, n + off, 0.01f, 0.99f);
      std::vector<float> gmb = random_floats(rng, n + off, -3.0f, 3.0f);
      std::vector<float> gs(n + off), gv(n + off);
      float mx_s = -1.0f, mx_v = -1.0f;
      bool fin_s = false, fin_v = false;
      sc.chain_rule(mb.data() + off, gmb.data() + off, beta, gs.data() + off, n,
                    &mx_s, &fin_s);
      vx.chain_rule(mb.data() + off, gmb.data() + off, beta, gv.data() + off, n,
                    &mx_v, &fin_v);
      EXPECT_TRUE(fin_s);
      EXPECT_TRUE(fin_v);
      const float scale = std::max(mx_s, 1e-6f);
      EXPECT_LE(max_abs_diff(gs.data() + off, gv.data() + off, n), 1e-5f * scale)
          << "n=" << n << " off=" << off;
      EXPECT_NEAR(mx_s, mx_v, 1e-5f * scale);
    }
  }
}

TEST(IltKernelConformance, ChainRuleNonFiniteFlagAgrees) {
  SKIP_WITHOUT_AVX2();
  const ilt::IltKernels& sc = ilt::ilt_kernels(SimdLevel::kScalar);
  const ilt::IltKernels& vx = ilt::ilt_kernels(SimdLevel::kAvx2);
  Prng rng(103);
  for (const std::size_t n : {1u, 7u, 8u, 9u, 17u, 64u}) {
    // Poison every position in turn (vector body and scalar tail alike),
    // with both Inf and NaN.
    for (std::size_t bad = 0; bad < n; ++bad) {
      for (const float poison : {std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN()}) {
        std::vector<float> mb = random_floats(rng, n, 0.2f, 0.8f);
        std::vector<float> gmb = random_floats(rng, n, -1.0f, 1.0f);
        gmb[bad] = poison;
        std::vector<float> gs(n), gv(n);
        float mx = 0.0f;
        bool fin_s = true, fin_v = true;
        sc.chain_rule(mb.data(), gmb.data(), 4.0f, gs.data(), n, &mx, &fin_s);
        vx.chain_rule(mb.data(), gmb.data(), 4.0f, gv.data(), n, &mx, &fin_v);
        EXPECT_FALSE(fin_s) << "n=" << n << " bad=" << bad;
        EXPECT_FALSE(fin_v) << "n=" << n << " bad=" << bad;
      }
    }
  }
}

TEST(IltKernelConformance, UpdateSigmoidMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const ilt::IltKernels& sc = ilt::ilt_kernels(SimdLevel::kScalar);
  const ilt::IltKernels& vx = ilt::ilt_kernels(SimdLevel::kAvx2);
  Prng rng(104);
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      std::vector<float> p0 = random_floats(rng, n + off, -2.0f, 2.0f);
      std::vector<float> g = random_floats(rng, n + off, -1.0f, 1.0f);
      std::vector<float> ps = p0, pv = p0;
      std::vector<float> ms(n + off), mv(n + off);
      const float scale = 0.37f, beta = 4.0f;
      sc.update_sigmoid(ps.data() + off, g.data() + off, scale, beta,
                        ms.data() + off, n);
      vx.update_sigmoid(pv.data() + off, g.data() + off, scale, beta,
                        mv.data() + off, n);
      // p: one FMA vs two roundings — at most 1 ULP of the operand scale.
      EXPECT_LE(max_abs_diff(ps.data() + off, pv.data() + off, n), 1e-6f * 3.0f)
          << "n=" << n << " off=" << off;
      EXPECT_LE(max_abs_diff(ms.data() + off, mv.data() + off, n), 2e-6f)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(IltKernelConformance, ArmsAreRunToRunDeterministic) {
  Prng rng(105);
  std::vector<const ilt::IltKernels*> arms = {&ilt::ilt_kernels(SimdLevel::kScalar)};
  if (have_avx2()) arms.push_back(&ilt::ilt_kernels(SimdLevel::kAvx2));
  for (const auto* kern : arms) {
    const std::size_t n = 1000;
    std::vector<float> p0 = random_floats(rng, n, -2.0f, 2.0f);
    std::vector<float> g = random_floats(rng, n, -1.0f, 1.0f);
    std::vector<float> p1 = p0, p2 = p0, m1(n), m2(n);
    kern->update_sigmoid(p1.data(), g.data(), 0.25f, 4.0f, m1.data(), n);
    kern->update_sigmoid(p2.data(), g.data(), 0.25f, 4.0f, m2.data(), n);
    EXPECT_EQ(0, std::memcmp(p1.data(), p2.data(), n * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(m1.data(), m2.data(), n * sizeof(float)));
  }
}

// ---------------------------------------------------------------------------
// dE/dI pixel pass of the litho gradient
// ---------------------------------------------------------------------------

TEST(ResistKernelConformance, ResistGradMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const litho::ResistGradFn sc = litho::resist_grad_for(SimdLevel::kScalar);
  const litho::ResistGradFn vx = litho::resist_grad_for(SimdLevel::kAvx2);
  Prng rng(106);
  const float threshold = 0.29f;
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      for (const float alpha : {20.0f, 50.0f}) {
        for (const float dose : {0.98f, 1.0f, 1.02f}) {
          // Intensities straddle the threshold, from deep saturation on both
          // sides to the steep middle; targets are binary.
          const std::vector<float> intensity = random_floats(rng, n + off, 0.0f, 1.2f);
          std::vector<float> target = random_floats(rng, n + off, 0.0f, 1.0f);
          for (auto& t : target) t = t < 0.5f ? 0.0f : 1.0f;
          std::vector<float> xs(n + off, -1.0f), xv(n + off, -1.0f);
          sc(intensity.data() + off, target.data() + off, alpha, dose, threshold,
             xs.data() + off, n);
          vx(intensity.data() + off, target.data() + off, alpha, dose, threshold,
             xv.data() + off, n);
          // x = 2 alpha dose (z - t) z (1 - z). The arms' sigmoids agree to
          // the 2e-6 of the ILT sigmoid kernels; d/dz of (z - t) z (1 - z) is
          // at most 1.25 in magnitude for t in {0, 1}, and the products add a
          // few float ULPs of the 0.25 peak.
          const float bound = 2.0f * alpha * dose * (1.25f * 2e-6f + 4.0f * 3e-8f);
          EXPECT_LE(max_abs_diff(xs.data() + off, xv.data() + off, n), bound)
              << "n=" << n << " off=" << off << " alpha=" << alpha << " dose=" << dose;
        }
      }
    }
  }
}

TEST(ResistKernelConformance, ArmsAreRunToRunDeterministic) {
  Prng rng(107);
  std::vector<litho::ResistGradFn> arms = {litho::resist_grad_for(SimdLevel::kScalar)};
  if (have_avx2()) arms.push_back(litho::resist_grad_for(SimdLevel::kAvx2));
  const std::size_t n = 1000;
  const std::vector<float> intensity = random_floats(rng, n, 0.0f, 1.2f);
  const std::vector<float> target = random_floats(rng, n, 0.0f, 1.0f);
  for (const auto fn : arms) {
    std::vector<float> x1(n), x2(n);
    fn(intensity.data(), target.data(), 50.0f, 1.0f, 0.29f, x1.data(), n);
    fn(intensity.data(), target.data(), 50.0f, 1.0f, 0.29f, x2.data(), n);
    EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(), n * sizeof(float)));
  }
}

// ---------------------------------------------------------------------------
// FFT butterfly kernel and element-wise spectrum ops
// ---------------------------------------------------------------------------

TEST(FftKernelConformance, FftInplaceMatchesScalar) {
  SKIP_WITHOUT_AVX2();
  const auto sc = fft::fft_inplace_for(SimdLevel::kScalar);
  const auto vx = fft::fft_inplace_for(SimdLevel::kAvx2);
  Prng rng(201);
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 256u, 1024u}) {
    const fft::FftPlan& plan = fft::plan_for(n);
    for (const bool inverse : {false, true}) {
      const std::vector<cfloat> x = random_complex(rng, n);
      std::vector<cfloat> as = x, av = x;
      sc(as.data(), plan, inverse);
      vx(av.data(), plan, inverse);
      const float scale = std::max(max_mag(as.data(), n), 1e-6f);
      EXPECT_LE(max_abs_diff(as.data(), av.data(), n), 1e-5f * scale)
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftKernelConformance, ColumnsMatchPerLineKernelBitwise) {
  // The across-lines kernel must reproduce, per arm and bit for bit, the
  // per-line kernel run on a gathered copy of each column: any remainder of
  // 0-3 columns past the last group of four, unaligned first columns, and
  // columns outside the range left untouched.
  Prng rng(206);
  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  for (const SimdLevel lvl : arms) {
    const auto line = fft::fft_inplace_for(lvl);
    const auto columns = fft::fft_columns_for(lvl);
    for (std::size_t n = 2; n <= 1024; n *= 2) {
      const fft::FftPlan& plan = fft::plan_for(n);
      for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u}) {
        for (const std::size_t first : {0u, 1u, 3u}) {
          const std::size_t stride = first + count + 2;
          for (const bool inverse : {false, true}) {
            const std::vector<cfloat> x = random_complex(rng, n * stride);
            std::vector<cfloat> got = x, want = x;
            columns(got.data() + first, stride, count, plan, inverse);
            std::vector<cfloat> col(n);
            for (std::size_t l = first; l < first + count; ++l) {
              for (std::size_t i = 0; i < n; ++i) col[i] = want[i * stride + l];
              line(col.data(), plan, inverse);
              for (std::size_t i = 0; i < n; ++i) want[i * stride + l] = col[i];
            }
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(), x.size() * sizeof(cfloat)))
                << simd_level_name(lvl) << " n=" << n << " count=" << count
                << " first=" << first << " inverse=" << inverse;
          }
        }
      }
    }
  }
}

TEST(FftKernelConformance, ColumnsMatchScalar) {
  SKIP_WITHOUT_AVX2();
  const auto sc = fft::fft_columns_for(SimdLevel::kScalar);
  const auto vx = fft::fft_columns_for(SimdLevel::kAvx2);
  Prng rng(207);
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    const fft::FftPlan& plan = fft::plan_for(n);
    for (const std::size_t count : {3u, 4u, 9u}) {
      for (const bool inverse : {false, true}) {
        const std::vector<cfloat> x = random_complex(rng, n * count);
        std::vector<cfloat> as = x, av = x;
        sc(as.data(), count, count, plan, inverse);
        vx(av.data(), count, count, plan, inverse);
        const float scale = std::max(max_mag(as.data(), as.size()), 1e-6f);
        EXPECT_LE(max_abs_diff(as.data(), av.data(), as.size()), 1e-5f * scale)
            << "n=" << n << " count=" << count << " inverse=" << inverse;
      }
    }
  }
}

TEST(FftKernelConformance, VecOpsMatchScalar) {
  SKIP_WITHOUT_AVX2();
  const fft::VecOps& sc = fft::vec_ops(SimdLevel::kScalar);
  const fft::VecOps& vx = fft::vec_ops(SimdLevel::kAvx2);
  Prng rng(202);
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      const std::vector<cfloat> a = random_complex(rng, n + off);
      const std::vector<cfloat> b = random_complex(rng, n + off);
      const std::vector<float> x = random_floats(rng, n + off, -1.0f, 1.0f);

      std::vector<cfloat> os(n + off), ov(n + off);
      sc.cmul(a.data() + off, b.data() + off, os.data() + off, n);
      vx.cmul(a.data() + off, b.data() + off, ov.data() + off, n);
      EXPECT_LE(max_abs_diff(os.data() + off, ov.data() + off, n), 1e-5f)
          << "cmul n=" << n << " off=" << off;

      sc.cmul_conj_real(x.data() + off, a.data() + off, os.data() + off, n);
      vx.cmul_conj_real(x.data() + off, a.data() + off, ov.data() + off, n);
      EXPECT_LE(max_abs_diff(os.data() + off, ov.data() + off, n), 1e-5f)
          << "cmul_conj_real n=" << n << " off=" << off;

      std::vector<double> accs(n + off, 0.5), accv(n + off, 0.5);
      sc.norm_weighted_accum(a.data() + off, 0.37, accs.data() + off, n);
      vx.norm_weighted_accum(a.data() + off, 0.37, accv.data() + off, n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(accs[off + i], accv[off + i], 1e-6)
            << "norm_weighted_accum n=" << n << " off=" << off << " i=" << i;

      std::vector<cfloat> cs = b, cv = b;
      sc.cmul_weighted_accum(a.data() + off, b.data() + off, 0.37f, cs.data() + off, n);
      vx.cmul_weighted_accum(a.data() + off, b.data() + off, 0.37f, cv.data() + off, n);
      EXPECT_LE(max_abs_diff(cs.data() + off, cv.data() + off, n), 1e-5f)
          << "cmul_weighted_accum n=" << n << " off=" << off;
    }
  }
}

TEST(FftKernelConformance, RealFftAgreesWithComplexReference) {
  // Algebraic check per arm: rfft_2d must equal fft_2d on the real-promoted
  // input, and irfft_2d must invert it. Runs on the scalar arm always and the
  // AVX2 arm when the CPU has it.
  Prng rng(203);
  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  for (const SimdLevel lvl : arms) {
    LevelGuard guard;
    set_simd_level(lvl);
    const std::size_t dims[][2] = {{1, 8}, {2, 4}, {4, 4}, {8, 32}, {16, 16}, {32, 8}};
    for (const auto& hw : dims) {
      const std::size_t h = hw[0], w = hw[1], npx = h * w;
      const std::vector<float> x = random_floats(rng, npx, -1.0f, 1.0f);
      std::vector<cfloat> ref(npx);
      for (std::size_t i = 0; i < npx; ++i) ref[i] = {x[i], 0.0f};
      fft::fft_2d(ref.data(), h, w, /*inverse=*/false);

      std::vector<cfloat> spec(npx);
      fft::rfft_2d(x.data(), spec.data(), h, w);
      const float scale = std::max(max_mag(ref.data(), npx), 1e-6f);
      EXPECT_LE(max_abs_diff(ref.data(), spec.data(), npx), 1e-5f * scale)
          << simd_level_name(lvl) << " rfft " << h << "x" << w;

      std::vector<float> back(npx);
      fft::irfft_2d(spec.data(), back.data(), h, w);
      EXPECT_LE(max_abs_diff(back.data(), x.data(), npx), 1e-5f * scale)
          << simd_level_name(lvl) << " irfft " << h << "x" << w;
    }
  }
}

TEST(FftKernelConformance, CrossArmRealFftMatches) {
  SKIP_WITHOUT_AVX2();
  Prng rng(204);
  const std::size_t h = 32, w = 32, npx = h * w;
  const std::vector<float> x = random_floats(rng, npx, -1.0f, 1.0f);
  std::vector<cfloat> ss(npx), sv(npx);
  {
    LevelGuard guard;
    set_simd_level(SimdLevel::kScalar);
    fft::rfft_2d(x.data(), ss.data(), h, w);
    set_simd_level(SimdLevel::kAvx2);
    fft::rfft_2d(x.data(), sv.data(), h, w);
  }
  const float scale = std::max(max_mag(ss.data(), npx), 1e-6f);
  EXPECT_LE(max_abs_diff(ss.data(), sv.data(), npx), 1e-5f * scale);
}

TEST(FftKernelConformance, ArmsAreRunToRunDeterministic) {
  Prng rng(205);
  std::vector<fft::FftInplaceFn> arms = {fft::fft_inplace_for(SimdLevel::kScalar)};
  if (have_avx2()) arms.push_back(fft::fft_inplace_for(SimdLevel::kAvx2));
  const std::size_t n = 512;
  const fft::FftPlan& plan = fft::plan_for(n);
  const std::vector<cfloat> x = random_complex(rng, n);
  for (const auto fn : arms) {
    std::vector<cfloat> a1 = x, a2 = x;
    fn(a1.data(), plan, false);
    fn(a2.data(), plan, false);
    EXPECT_EQ(0, std::memcmp(a1.data(), a2.data(), n * sizeof(cfloat)));
  }
}

// ---------------------------------------------------------------------------
// GEMM (differential through the public sgemm, which owns packing + dispatch)
// ---------------------------------------------------------------------------

TEST(GemmKernelConformance, SgemmMatchesScalarAcrossShapes) {
  SKIP_WITHOUT_AVX2();
  Prng rng(301);
  LevelGuard guard;
  for (int trial = 0; trial < 60; ++trial) {
    // Shapes straddle the 4x16 register block: remainder rows, remainder
    // columns, k tails, and padded leading dimensions.
    const auto m = static_cast<std::size_t>(rng.randint(1, 21));
    const auto n = static_cast<std::size_t>(rng.randint(1, 37));
    const auto k = static_cast<std::size_t>(rng.randint(1, 29));
    const bool trans_a = rng.randint(0, 1) != 0;
    const bool trans_b = rng.randint(0, 1) != 0;
    const float alpha = trial % 3 == 0 ? 1.0f : 0.75f;
    const float beta = trial % 2 == 0 ? 0.0f : 0.5f;
    const std::size_t lda = (trans_a ? m : k) + static_cast<std::size_t>(rng.randint(0, 3));
    const std::size_t ldb = (trans_b ? k : n) + static_cast<std::size_t>(rng.randint(0, 3));
    const std::size_t ldc = n + static_cast<std::size_t>(rng.randint(0, 3));
    const std::vector<float> a = random_floats(rng, (trans_a ? k : m) * lda, -1.0f, 1.0f);
    const std::vector<float> b = random_floats(rng, (trans_b ? n : k) * ldb, -1.0f, 1.0f);
    const std::vector<float> c0 = random_floats(rng, m * ldc, -1.0f, 1.0f);

    std::vector<float> cs = c0, cv = c0;
    set_simd_level(SimdLevel::kScalar);
    nn::sgemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
              cs.data(), ldc);
    set_simd_level(SimdLevel::kAvx2);
    nn::sgemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
              cv.data(), ldc);
    // FMA + different accumulation association: bound by k rounding steps.
    const float tol = 1e-6f * static_cast<float>(k) + 1e-6f;
    EXPECT_LE(max_abs_diff(cs.data(), cv.data(), m * ldc), tol)
        << "m=" << m << " n=" << n << " k=" << k << " tA=" << trans_a
        << " tB=" << trans_b;
  }
}

TEST(GemmKernelConformance, ArmsAreRunToRunDeterministic) {
  Prng rng(302);
  LevelGuard guard;
  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  const std::size_t m = 19, n = 35, k = 23;
  const std::vector<float> a = random_floats(rng, m * k, -1.0f, 1.0f);
  const std::vector<float> b = random_floats(rng, k * n, -1.0f, 1.0f);
  for (const SimdLevel lvl : arms) {
    set_simd_level(lvl);
    std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
    nn::sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c1.data(), n);
    nn::sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c2.data(), n);
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), m * n * sizeof(float)));
  }
}

// ---------------------------------------------------------------------------
// Fused ILT gradient pass: finite-difference check under each dispatch arm
// ---------------------------------------------------------------------------

TEST(IltFusedGradcheck, MatchesFiniteDifferencesPerArm) {
  litho::OpticsConfig optics;
  optics.num_kernels = 6;
  const litho::LithoSim sim(optics, litho::ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 8; r < 24; ++r)
    for (std::int32_t c = 12; c < 20; ++c) target.at(r, c) = 1.0f;
  const std::size_t npx = target.data.size();
  const float beta = 4.0f;

  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (have_avx2()) arms.push_back(SimdLevel::kAvx2);
  for (const SimdLevel lvl : arms) {
    SCOPED_TRACE(simd_level_name(lvl));
    LevelGuard guard;
    set_simd_level(lvl);
    const ilt::IltKernels& kern = ilt::ilt_kernels(lvl);

    // A smooth parameter point away from sigmoid saturation.
    Prng rng(401);
    std::vector<float> p(npx);
    for (std::size_t i = 0; i < npx; ++i)
      p[i] = 0.8f * target.data[i] - 0.4f +
             static_cast<float>(rng.uniform(-0.05, 0.05));

    geom::Grid mask_b(32, 32, 32);
    kern.sigmoid_relax(p.data(), beta, mask_b.data.data(), npx);
    litho::LithoWorkspace ws;
    geom::Grid grad_mb;
    const float doses[1] = {1.0f};
    sim.gradient_into(mask_b, target, doses, grad_mb, ws);

    std::vector<float> grad_p(npx);
    float max_abs = 0.0f;
    bool finite = false;
    kern.chain_rule(mask_b.data.data(), grad_mb.data.data(), beta, grad_p.data(), npx,
                    &max_abs, &finite);
    ASSERT_TRUE(finite);
    EXPECT_GT(max_abs, 0.0f);

    auto loss = [&](const std::vector<float>& pv) {
      geom::Grid mb(32, 32, 32);
      kern.sigmoid_relax(pv.data(), beta, mb.data.data(), npx);
      return sim.forward_relaxed(mb, target).error;
    };
    testing::check_vector_gradient(loss, p, grad_p, rng);
  }
}

}  // namespace
}  // namespace ganopc

// Determinism of the parallel lithography engine across thread counts.
//
// The SOCS forward and adjoint loops parallelize over kernels and pixel
// blocks, but every floating-point reduction runs in a fixed order (ascending
// kernel index per pixel, serial dose corners), so the pool size must not
// change a single bit of any result. This tier pins that contract: aerial,
// gradient (single- and multi-dose), a full ILT iteration and a simulate
// batch are computed at 1, 2 and hardware_concurrency threads (plus an
// oversubscribed pool) and compared bit-for-bit, on the full grid and on the
// band-grid SOCS path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "litho/resist_kernels.hpp"

namespace ganopc::litho {
namespace {

void expect_identical(const geom::Grid& a, const geom::Grid& b, const char* what,
                      std::size_t threads) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what << " @ " << threads << " threads";
  EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(), a.data.size() * sizeof(float)))
      << what << " differs at " << threads << " threads";
}

struct Snapshot {
  geom::Grid aerial;
  geom::Grid grad_single;
  geom::Grid grad_multi;
  geom::Grid ilt_mask;
  std::vector<geom::Grid> batch;
};

Snapshot run_engine(const LithoSim& sim, const geom::Grid& target) {
  Snapshot s;
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.2f + 0.6f * v;

  s.aerial = sim.aerial(mask);
  s.grad_single = sim.gradient(mask, target);

  LithoWorkspace ws;
  const std::vector<float> doses = {0.95f, 1.0f, 1.05f};
  sim.gradient_into(mask, target, doses, s.grad_multi, ws);

  ilt::IltConfig cfg;
  cfg.max_iterations = 1;
  cfg.check_every = 1;
  cfg.patience = 1;
  s.ilt_mask = ilt::IltEngine(sim, cfg).optimize(target).mask_relaxed;

  geom::Grid shifted(target.rows, target.cols, target.pixel_nm);
  for (std::int32_t r = 2; r < target.rows; ++r)
    for (std::int32_t c = 0; c < target.cols; ++c)
      shifted.at(r, c) = target.at(r - 2, c);
  const std::vector<geom::Grid> masks = {target, mask, shifted};
  s.batch = sim.simulate_batch(masks);
  return s;
}

void expect_bit_identical_at_every_thread_count(const LithoSim& sim,
                                                const geom::Grid& target) {
  ThreadPool::reset(1);
  const Snapshot base = run_engine(sim, target);

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts = {1, 2, 3, 4, hw, hw + 3};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  for (const std::size_t t : counts) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const Snapshot s = run_engine(sim, target);
    expect_identical(s.aerial, base.aerial, "aerial", t);
    expect_identical(s.grad_single, base.grad_single, "gradient", t);
    expect_identical(s.grad_multi, base.grad_multi, "multi-dose gradient", t);
    expect_identical(s.ilt_mask, base.ilt_mask, "ILT iteration", t);
    ASSERT_EQ(s.batch.size(), base.batch.size());
    for (std::size_t i = 0; i < s.batch.size(); ++i)
      expect_identical(s.batch[i], base.batch[i], "batch print", t);
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, BitIdenticalAtEveryThreadCount) {
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 8; r < 24; ++r)
    for (std::int32_t c = 12; c < 20; ++c) target.at(r, c) = 1.0f;
  expect_bit_identical_at_every_thread_count(sim, target);
}

TEST(LithoDeterminism, BandGridBitIdenticalAtEveryThreadCount) {
  // 64^2 at 16 nm runs SOCS on the 32^2 band grid: the crop, low-pass,
  // upsample and padded-inverse steps are pinned like the full-grid path.
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 64, 16);
  ASSERT_EQ(sim.kernels().band_grid(), 32);
  geom::Grid target(64, 64, 16);
  for (std::int32_t r = 16; r < 48; ++r)
    for (std::int32_t c = 24; c < 40; ++c) target.at(r, c) = 1.0f;
  expect_bit_identical_at_every_thread_count(sim, target);
}

TEST(LithoDeterminism, IltSolveBitIdenticalAcrossOddThreadCounts) {
  // Regression for the cross-thread divergence ROADMAP tracked: before chunk
  // boundaries were quantum-aligned (common/parallel.hpp), the AVX2 kernels'
  // vector-body/scalar-tail grouping shifted with the partition, so a
  // multi-iteration ILT solve diverged at N=3 (1024 px / 3 workers puts chunk
  // starts off the SIMD group width) while N=1 and N=4 agreed. A single
  // iteration can mask the bug — ULP-level differences need iterations to
  // amplify — so this runs a real solve and pins 1/3/4 workers bit-for-bit.
  OpticsConfig optics;
  optics.num_kernels = 12;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid target(32, 32, 32);
  for (std::int32_t r = 6; r < 26; ++r)
    for (std::int32_t c = 10; c < 22; ++c) target.at(r, c) = 1.0f;
  for (std::int32_t r = 14; r < 18; ++r)
    for (std::int32_t c = 10; c < 16; ++c) target.at(r, c) = 0.0f;

  ilt::IltConfig cfg;
  cfg.max_iterations = 24;
  cfg.check_every = 4;

  ThreadPool::reset(1);
  const ilt::IltResult base = ilt::IltEngine(sim, cfg).optimize(target);

  for (const std::size_t t : {std::size_t{3}, std::size_t{4}}) {
    ThreadPool::reset(t);
    ASSERT_EQ(ThreadPool::instance().size(), t);
    const ilt::IltResult got = ilt::IltEngine(sim, cfg).optimize(target);
    EXPECT_EQ(got.iterations, base.iterations) << t << " threads";
    expect_identical(got.mask, base.mask, "ILT binary mask", t);
    expect_identical(got.mask_relaxed, base.mask_relaxed, "ILT relaxed mask", t);
    ASSERT_EQ(got.l2_history.size(), base.l2_history.size()) << t << " threads";
    for (std::size_t i = 0; i < got.l2_history.size(); ++i)
      EXPECT_EQ(got.l2_history[i], base.l2_history[i])
          << "L2 history entry " << i << " at " << t << " threads";
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, RepeatedCallsOnWarmWorkspaceAreStable) {
  // Buffer reuse must not leak state between calls: interleaving different
  // masks through one thread's workspace reproduces the cold-workspace
  // results. A fresh std::thread starts with an empty thread-local workspace.
  OpticsConfig optics;
  optics.num_kernels = 8;
  const LithoSim sim(optics, ResistConfig{}, 32, 32);
  geom::Grid a(32, 32, 32), b(32, 32, 32);
  for (std::int32_t r = 4; r < 28; ++r)
    for (std::int32_t c = 14; c < 18; ++c) a.at(r, c) = 1.0f;
  for (std::int32_t r = 12; r < 20; ++r)
    for (std::int32_t c = 4; c < 28; ++c) b.at(r, c) = 1.0f;

  const auto cold = [&](const geom::Grid& mask) {
    geom::Grid out;
    std::thread([&] { out = sim.aerial(mask); }).join();
    return out;
  };
  const geom::Grid ref_a = cold(a), ref_b = cold(b);
  (void)sim.aerial(b);  // warm this thread's workspace on the other mask first
  expect_identical(sim.aerial(a), ref_a, "warm aerial(a)", ThreadPool::instance().size());
  expect_identical(sim.aerial(b), ref_b, "warm aerial(b)", ThreadPool::instance().size());
  expect_identical(sim.aerial(a), ref_a, "warm aerial(a) again",
                   ThreadPool::instance().size());
}

// ---------------------------------------------------------------------------
// Kernel-major oracle
//
// On one thread LithoSim runs the SOCS passes kernel-major: each field (or
// adjoint spectrum) is added into the per-pixel sum while cache-hot. On a
// pool it forms every field first, then sums them over pixel chunks. The reference below is the unfused form
// built from public APIs only: every kernel's field or adjoint spectrum is
// computed first, then all are summed in ascending k with the same line-
// pruned transforms and the same element-wise kernels. The two orders must
// agree bit for bit at any thread count.
// ---------------------------------------------------------------------------

using fft::cfloat;

std::size_t band_to_full(std::size_t i, std::size_t m, std::size_t n) {
  return i < m / 2 ? i : i + n - m;
}

// Low-pass an n x n spectrum onto the m x m band grid (Nyquist lines zeroed).
void crop_spectrum(const cfloat* full, std::size_t n, cfloat* band, std::size_t m) {
  const float scale = static_cast<float>(m * m) / static_cast<float>(n * n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c)
      band[r * m + c] = (r == m / 2 || c == m / 2)
                            ? cfloat{}
                            : scale * full[band_to_full(r, m, n) * n + band_to_full(c, m, n)];
}

// scale * Hermitian part of the zero-padded band spectrum (in place at m == n).
void fold_pad_spectrum(const cfloat* band, std::size_t m, cfloat* full, std::size_t n,
                       float scale) {
  if (full != band) std::fill(full, full + n * n, cfloat{});
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t rm = (m - r) & (m - 1);
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t cm = (m - c) & (m - 1);
      if (rm * m + cm < r * m + c) continue;
      const cfloat a = band[r * m + c], b = band[rm * m + cm];
      full[band_to_full(r, m, n) * n + band_to_full(c, m, n)] = scale * (a + std::conj(b));
      full[band_to_full(rm, m, n) * n + band_to_full(cm, m, n)] = scale * (b + std::conj(a));
    }
  }
}

struct OracleFields {
  geom::Grid aerial;
  std::vector<std::vector<cfloat>> fields;  // all K coherent fields
};

OracleFields oracle_forward(const LithoSim& sim, const geom::Grid& mask) {
  const SocsKernels& kernels = sim.kernels();
  const std::size_t n = static_cast<std::size_t>(sim.grid_size());
  const std::size_t m = static_cast<std::size_t>(kernels.band_grid());
  const std::size_t mpx = m * m;
  const fft::VecOps& ops = fft::vec_ops();
  std::vector<cfloat> spec(n * n), mask_hat(mpx);
  if (m < n) {
    fft::rfft_2d(mask.data.data(), spec.data(), n, n, m / 2);
    crop_spectrum(spec.data(), n, mask_hat.data(), m);
  } else {
    fft::rfft_2d(mask.data.data(), mask_hat.data(), n, n);
  }
  OracleFields out;
  for (int k = 0; k < kernels.count(); ++k) {
    std::vector<cfloat> field(mpx);
    ops.cmul(mask_hat.data(), kernels.band_kernel(k).data(), field.data(), mpx);
    fft::fft_2d(field.data(), m, m, true, kernels.band_support(k).rows, fft::Lines::all(m));
    out.fields.push_back(std::move(field));
  }
  std::vector<double> acc(mpx, 0.0);
  for (int k = 0; k < kernels.count(); ++k)
    ops.norm_weighted_accum(out.fields[static_cast<std::size_t>(k)].data(),
                            kernels.weight(k), acc.data(), mpx);
  std::vector<float> intensity(mpx);
  for (std::size_t i = 0; i < mpx; ++i) intensity[i] = static_cast<float>(acc[i]);
  out.aerial = geom::Grid(sim.grid_size(), sim.grid_size(), sim.pixel_nm());
  if (m < n) {
    std::vector<cfloat> band_spec(mpx);
    fft::fourier_upsample_into(intensity.data(), m, m, n / m, band_spec.data(), spec.data(),
                               out.aerial.data.data());
  } else {
    std::copy(intensity.begin(), intensity.end(), out.aerial.data.begin());
  }
  return out;
}

geom::Grid oracle_gradient(const LithoSim& sim, const geom::Grid& mask,
                           const geom::Grid& target, const std::vector<float>& doses) {
  const SocsKernels& kernels = sim.kernels();
  const std::size_t n = static_cast<std::size_t>(sim.grid_size());
  const std::size_t m = static_cast<std::size_t>(kernels.band_grid());
  const std::size_t npx = n * n, mpx = m * m;
  const int num_k = kernels.count();
  const fft::VecOps& ops = fft::vec_ops();
  const OracleFields fwd = oracle_forward(sim, mask);

  std::vector<cfloat> sum(mpx), spec(npx), band_spec(mpx);
  std::vector<float> x(npx), band_real(mpx);
  std::vector<std::vector<cfloat>> adjoint(static_cast<std::size_t>(num_k),
                                           std::vector<cfloat>(mpx));
  const auto adjoint_lines = [&](int k) {
    const SocsKernels::BandSupport& s = kernels.band_support(k);
    if (m < 4) return SocsKernels::BandSupport{fft::Lines::all(m), fft::Lines::all(m)};
    return SocsKernels::BandSupport{s.rows.mirrored(m), s.cols.mirrored(m).widened(4, m)};
  };
  for (const float dose : doses) {
    litho::resist_grad()(fwd.aerial.data.data(), target.data.data(), sim.sigmoid_alpha(), dose,
                         sim.threshold(), x.data(), npx);
    const float* xb = x.data();
    if (m < n) {
      fft::rfft_2d(x.data(), spec.data(), n, n, m / 2);
      crop_spectrum(spec.data(), n, band_spec.data(), m);
      fft::irfft_2d(band_spec.data(), band_real.data(), m, m, m / 2);
      xb = band_real.data();
    }
    for (int k = 0; k < num_k; ++k) {
      auto& buf = adjoint[static_cast<std::size_t>(k)];
      ops.cmul_conj_real(xb, fwd.fields[static_cast<std::size_t>(k)].data(), buf.data(), mpx);
      fft::fft_2d(buf.data(), m, m, false, fft::Lines::all(m), adjoint_lines(k).cols);
    }
    for (int k = 0; k < num_k; ++k) {
      const cfloat* buf = adjoint[static_cast<std::size_t>(k)].data();
      const cfloat* hat = kernels.band_kernel_flipped(k).data();
      const SocsKernels::BandSupport lines = adjoint_lines(k);
      if (lines.cols.count == m) {
        ops.cmul_weighted_accum(buf, hat, kernels.weight(k), sum.data(), mpx);
        continue;
      }
      for (std::size_t r = 0; r < m; ++r) {
        if (!lines.rows.contains(r, m)) continue;
        fft::for_each_range(lines.cols, m, [&](std::size_t a, std::size_t b) {
          const std::size_t i = r * m + a;
          ops.cmul_weighted_accum(buf + i, hat + i, kernels.weight(k), sum.data() + i, b - a);
        });
      }
    }
  }
  const float scale = static_cast<float>(npx) / static_cast<float>(mpx) /
                      static_cast<float>(doses.size());
  const std::size_t cols = static_cast<std::size_t>(kernels.band_reach()) + 1;
  cfloat* folded = m < n ? spec.data() : sum.data();
  fold_pad_spectrum(sum.data(), m, folded, n, scale);
  geom::Grid grad(sim.grid_size(), sim.grid_size(), sim.pixel_nm());
  fft::irfft_2d(folded, grad.data.data(), n, n, cols);
  return grad;
}

void expect_kernel_major_matches_oracle(const LithoSim& sim) {
  const std::int32_t n = sim.grid_size();
  geom::Grid target(n, n, sim.pixel_nm());
  for (std::int32_t r = n / 4; r < 3 * n / 4; ++r)
    for (std::int32_t c = 3 * n / 8; c < 5 * n / 8; ++c) target.at(r, c) = 1.0f;
  for (std::int32_t r = n / 8; r < n / 4; ++r)
    for (std::int32_t c = n / 8; c < 7 * n / 8; ++c) target.at(r, c) = 1.0f;
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.15f + 0.7f * v;
  const std::vector<float> one = {1.0f};
  const std::vector<float> three = {0.98f, 1.0f, 1.02f};

  const geom::Grid want_aerial = oracle_forward(sim, mask).aerial;
  const geom::Grid want_one = oracle_gradient(sim, mask, target, one);
  const geom::Grid want_three = oracle_gradient(sim, mask, target, three);
  for (const std::size_t t : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    ThreadPool::reset(t);
    expect_identical(sim.aerial(mask), want_aerial, "aerial vs oracle", t);
    LithoWorkspace ws;
    geom::Grid got;
    sim.gradient_into(mask, target, one, got, ws);
    expect_identical(got, want_one, "1-dose gradient vs oracle", t);
    sim.gradient_into(mask, target, three, got, ws);
    expect_identical(got, want_three, "3-dose gradient vs oracle", t);
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoDeterminism, KernelMajorPassesMatchUnfusedOracleAbbe) {
  // 128^2 / 16 nm: 24 Abbe kernels on the 64^2 band grid (the serving
  // geometry).
  const LithoSim sim(OpticsConfig{}, ResistConfig{}, 128, 16);
  ASSERT_EQ(sim.kernels().band_grid(), 64);
  expect_kernel_major_matches_oracle(sim);
}

TEST(LithoDeterminism, KernelMajorPassesMatchUnfusedOracleTcc8) {
  // `tcc:8` runs at M = N.
  const OpticsConfig optics;
  const LithoSim sim(TccBackend(8, /*min_captured_energy=*/0.0).build(optics, 128, 16),
                     ResistConfig{});
  ASSERT_EQ(sim.kernels().band_grid(), 128);
  ASSERT_EQ(sim.kernels().count(), 8);
  expect_kernel_major_matches_oracle(sim);
}

}  // namespace
}  // namespace ganopc::litho

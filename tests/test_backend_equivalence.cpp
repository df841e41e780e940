// Backend-equivalence tier (DESIGN.md §15): the truncated-TCC litho backend
// differentially checked against the Abbe reference it is built from.
//
// TccBackend assembles the Hopkins operator from the SAME source points the
// Abbe backend samples, so the full-rank expansion reproduces the Abbe image
// exactly and truncation is the ONLY difference between the two backends.
// That gives an analytic handle the tests pin:
//   - the relative aerial L2 error is bounded by the discarded trace
//     fraction `1 - captured_energy`, at every k
//   - auto truncation (the `tcc` default) meets the 0.99 energy floor
//   - hard prints agree everywhere except on the reference contour (one
//     pixel of EPE tolerance)
//   - an end-to-end ILT solve lands within 2% of the Abbe backend on final
//     L2 and PV band
//   - each backend stays bitwise deterministic across thread counts and
//     SIMD dispatch arms (the test_litho_determinism pinning, per backend)
//   - the band-grid SOCS path (Abbe kernels, M < N) matches the full-grid
//     path that full-rank TCC takes (M = N) on aerial image and gradients
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "common/parallel.hpp"
#include "geometry/grid.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::litho {
namespace {

constexpr std::int32_t kGrid = 64;
constexpr std::int32_t kPixel = 32;  // 2048 nm clip window

OpticsConfig base_optics() {
  OpticsConfig cfg;
  cfg.num_kernels = 24;  // the full Abbe sampling = the TCC operator's rank
  return cfg;
}

// A wire with a notch: prints imperfectly, so L2/PVB comparisons have signal.
geom::Grid notch_target() {
  geom::Grid g(kGrid, kGrid, kPixel);
  for (std::int32_t r = 12; r < 52; ++r)
    for (std::int32_t c = 26; c < 38; ++c) g.at(r, c) = 1.0f;
  for (std::int32_t r = 28; r < 36; ++r)
    for (std::int32_t c = 26; c < 31; ++c) g.at(r, c) = 0.0f;
  return g;
}

// Three wires (middle one notched): a denser golden clip whose PV band runs
// along enough contour that backend parity is measured on the layout, not on
// one marginal feature.
geom::Grid dense_target() {
  geom::Grid g(kGrid, kGrid, kPixel);
  for (std::int32_t r = 10; r < 54; ++r)
    for (const std::int32_t c : {14, 30, 46})
      for (std::int32_t d = 0; d < 6; ++d) g.at(r, c + d) = 1.0f;
  for (std::int32_t r = 28; r < 34; ++r)
    for (std::int32_t c = 30; c < 33; ++c) g.at(r, c) = 0.0f;
  return g;
}

geom::Grid soft_mask(const geom::Grid& target) {
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.15f + 0.7f * v;
  return mask;
}

double relative_l2(const geom::Grid& test, const geom::Grid& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    const double d = static_cast<double>(test.data[i]) - ref.data[i];
    num += d * d;
    den += static_cast<double>(ref.data[i]) * ref.data[i];
  }
  return std::sqrt(num / den);
}

// True when the reference print has both resist states within one pixel of
// (r, c) — i.e. the pixel sits on the printed contour.
bool on_contour(const geom::Grid& print, std::int32_t r, std::int32_t c) {
  bool has_on = false, has_off = false;
  for (std::int32_t dr = -1; dr <= 1; ++dr)
    for (std::int32_t dc = -1; dc <= 1; ++dc) {
      const std::int32_t rr = r + dr, cc = c + dc;
      if (rr < 0 || rr >= print.rows || cc < 0 || cc >= print.cols) continue;
      (print.at(rr, cc) >= 0.5f ? has_on : has_off) = true;
    }
  return has_on && has_off;
}

TEST(BackendEquivalence, AerialErrorBoundedByDiscardedEnergy) {
  const OpticsConfig optics = base_optics();
  const LithoSim abbe(AbbeBackend().build(optics, kGrid, kPixel), ResistConfig{});
  const geom::Grid mask = soft_mask(notch_target());
  const geom::Grid ref = abbe.aerial(mask);

  for (const int k : {8, 16, 24}) {
    // Explicit k waives the energy floor; captured_energy is still recorded
    // and is exactly the bound the truncation must honor.
    const SocsKernels kernels =
        TccBackend(k, /*min_captured_energy=*/0.0).build(optics, kGrid, kPixel);
    EXPECT_EQ(kernels.count(), k);
    const double energy = kernels.captured_energy();
    EXPECT_GT(energy, 0.85);
    EXPECT_LE(energy, 1.0 + 1e-9);

    const LithoSim tcc(kernels, ResistConfig{});
    const double err = relative_l2(tcc.aerial(mask), ref);
    EXPECT_LE(err, (1.0 - energy) + 1e-4)
        << "k=" << k << " captured_energy=" << energy;
    // The full-rank expansion is exact: it reproduces Abbe up to float
    // kernel storage and FFT rounding.
    if (k == 24) {
      EXPECT_LE(err, 1e-6);
    }
  }
}

TEST(BackendEquivalence, AutoTruncationMeetsEnergyFloor) {
  // The `tcc` default (auto k at a 0.99 floor) — the acceptance contract.
  const LithoBackendSpec spec = parse_litho_backend("tcc");
  EXPECT_EQ(spec.tcc_kernels, 0);
  EXPECT_DOUBLE_EQ(spec.min_captured_energy, 0.99);

  const SocsKernels kernels =
      make_litho_backend(spec)->build(base_optics(), kGrid, kPixel);
  EXPECT_GE(kernels.captured_energy(), 0.99);
  // Auto keeps the *smallest* such k: strictly fewer kernels than the
  // full-rank operator, or the truncation would buy nothing.
  EXPECT_LT(kernels.count(), 24);
  EXPECT_GE(kernels.count(), 1);

  const LithoSim abbe(AbbeBackend().build(base_optics(), kGrid, kPixel),
                      ResistConfig{});
  const LithoSim tcc(kernels, ResistConfig{});
  const geom::Grid mask = soft_mask(notch_target());
  EXPECT_LE(relative_l2(tcc.aerial(mask), abbe.aerial(mask)),
            (1.0 - kernels.captured_energy()) + 1e-4);
}

TEST(BackendEquivalence, PrintsAgreeAtContour) {
  // Hard resist prints may only disagree where the decision is marginal:
  // every differing pixel must sit on the reference contour (<= 1 px EPE).
  const OpticsConfig optics = base_optics();
  const LithoSim abbe(AbbeBackend().build(optics, kGrid, kPixel), ResistConfig{});
  const LithoSim tcc(TccBackend().build(optics, kGrid, kPixel), ResistConfig{});

  const geom::Grid mask = soft_mask(notch_target());
  const geom::Grid print_abbe = abbe.simulate(mask);
  const geom::Grid print_tcc = tcc.simulate(mask);

  int diff = 0;
  for (std::int32_t r = 0; r < kGrid; ++r)
    for (std::int32_t c = 0; c < kGrid; ++c) {
      if ((print_abbe.at(r, c) >= 0.5f) == (print_tcc.at(r, c) >= 0.5f))
        continue;
      ++diff;
      EXPECT_TRUE(on_contour(print_abbe, r, c))
          << "interior print flip at (" << r << ", " << c << ")";
    }
  // Far fewer flips than contour pixels — the prints are the same shape.
  EXPECT_LE(diff, kGrid);
}

TEST(BackendEquivalence, IltParityWithinTwoPercent) {
  // End to end: an ILT solve through the auto-truncated TCC backend lands
  // within 2% of the Abbe backend on final L2 and PV band.
  const OpticsConfig optics = base_optics();
  const LithoSim abbe(AbbeBackend().build(optics, kGrid, kPixel), ResistConfig{});
  const LithoSim tcc(TccBackend().build(optics, kGrid, kPixel), ResistConfig{});
  const geom::Grid target = dense_target();

  ilt::IltConfig cfg;
  cfg.max_iterations = 30;
  cfg.check_every = 5;

  const ilt::IltResult ra = ilt::IltEngine(abbe, cfg).optimize(target);
  const ilt::IltResult rt = ilt::IltEngine(tcc, cfg).optimize(target);

  // 2% relative, with a 2 px floor so a near-perfect solve (L2 -> 0) does
  // not turn the ratio into noise.
  EXPECT_NEAR(rt.l2_px, ra.l2_px, std::max(0.02 * ra.l2_px, 2.0));

  const auto pvb_a = abbe.pv_band(ra.mask);
  const auto pvb_t = tcc.pv_band(rt.mask);
  ASSERT_GT(pvb_a.area_nm2, 0);
  EXPECT_NEAR(static_cast<double>(pvb_t.area_nm2),
              static_cast<double>(pvb_a.area_nm2),
              0.02 * static_cast<double>(pvb_a.area_nm2));
}

TEST(BackendEquivalence, BandGridDerivedFromKernelSupport) {
  // M = min(N, smallest power of two >= 2w), w = widest kernel support box.
  const OpticsConfig optics = base_optics();
  EXPECT_EQ(AbbeBackend().build(optics, 128, 16).band_grid(), 64);
  EXPECT_EQ(AbbeBackend().build(optics, 256, 8).band_grid(), 64);
  EXPECT_EQ(TccBackend(8, 0.0).build(optics, 128, 16).band_grid(), 128);
  EXPECT_EQ(SocsKernels(OpticsConfig{}, 32, 32).band_grid(), 32);
}

TEST(BackendEquivalence, BandGridPathMatchesFullGrid) {
  // At 128^2 / 16 nm the Abbe kernels run on the 64^2 band grid, while
  // full-rank TCC kernels from the same 24 source points span the whole
  // union of pupil shifts and run on the full grid. Both expand the same
  // operator, so the band path must reproduce the full-grid aerial image and
  // Eq. (14) gradients up to float rounding.
  constexpr std::int32_t kFine = 128, kFinePixel = 16;
  const OpticsConfig optics = base_optics();
  const LithoSim band(AbbeBackend().build(optics, kFine, kFinePixel), ResistConfig{});
  const LithoSim full(TccBackend(24, 0.0).build(optics, kFine, kFinePixel),
                      ResistConfig{});
  ASSERT_EQ(band.kernels().band_grid(), 64);
  ASSERT_EQ(full.kernels().band_grid(), kFine);

  // The notch clip redrawn at the finer pixel (same 2048 nm window).
  const geom::Grid coarse = notch_target();
  geom::Grid target(kFine, kFine, kFinePixel);
  for (std::int32_t r = 0; r < kFine; ++r)
    for (std::int32_t c = 0; c < kFine; ++c) target.at(r, c) = coarse.at(r / 2, c / 2);
  const geom::Grid mask = soft_mask(target);

  EXPECT_LE(relative_l2(band.aerial(mask), full.aerial(mask)), 1e-6);

  // One threshold for both, so the gradients differ only by the SOCS path.
  const float threshold = full.threshold();
  EXPECT_NEAR(band.threshold(), threshold, 1e-6f * threshold);
  ResistConfig pinned;
  pinned.threshold = threshold;
  const LithoSim band_pinned(band.kernels(), pinned);
  const LithoSim full_pinned(full.kernels(), pinned);
  for (const std::vector<float>& doses :
       {std::vector<float>{1.0f}, std::vector<float>{0.98f, 1.0f, 1.02f}}) {
    LithoWorkspace ws_band, ws_full;
    geom::Grid g_band, g_full;
    band_pinned.gradient_into(mask, target, doses, g_band, ws_band);
    full_pinned.gradient_into(mask, target, doses, g_full, ws_full);
    EXPECT_LE(relative_l2(g_band, g_full), 1e-5) << doses.size() << " dose(s)";
  }
}

void expect_identical(const geom::Grid& a, const geom::Grid& b,
                      const char* what) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data.data(), b.data.data(),
                           a.data.size() * sizeof(float)))
      << what << " not bit-identical";
}

TEST(BackendEquivalence, EachBackendBitIdenticalAcrossThreadsAndSimdArms) {
  // The determinism contract holds per backend: for each SIMD arm, results
  // are bit-identical at every thread count (the test_litho_determinism
  // pinning, applied to both kernel factories).
  const OpticsConfig optics = base_optics();
  const geom::Grid target = notch_target();
  const geom::Grid mask = soft_mask(target);

  std::vector<SimdLevel> arms = {SimdLevel::kScalar};
  if (cpu_supports_avx2_fma()) arms.push_back(SimdLevel::kAvx2);
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  for (const bool use_tcc : {false, true}) {
    for (const SimdLevel arm : arms) {
      set_simd_level(arm);
      // Kernels are FFT products too: rebuild under the pinned arm.
      const LithoSim sim(use_tcc
                             ? TccBackend().build(optics, kGrid, kPixel)
                             : AbbeBackend().build(optics, kGrid, kPixel),
                         ResistConfig{});
      ThreadPool::reset(1);
      const geom::Grid base_aerial = sim.aerial(mask);
      const geom::Grid base_grad = sim.gradient(mask, target);
      for (const std::size_t t : {std::size_t{2}, std::size_t{3}, hw}) {
        ThreadPool::reset(t);
        expect_identical(sim.aerial(mask), base_aerial, "aerial");
        expect_identical(sim.gradient(mask, target), base_grad, "gradient");
      }
    }
  }
  set_simd_level(cpu_supports_avx2_fma() ? SimdLevel::kAvx2
                                         : SimdLevel::kScalar);
  ThreadPool::reset(ThreadPool::default_thread_count());
  if (arms.size() == 1)
    GTEST_SKIP() << "AVX2+FMA unavailable: scalar arm covered, AVX2 arm skipped";
}

}  // namespace
}  // namespace ganopc::litho

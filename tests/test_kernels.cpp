#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "litho/backend.hpp"
#include "litho/kernels.hpp"

namespace ganopc::litho {
namespace {

OpticsConfig small_optics(int kernels = 8) {
  OpticsConfig cfg;
  cfg.num_kernels = kernels;
  return cfg;
}

TEST(Kernels, ConstructsWithValidGeometry) {
  SocsKernels k(small_optics(), 64, 16);
  EXPECT_EQ(k.grid_size(), 64);
  EXPECT_EQ(k.pixel_nm(), 16);
  EXPECT_EQ(k.count(), 8);
}

TEST(Kernels, RejectsNonPow2Grid) {
  EXPECT_THROW(SocsKernels(small_optics(), 100, 16), Error);
}

TEST(Kernels, RejectsTooCoarsePixels) {
  // (1 + 0.8) * 1.35/193 = 0.0126 cycles/nm needs pixel < ~39.7nm.
  EXPECT_THROW(SocsKernels(small_optics(), 64, 64), Error);
  EXPECT_NO_THROW(SocsKernels(small_optics(), 64, 32));
}

TEST(Kernels, DcComponentPassesForAllKernels) {
  // Every source point lies inside the pupil (sigma <= 1), so the shifted
  // pupil always passes DC — a clear mask must image to nonzero intensity.
  SocsKernels k(small_optics(24), 64, 16);
  for (int i = 0; i < k.count(); ++i) {
    const auto& hat = k.freq_kernel(i);
    EXPECT_GT(std::abs(hat[0]), 0.9f) << "kernel " << i;
  }
}

TEST(Kernels, PupilIsBandlimited) {
  // Frequencies beyond (1 + sigma_out) * cutoff must be rejected.
  const OpticsConfig cfg = small_optics(8);
  SocsKernels k(cfg, 64, 16);
  const double df = 1.0 / (64.0 * 16.0);
  const double fmax = (1.0 + cfg.sigma_outer) * cfg.cutoff();
  for (int i = 0; i < k.count(); ++i) {
    const auto& hat = k.freq_kernel(i);
    for (std::int32_t r = 0; r < 64; ++r) {
      const std::int32_t rr = r <= 32 ? r : r - 64;
      for (std::int32_t c = 0; c < 64; ++c) {
        const std::int32_t cc = c <= 32 ? c : c - 64;
        const double f = std::hypot(rr * df, cc * df);
        if (f > fmax + df) {
          EXPECT_EQ(std::abs(hat[static_cast<std::size_t>(r) * 64 + c]), 0.0f);
        }
      }
    }
  }
}

TEST(Kernels, WeightsMatchSource) {
  SocsKernels k(small_optics(12), 64, 16);
  double sum = 0;
  for (int i = 0; i < k.count(); ++i) sum += k.weight(i);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Kernels, FlippedKernelIndexing) {
  // At 32^2 / 32 nm a kernel spans w = 15 bins per axis, so M = N: the band
  // tables are the full tables and the flip indexes the full grid.
  SocsKernels k(small_optics(4), 32, 32);
  ASSERT_EQ(k.band_grid(), 32);
  for (int i = 0; i < k.count(); ++i) {
    const auto& hat = k.band_kernel(i);
    const auto& flip = k.band_kernel_flipped(i);
    for (std::int32_t r = 0; r < 32; ++r)
      for (std::int32_t c = 0; c < 32; ++c) {
        const std::int32_t nr = (32 - r) % 32, nc = (32 - c) % 32;
        EXPECT_EQ(flip[static_cast<std::size_t>(r) * 32 + c],
                  hat[static_cast<std::size_t>(nr) * 32 + nc]);
      }
  }
}

TEST(Kernels, BandTablesHoldEveryKernelBin) {
  // At 32^2 / 16 nm a kernel spans w = 7 bins per axis, so M = 16: the band
  // copy must carry every nonzero bin of the full table at the same signed
  // frequency, and its flip must index the band grid.
  SocsKernels k(small_optics(4), 32, 16);
  const std::int32_t m = k.band_grid();
  ASSERT_EQ(m, 16);
  for (int i = 0; i < k.count(); ++i) {
    const auto& hat = k.freq_kernel(i);
    const auto& band = k.band_kernel(i);
    const auto& flip = k.band_kernel_flipped(i);
    ASSERT_EQ(band.size(), static_cast<std::size_t>(m) * m);
    int nonzero = 0;
    for (std::int32_t r = 0; r < 32; ++r)
      for (std::int32_t c = 0; c < 32; ++c) {
        const auto v = hat[static_cast<std::size_t>(r) * 32 + c];
        if (v == std::complex<float>{}) continue;
        ++nonzero;
        const std::int32_t fr = r <= 16 ? r : r - 32, fc = c <= 16 ? c : c - 32;
        ASSERT_LT(std::abs(fr), m / 2);
        ASSERT_LT(std::abs(fc), m / 2);
        EXPECT_EQ(band[static_cast<std::size_t>((fr + m) % m) * m + (fc + m) % m], v);
      }
    int band_nonzero = 0;
    for (std::int32_t r = 0; r < m; ++r)
      for (std::int32_t c = 0; c < m; ++c) {
        band_nonzero += band[static_cast<std::size_t>(r) * m + c] != std::complex<float>{};
        EXPECT_EQ(flip[static_cast<std::size_t>(r) * m + c],
                  band[static_cast<std::size_t>((m - r) % m) * m + (m - c) % m]);
      }
    EXPECT_EQ(band_nonzero, nonzero);
  }
}

TEST(Kernels, SpatialKernelEnergyConcentratedAtCenter) {
  // The PSF of a low-pass pupil must concentrate energy near the center
  // after fftshift.
  SocsKernels k(small_optics(4), 128, 16);
  const auto spatial = k.spatial_kernel(0);
  double total = 0, central = 0;
  for (std::int32_t r = 0; r < 128; ++r)
    for (std::int32_t c = 0; c < 128; ++c) {
      const double e = std::norm(spatial[static_cast<std::size_t>(r) * 128 + c]);
      total += e;
      if (std::abs(r - 64) <= 16 && std::abs(c - 64) <= 16) central += e;
    }
  EXPECT_GT(central / total, 0.8);
}

TEST(Kernels, DefocusAddsPhase) {
  OpticsConfig focus = small_optics(4);
  OpticsConfig defocus = focus;
  defocus.defocus_nm = 50.0;
  SocsKernels kf(focus, 64, 16), kd(defocus, 64, 16);
  // Same support, different phases somewhere off-DC.
  const auto& hf = kf.freq_kernel(0);
  const auto& hd = kd.freq_kernel(0);
  bool phase_differs = false;
  for (std::size_t i = 0; i < hf.size(); ++i) {
    EXPECT_NEAR(std::abs(hf[i]), std::abs(hd[i]), 1e-5f);
    if (std::abs(hf[i]) > 0.5f && std::abs(hf[i] - hd[i]) > 1e-3f) phase_differs = true;
  }
  EXPECT_TRUE(phase_differs);
}

// ---------------------------------------------------------------------------
// Band supports and the line-pruned band transforms that read them
// ---------------------------------------------------------------------------

using cfloat = std::complex<float>;

/// The three band-grid regimes: Abbe at M < N (128^2 / 16 nm, M = 64), TCC
/// at M = N, and the golden tier's default optics at 32^2 / 32 nm.
std::vector<SocsKernels> support_cases() {
  std::vector<SocsKernels> sets;
  sets.emplace_back(OpticsConfig{}, 128, 16);
  sets.push_back(make_litho_backend(parse_litho_backend("tcc:8"))
                     ->build(OpticsConfig{}, 128, 16));
  sets.emplace_back(OpticsConfig{}, 32, 32);
  return sets;
}

/// |signed frequency| of unshifted bin i on an m-point axis.
std::int32_t abs_freq(std::size_t i, std::size_t m) {
  return static_cast<std::int32_t>(i <= m / 2 ? i : m - i);
}

TEST(Kernels, BandSupportHoldsEveryNonzeroBin) {
  const std::vector<SocsKernels> sets = support_cases();
  ASSERT_LT(sets[0].band_grid(), sets[0].grid_size());
  ASSERT_EQ(sets[1].band_grid(), sets[1].grid_size());
  ASSERT_EQ(sets[2].band_grid(), sets[2].grid_size());
  for (const SocsKernels& k : sets) {
    const auto m = static_cast<std::size_t>(k.band_grid());
    for (int i = 0; i < k.count(); ++i) {
      const SocsKernels::BandSupport& s = k.band_support(i);
      const fft::Lines frows = s.rows.mirrored(m), fcols = s.cols.mirrored(m);
      const auto& band = k.band_kernel(i);
      const auto& flip = k.band_kernel_flipped(i);
      bool first_row = false, last_row = false;
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < m; ++c) {
          if (band[r * m + c] != cfloat{}) {
            ASSERT_TRUE(s.rows.contains(r, m) && s.cols.contains(c, m))
                << "grid " << k.grid_size() << " kernel " << i << " bin " << r << "," << c;
            first_row |= r == s.rows.begin;
            last_row |= r == (s.rows.begin + s.rows.count - 1) % m;
            EXPECT_LE(std::max(abs_freq(r, m), abs_freq(c, m)), k.band_reach());
          }
          if (flip[r * m + c] != cfloat{}) {
            ASSERT_TRUE(frows.contains(r, m) && fcols.contains(c, m))
                << "grid " << k.grid_size() << " flipped kernel " << i << " bin " << r
                << "," << c;
          }
        }
      // The recorded run is tight: its end rows hold kernel bins.
      EXPECT_TRUE(first_row && last_row) << "grid " << k.grid_size() << " kernel " << i;
    }
  }
}

TEST(Kernels, PrunedBandTransformsMatchFullOnes) {
  // The field IFFT skips the rows outside the kernel's support; the adjoint
  // FFT computes only the flipped kernel's columns (widened to groups of
  // four). Each line they compute must equal the full transform's bitwise.
  Prng rng(31);
  for (const SocsKernels& k : support_cases()) {
    const auto m = static_cast<std::size_t>(k.band_grid());
    for (int i = 0; i < k.count(); i += 3) {
      const SocsKernels::BandSupport& s = k.band_support(i);
      std::vector<cfloat> field(m * m);
      const auto& hat = k.band_kernel(i);
      for (std::size_t j = 0; j < m * m; ++j)
        field[j] = hat[j] * cfloat(static_cast<float>(rng.uniform(-1, 1)),
                                   static_cast<float>(rng.uniform(-1, 1)));
      std::vector<cfloat> full = field;
      fft::fft_2d(full.data(), m, m, true);
      fft::fft_2d(field.data(), m, m, true, s.rows, fft::Lines::all(m));
      EXPECT_EQ(0, std::memcmp(full.data(), field.data(), m * m * sizeof(cfloat)))
          << "field, grid " << k.grid_size() << " kernel " << i;

      std::vector<cfloat> adj(m * m);
      for (auto& v : adj)
        v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
      full = adj;
      const fft::Lines cols = s.cols.mirrored(m).widened(4, m);
      fft::fft_2d(full.data(), m, m, false);
      fft::fft_2d(adj.data(), m, m, false, fft::Lines::all(m), cols);
      for (std::size_t r = 0; r < m; ++r)
        fft::for_each_range(cols, m, [&](std::size_t a, std::size_t b) {
          const std::size_t i = r * m + a;
          EXPECT_EQ(0, std::memcmp(&full[i], &adj[i], (b - a) * sizeof(cfloat)))
              << "adjoint, grid " << k.grid_size() << " kernel " << i << " row " << r;
        });
    }
  }
}

}  // namespace
}  // namespace ganopc::litho

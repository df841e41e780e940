// Hopkins TCC eigendecomposition tests (the [20] SVD route of Eq. (1)).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "geometry/grid.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {
namespace {

OpticsConfig base_optics() {
  OpticsConfig cfg;
  return cfg;
}

// Dense source discretization: the converged-reference operator.
std::vector<SourcePoint> dense_points() {
  return sample_annular_source(base_optics(), 256);
}

TccKernelSet dense_kernels(std::int32_t grid, std::int32_t pixel, int k) {
  return compute_tcc_kernels(base_optics(), grid, pixel, dense_points(), k);
}

geom::Grid wire_mask(std::int32_t grid, std::int32_t pixel) {
  geom::Grid g(grid, grid, pixel);
  for (std::int32_t r = grid / 4; r < 3 * grid / 4; ++r)
    for (std::int32_t c = grid / 2 - 40 / pixel; c < grid / 2 + 40 / pixel; ++c)
      g.at(r, c) = 1.0f;
  return g;
}

TEST(Tcc, EigenvaluesSortedNonNegative) {
  const auto set = dense_kernels(64, 16, 8);
  ASSERT_EQ(set.weights.size(), 8u);
  for (std::size_t i = 0; i < set.weights.size(); ++i) {
    EXPECT_GE(set.weights[i], 0.0f);
    if (i > 0) {
      EXPECT_LE(set.weights[i], set.weights[i - 1] + 1e-5f);
    }
  }
}

TEST(Tcc, CapturedEnergyGrowsWithKernelCount) {
  const auto few = dense_kernels(64, 16, 4);
  const auto more = dense_kernels(64, 16, 12);
  EXPECT_GT(more.captured_energy, few.captured_energy);
  EXPECT_GT(few.captured_energy, 0.3);
  EXPECT_LE(more.captured_energy, 1.0 + 1e-9);
}

TEST(Tcc, OpenFrameIntensityNearOne) {
  // TCC(0,0) = 1 for a normalized source, so sum_k lambda_k |phi_k(0)|^2
  // must approach 1 as kernels accumulate.
  const auto set = dense_kernels(64, 16, 16);
  double open = 0.0;
  for (std::size_t k = 0; k < set.weights.size(); ++k)
    open += set.weights[k] * std::norm(set.kernels_hat[k][0]);
  EXPECT_NEAR(open, 1.0, 0.05);
}

TEST(Tcc, OpenFrameIntensityExactAtFullRank) {
  // At k = S the expansion is the whole operator: sum_k lambda_k |phi_k(0)|^2
  // = TCC(0, 0) = sum_s w_s |P(s)|^2 = 1, up to float kernel storage.
  const auto source = sample_annular_source(base_optics(), 24);
  const auto set = compute_tcc_kernels(base_optics(), 64, 16, source, 24);
  double open = 0.0;
  for (std::size_t k = 0; k < set.weights.size(); ++k)
    open += set.weights[k] * std::norm(set.kernels_hat[k][0]);
  EXPECT_NEAR(open, 1.0, 1e-6);
  EXPECT_NEAR(set.captured_energy, 1.0, 1e-12);
}

TEST(Tcc, FewerKernelsNeededThanAbbe) {
  // The classic result behind production SVD kernels: against a converged
  // reference (32 TCC kernels from a dense 256-point source, capturing
  // essentially the whole operator), a 12-kernel TCC simulator from the same
  // source is closer than a 12-point Abbe simulator.
  OpticsConfig abbe12 = base_optics();
  abbe12.num_kernels = 12;
  auto tcc_sim = [](int k) {
    return LithoSim(SocsKernels(base_optics(), 64, 16, dense_kernels(64, 16, k)),
                    ResistConfig{});
  };
  const LithoSim sim_ref = tcc_sim(32);
  const LithoSim sim_abbe(abbe12, ResistConfig{}, 64, 16);
  const LithoSim sim_tcc = tcc_sim(12);

  const geom::Grid mask = wire_mask(64, 16);
  const geom::Grid ref = sim_ref.aerial(mask);
  const geom::Grid abbe = sim_abbe.aerial(mask);
  const geom::Grid tcc = sim_tcc.aerial(mask);

  double err_abbe = 0.0, err_tcc = 0.0;
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    err_abbe += std::pow(static_cast<double>(abbe.data[i]) - ref.data[i], 2);
    err_tcc += std::pow(static_cast<double>(tcc.data[i]) - ref.data[i], 2);
  }
  EXPECT_LT(err_tcc, err_abbe);
}

TEST(Tcc, WorksThroughFullPipeline) {
  const LithoSim sim(TccBackend(8, /*min_captured_energy=*/0.0)
                         .build(base_optics(), 64, 16),
                     ResistConfig{});
  EXPECT_EQ(sim.kernels().count(), 8);
  EXPECT_GT(sim.threshold(), 0.1f);
  EXPECT_LT(sim.threshold(), 0.5f);
  const geom::Grid mask = wire_mask(64, 16);
  const geom::Grid wafer = sim.simulate(mask);
  std::int64_t on = 0;
  for (float v : wafer.data) on += v >= 0.5f;
  EXPECT_GT(on, 0);
  // Gradient path also runs (flipped kernels present).
  const geom::Grid grad = sim.gradient(mask, mask);
  EXPECT_EQ(grad.rows, 64);
}

TEST(Tcc, RejectsBadParameters) {
  EXPECT_THROW(dense_kernels(100, 16, 8), Error);  // not pow2
  EXPECT_THROW(dense_kernels(64, 64, 8), Error);   // too coarse
  EXPECT_THROW(dense_kernels(64, 16, 0), Error);
  EXPECT_THROW(dense_kernels(64, 16, 257), Error);  // above the operator rank
}

TEST(Tcc, DeterministicAcrossCalls) {
  // Kernels too, not just eigenvalues, must be bitwise reproducible over the
  // explicit 256-point source: the equivalence tier and the batch journal
  // both assume identical kernels per configuration.
  const auto a = dense_kernels(32, 32, 4);
  const auto b = dense_kernels(32, 32, 4);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  ASSERT_EQ(a.kernels_hat.size(), b.kernels_hat.size());
  EXPECT_EQ(a.captured_energy, b.captured_energy);
  EXPECT_EQ(a.trace, b.trace);
  for (std::size_t k = 0; k < a.kernels_hat.size(); ++k) {
    EXPECT_EQ(a.weights[k], b.weights[k]);
    ASSERT_EQ(a.kernels_hat[k].size(), b.kernels_hat[k].size());
    for (std::size_t i = 0; i < a.kernels_hat[k].size(); ++i)
      EXPECT_EQ(a.kernels_hat[k][i], b.kernels_hat[k][i]) << "kernel " << k;
  }
}

TEST(Tcc, CapturedEnergyMonotoneInKernelCount) {
  // Retained trace fraction is a prefix sum of a fixed nonnegative spectrum:
  // it must be nondecreasing in k, and each set's own weights nonincreasing.
  double previous = 0.0;
  for (const int k : {2, 4, 8, 12, 16}) {
    const auto set = dense_kernels(64, 16, k);
    ASSERT_EQ(set.weights.size(), static_cast<std::size_t>(k));
    for (std::size_t i = 1; i < set.weights.size(); ++i)
      EXPECT_LE(set.weights[i], set.weights[i - 1] + 1e-5f) << "k=" << k;
    EXPECT_GE(set.captured_energy, previous - 1e-6) << "k=" << k;
    EXPECT_LE(set.captured_energy, 1.0 + 1e-9);
    previous = set.captured_energy;
  }
}

TEST(Tcc, RejectsPoisonedOptics) {
  // NaN compares false against every range bound, so finiteness must be an
  // explicit gate — otherwise it silently poisons the whole eigensolve.
  OpticsConfig nan_defocus = base_optics();
  nan_defocus.defocus_nm = std::nan("");
  EXPECT_THROW(compute_tcc_kernels(nan_defocus, 64, 16, dense_points(), 8), Error);

  OpticsConfig inf_na = base_optics();
  inf_na.na = std::numeric_limits<double>::infinity();
  EXPECT_THROW(compute_tcc_kernels(inf_na, 64, 16, dense_points(), 8), Error);

  OpticsConfig nan_sigma = base_optics();
  nan_sigma.sigma_outer = std::nan("");
  EXPECT_THROW(compute_tcc_kernels(nan_sigma, 64, 16, dense_points(), 8), Error);

  // The source points are validated too.
  auto poisoned_points = sample_annular_source(base_optics(), 24);
  poisoned_points[3].fx = std::nan("");
  EXPECT_THROW(compute_tcc_kernels(base_optics(), 64, 16, poisoned_points, 8),
               Error);
}

}  // namespace
}  // namespace ganopc::litho

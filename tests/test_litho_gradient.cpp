// Validation of the Eq. (14) gradient: finite differences and descent,
// including the workspace/batched code path and the dose-corner (PV-aware)
// objective.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "gradcheck.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::litho {
namespace {

LithoSim small_sim() {
  OpticsConfig optics;
  optics.num_kernels = 6;
  return LithoSim(optics, ResistConfig{}, 32, 32);
}

// 64^2 at 16 nm: the kernels fit the 32^2 band grid, so these cases exercise
// the band-limited forward/adjoint path (crop, low-pass, upsample, padded
// inverse). small_sim() runs at M = N.
LithoSim band_sim() {
  OpticsConfig optics;
  optics.num_kernels = 6;
  LithoSim sim(optics, ResistConfig{}, 64, 16);
  EXPECT_EQ(sim.kernels().band_grid(), 32);
  return sim;
}

geom::Grid center_block(std::int32_t grid, std::int32_t pixel) {
  geom::Grid g(grid, grid, pixel);
  for (std::int32_t r = grid / 4; r < 3 * grid / 4; ++r)
    for (std::int32_t c = grid * 3 / 8; c < grid * 5 / 8; ++c) g.at(r, c) = 1.0f;
  return g;
}

// A smooth mask strictly inside (0, 1) so the sigmoid resist is sensitive.
geom::Grid soft_mask(const geom::Grid& target) {
  geom::Grid mask = target;
  for (auto& v : mask.data) v = 0.2f + 0.6f * v;
  return mask;
}

void expect_matches_finite_differences(const LithoSim& sim, std::uint64_t seed,
                                       float eps = 3e-3f, float min_grad = 1e-2f) {
  const geom::Grid target = center_block(sim.grid_size(), sim.pixel_nm());
  const geom::Grid mask = soft_mask(target);
  const geom::Grid grad = sim.gradient(mask, target);
  Prng rng(seed);
  testing::check_grid_gradient(
      [&](const geom::Grid& m) { return sim.forward_relaxed(m, target).error; }, mask,
      grad, rng, /*probes=*/20, eps, /*rel_tol=*/5e-2f, min_grad);
}

// The PV-aware objective: mean over dose corners of ||Z_d - Z_t||^2. The
// fused gradient_into shares one forward-field pass across corners; its
// output must still match finite differences of the summed objective.
void expect_multi_dose_matches_finite_differences(const LithoSim& sim,
                                                  std::uint64_t seed,
                                                  float eps = 3e-3f,
                                                  float min_grad = 1e-2f) {
  const geom::Grid target = center_block(sim.grid_size(), sim.pixel_nm());
  const geom::Grid mask = soft_mask(target);
  const std::vector<float> doses = {0.95f, 1.0f, 1.05f};

  LithoWorkspace ws;
  geom::Grid grad;
  sim.gradient_into(mask, target, doses, grad, ws);

  auto loss = [&](const geom::Grid& m) {
    double total = 0.0;
    for (const float d : doses) total += sim.forward_relaxed(m, target, d).error;
    return total / static_cast<double>(doses.size());
  };
  Prng rng(seed);
  testing::check_grid_gradient(loss, mask, grad, rng, /*probes=*/20, eps,
                               /*rel_tol=*/5e-2f, min_grad);
}

// gradient() is a thin wrapper over gradient_into with a per-thread
// workspace; an explicit (reused) workspace must produce identical bits, and
// a warm workspace must not grow.
void expect_workspace_path_matches_wrapper(const LithoSim& sim) {
  const geom::Grid target = center_block(sim.grid_size(), sim.pixel_nm());
  const geom::Grid mask = soft_mask(target);
  const geom::Grid via_wrapper = sim.gradient(mask, target);

  LithoWorkspace ws;
  geom::Grid via_ws;
  const float doses[1] = {1.0f};
  sim.gradient_into(mask, target, doses, via_ws, ws);
  const std::size_t before = ws.bytes();
  geom::Grid again;
  sim.gradient_into(mask, target, doses, again, ws);

  ASSERT_EQ(via_ws.data.size(), via_wrapper.data.size());
  EXPECT_EQ(0, std::memcmp(via_ws.data.data(), via_wrapper.data.data(),
                           via_ws.data.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(again.data.data(), via_ws.data.data(),
                           via_ws.data.size() * sizeof(float)));
  // Warm workspace: the second call must not have grown the scratch buffers.
  EXPECT_EQ(ws.bytes(), before);
}

TEST(LithoGradient, MatchesFiniteDifferences) {
  expect_matches_finite_differences(small_sim(), 3);
}

TEST(LithoGradient, WorkspacePathMatchesWrapperBitExactly) {
  expect_workspace_path_matches_wrapper(small_sim());
}

TEST(LithoGradient, MultiDoseMatchesFiniteDifferences) {
  expect_multi_dose_matches_finite_differences(small_sim(), 7);
}

// At 16 nm a pixel carries a quarter of the 32 nm pixel's area, so per-pixel
// gradients are ~4x smaller while the float rounding of the summed objective
// is not: the band-grid checks probe with a larger step and only pixels whose
// gradient clears that noise floor (the full-grid path needs the same).
TEST(LithoGradient, BandGridMatchesFiniteDifferences) {
  expect_matches_finite_differences(band_sim(), 11, 2e-2f, 2.5e-2f);
}

TEST(LithoGradient, BandGridWorkspacePathMatchesWrapperBitExactly) {
  expect_workspace_path_matches_wrapper(band_sim());
}

TEST(LithoGradient, BandGridMultiDoseMatchesFiniteDifferences) {
  expect_multi_dose_matches_finite_differences(band_sim(), 13, 2e-2f, 2.5e-2f);
}

TEST(LithoGradient, MultiDoseAveragesSingleDoseGradients) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);

  LithoWorkspace ws;
  geom::Grid fused;
  const std::vector<float> doses = {0.97f, 1.03f};
  sim.gradient_into(mask, target, doses, fused, ws);
  const geom::Grid lo = sim.gradient(mask, target, 0.97f);
  const geom::Grid hi = sim.gradient(mask, target, 1.03f);
  for (std::size_t i = 0; i < fused.data.size(); ++i) {
    const float avg = 0.5f * (lo.data[i] + hi.data[i]);
    EXPECT_NEAR(fused.data[i], avg, 1e-6f + 1e-5f * std::fabs(avg)) << i;
  }
}

TEST(LithoGradient, DescentStepReducesError) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);

  const double e0 = sim.forward_relaxed(mask, target).error;
  const geom::Grid grad = sim.gradient(mask, target);
  float max_abs = 0.0f;
  for (float v : grad.data) max_abs = std::max(max_abs, std::fabs(v));
  ASSERT_GT(max_abs, 0.0f);
  geom::Grid stepped = mask;
  const float lr = 0.05f / max_abs;
  for (std::size_t i = 0; i < mask.data.size(); ++i) {
    stepped.data[i] = std::clamp(mask.data[i] - lr * grad.data[i], 0.0f, 1.0f);
  }
  const double e1 = sim.forward_relaxed(stepped, target).error;
  EXPECT_LT(e1, e0);
}

TEST(LithoGradient, DoseCornerDescentReducesPvObjective) {
  // One steepest-descent step on the dose-corner objective must reduce the
  // summed corner error — the property the PV-aware ILT mode relies on.
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid mask = soft_mask(target);
  const std::vector<float> doses = {0.95f, 1.05f};

  auto objective = [&](const geom::Grid& m) {
    double total = 0.0;
    for (const float d : doses) total += sim.forward_relaxed(m, target, d).error;
    return total;
  };

  LithoWorkspace ws;
  geom::Grid grad;
  sim.gradient_into(mask, target, doses, grad, ws);
  float max_abs = 0.0f;
  for (float v : grad.data) max_abs = std::max(max_abs, std::fabs(v));
  ASSERT_GT(max_abs, 0.0f);
  geom::Grid stepped = mask;
  const float lr = 0.05f / max_abs;
  for (std::size_t i = 0; i < mask.data.size(); ++i)
    stepped.data[i] = std::clamp(mask.data[i] - lr * grad.data[i], 0.0f, 1.0f);
  EXPECT_LT(objective(stepped), objective(mask));
}

TEST(LithoGradient, ZeroWhereWaferMatchesTargetExactly) {
  // If Z == Z_t everywhere (error 0), the gradient must vanish.
  const LithoSim sim = small_sim();
  geom::Grid mask(32, 32, 32);
  for (auto& v : mask.data) v = 1.0f;  // open frame
  geom::Grid target(32, 32, 32);
  const auto fwd = sim.forward_relaxed(mask, target);
  // Z_relaxed saturates to ~1 (open frame, I >> threshold); set the target
  // to that wafer so the residual is identically zero.
  const geom::Grid grad = sim.gradient(mask, fwd.wafer_relaxed);
  for (float v : grad.data) EXPECT_NEAR(v, 0.0f, 1e-6f);
}

TEST(LithoGradient, WorkspaceHoldsEveryFieldButOneGroupOfAdjointSpectra) {
  // On one thread the SOCS passes run kernel-major: a gradient keeps all K
  // coherent fields (every dose corner re-reads them) but one adjoint
  // spectrum, and an aerial image needs one field. On a pool every kernel is
  // one group, so both passes hold K.
  const LithoSim sim(OpticsConfig{}, ResistConfig{}, 128, 16);
  const std::size_t n = 128, m = 64, k = 24, fine = 1024;
  ASSERT_EQ(static_cast<std::size_t>(sim.kernels().band_grid()), m);
  ASSERT_EQ(static_cast<std::size_t>(sim.kernels().count()), k);
  const std::size_t band = m * m * sizeof(fft::cfloat);
  // Forward: spec (N^2), mask_hat and band_spec (M^2) spectra; band_real
  // (M^2) and the weights (K) in float; acc (M^2) in double.
  const std::size_t forward = (n * n + 2 * m * m) * sizeof(fft::cfloat) +
                              (m * m + k) * sizeof(float) + m * m * sizeof(double);
  // Gradient: dE/dI and the aerial scratch (N^2 floats each).
  const std::size_t adjoint = 2 * n * n * sizeof(float);
  // pv_band: the 2 nm field (1024^2 floats) and its spectrum.
  const std::size_t upsample = fine * fine * (sizeof(float) + sizeof(fft::cfloat));
  const geom::Grid target = center_block(128, 16);
  const geom::Grid mask = soft_mask(target);
  const std::vector<float> doses = {0.98f, 1.0f, 1.02f};
  for (const std::size_t t : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    ThreadPool::reset(t);
    const std::size_t group = t == 1 ? 1 : k;
    LithoWorkspace ws;
    geom::Grid grad;
    sim.gradient_into(mask, target, doses, grad, ws);
    EXPECT_EQ(ws.fields.size(), k) << t << " threads";
    EXPECT_EQ(ws.adjoint.size(), group) << t << " threads";
    EXPECT_LE(ws.bytes(), (k + group) * band + forward + adjoint) << t << " threads";

    // aerial() and pv_band() use the calling thread's workspace; a fresh
    // thread starts with an empty one. An aerial image holds no adjoint
    // buffers, and pv_band adds its 2 nm field for the thread's life.
    std::thread([&] {
      (void)sim.aerial(mask);
      const LithoWorkspace& tws = thread_workspace();
      EXPECT_EQ(tws.fields.size(), group) << t << " threads";
      EXPECT_TRUE(tws.adjoint.empty()) << t << " threads";
      EXPECT_LE(tws.bytes(), group * band + forward) << t << " threads";
      (void)sim.pv_band(mask);
      EXPECT_EQ(tws.fields.size(), group) << t << " threads";
      EXPECT_LE(tws.bytes(), group * band + forward + upsample) << t << " threads";
    }).join();
  }
  ThreadPool::reset(ThreadPool::default_thread_count());
}

TEST(LithoGradient, GradientGeometryMatchesMask) {
  const LithoSim sim = small_sim();
  const geom::Grid target = center_block(32, 32);
  const geom::Grid grad = sim.gradient(target, target);
  EXPECT_EQ(grad.rows, 32);
  EXPECT_EQ(grad.cols, 32);
  EXPECT_EQ(grad.pixel_nm, 32);
}

}  // namespace
}  // namespace ganopc::litho

// Ablation: Abbe source-point kernels vs Hopkins TCC eigen-kernels (Eq. 1).
//
// Production simulators (like the contest's lithosim_v4) ship SVD kernels
// because the TCC eigenbasis is the optimal coherent decomposition: for the
// same kernel budget it captures more of the operator than direct source
// sampling. Part 1 sweeps the kernel count for both factories — Abbe at k
// source points (AbbeBackend) and the top k eigen-kernels of a dense
// 256-point source (compute_tcc_kernels) — and reports aerial-image RMS error
// against a converged TCC-32 reference of that dense source, plus the
// one-time kernel build cost.
//
// Part 2 measures what the `tcc` backend's truncation costs in mask quality:
// ILT solves through `tcc:<k>` on the equivalence tier's dense three-wire
// clip (and the same drawing at half scale), each mask scored under the
// Abbe reference next to the Abbe-optimized mask.
#include <cmath>
#include <cstdio>

#include "common/csv.hpp"
#include "common/timer.hpp"
#include "geometry/raster.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"

namespace {

using namespace ganopc;

void kernel_sweep() {
  geom::Layout clip(geom::Rect{0, 0, 2048, 2048});
  clip.add({800, 400, 880, 1600});
  clip.add({1020, 400, 1100, 1200});
  clip.add({1240, 700, 1320, 1600});
  const geom::Grid mask = geom::rasterize(clip, 16, /*threshold=*/true);

  const litho::OpticsConfig optics;
  const auto dense = litho::sample_annular_source(optics, 256);
  auto tcc_sim = [&](int kernels, double& build_s) {
    WallTimer t;
    litho::LithoSim sim(litho::SocsKernels(optics, 128, 16,
                                           litho::compute_tcc_kernels(
                                               optics, 128, 16, dense, kernels)),
                        litho::ResistConfig{});
    build_s = t.seconds();
    return sim;
  };
  auto abbe_sim = [&](int kernels, double& build_s) {
    litho::OpticsConfig points = optics;
    points.num_kernels = kernels;
    WallTimer t;
    litho::LithoSim sim(litho::AbbeBackend().build(points, 128, 16),
                        litho::ResistConfig{});
    build_s = t.seconds();
    return sim;
  };

  double ref_build = 0.0;
  const geom::Grid ref_aerial = tcc_sim(32, ref_build).aerial(mask);
  auto rms_vs_ref = [&](const litho::LithoSim& sim) {
    const geom::Grid aerial = sim.aerial(mask);
    double sq = 0.0;
    for (std::size_t i = 0; i < aerial.data.size(); ++i)
      sq += std::pow(static_cast<double>(aerial.data[i]) - ref_aerial.data[i], 2);
    return std::sqrt(sq / static_cast<double>(aerial.data.size()));
  };

  CsvWriter csv("ablation_kernel_method.csv",
                {"kernels", "abbe_rms", "abbe_build_s", "tcc_rms", "tcc_build_s"});
  std::printf("%-8s | %12s %10s | %12s %10s\n", "kernels", "Abbe RMS", "build(s)",
              "TCC RMS", "build(s)");
  for (const int k : {4, 8, 12, 16, 24}) {
    double abbe_build = 0.0, tcc_build = 0.0;
    const double abbe_rms = rms_vs_ref(abbe_sim(k, abbe_build));
    const double tcc_rms = rms_vs_ref(tcc_sim(k, tcc_build));
    std::printf("%-8d | %12.6f %10.3f | %12.6f %10.3f\n", k, abbe_rms, abbe_build,
                tcc_rms, tcc_build);
    csv.row_numeric({static_cast<double>(k), abbe_rms, abbe_build, tcc_rms, tcc_build});
  }
}

// The equivalence tier's dense clip: three wires, the middle one notched.
geom::Grid dense_target(std::int32_t pixel) {
  geom::Grid g(64, 64, pixel);
  for (std::int32_t r = 10; r < 54; ++r)
    for (const std::int32_t c : {14, 30, 46})
      for (std::int32_t d = 0; d < 6; ++d) g.at(r, c + d) = 1.0f;
  for (std::int32_t r = 28; r < 34; ++r)
    for (std::int32_t c = 30; c < 33; ++c) g.at(r, c) = 0.0f;
  return g;
}

void truncation_sweep(std::int32_t pixel, CsvWriter& csv) {
  const litho::OpticsConfig optics;
  const geom::Grid target = dense_target(pixel);
  const litho::LithoSim abbe(litho::AbbeBackend().build(optics, 64, pixel),
                             litho::ResistConfig{});
  ilt::IltConfig cfg;
  cfg.max_iterations = 30;
  cfg.check_every = 5;
  // Every mask is scored twice: by the model it was optimized under (what a
  // `tcc:<k>` session reports) and by the Abbe reference (what it prints).
  struct Score {
    double self_pvb, l2, pvb;
  };
  auto solve = [&](const litho::LithoSim& sim) {
    const geom::Grid mask = ilt::IltEngine(sim, cfg).optimize(target).mask;
    const geom::Grid print = abbe.simulate(mask);
    double l2 = 0.0;
    for (std::size_t i = 0; i < print.data.size(); ++i)
      l2 += std::pow(static_cast<double>(print.data[i]) - target.data[i], 2);
    return Score{static_cast<double>(sim.pv_band(mask).area_nm2), l2,
                 static_cast<double>(abbe.pv_band(mask).area_nm2)};
  };
  const Score ref = solve(abbe);

  std::printf("\nILT on the dense 3-wire clip (64x64 @ %d nm, 30 iterations), "
              "Abbe-optimized: L2 %.0f px, PVB %.0f nm^2\n",
              pixel, ref.l2, ref.pvb);
  std::printf("%-8s | %8s | %12s | %12s %12s\n", "kernels", "energy", "self PVB",
              "Abbe L2 px", "Abbe PVB");
  for (const int k : {8, 12, 16, 21, 24}) {
    const litho::SocsKernels kernels =
        litho::TccBackend(k, /*min_captured_energy=*/0.0).build(optics, 64, pixel);
    const double energy = kernels.captured_energy();
    const Score s = solve(litho::LithoSim(kernels, litho::ResistConfig{}));
    std::printf("%-8d | %8.5f | %12.0f | %12.0f %12.0f\n", k, energy, s.self_pvb, s.l2,
                s.pvb);
    csv.row_numeric(
        {static_cast<double>(pixel), static_cast<double>(k), energy, s.self_pvb, s.l2, s.pvb});
  }
}

}  // namespace

int main() {
  std::printf("== Ablation: Abbe sampling vs TCC eigen-kernels ==\n\n");
  kernel_sweep();
  // 32 nm is the equivalence tier's clip; at 16 nm the same drawing is
  // half-size and ILT has to work for its print.
  CsvWriter csv("ablation_tcc_floor.csv", {"pixel_nm", "kernels", "captured_energy",
                                           "self_pvb_nm2", "abbe_l2_px", "abbe_pvb_nm2"});
  truncation_sweep(32, csv);
  truncation_sweep(16, csv);
  std::printf("\nTCC kernels buy accuracy per kernel at a one-time eigensolve cost\n"
              "(amortized over every later simulation). wrote "
              "ablation_kernel_method.csv, ablation_tcc_floor.csv\n");
  return 0;
}

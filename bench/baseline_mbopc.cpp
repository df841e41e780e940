// Baseline comparison (§1): model-based OPC vs ILT on the benchmark suite.
//
// The paper motivates ILT (and hence GAN-OPC) by noting that model-based
// flows "are highly restricted by their solution space". This bench
// quantifies that on our suite: MB-OPC converges in a couple of cheap
// iterations but leaves far more squared-L2 than the pixel-based ILT. ILT
// runs as a single-rung Engine submit; MB-OPC is called directly so its
// column measures that algorithm alone.
#include <cstdio>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "geometry/raster.hpp"
#include "layout/benchmark_suite.hpp"
#include "mbopc/mbopc.hpp"

int main() {
  using namespace ganopc;
  const core::GanOpcConfig cfg = bench::bench_config();
  std::printf("== Baseline: model-based OPC vs ILT ==\n\n");

  const engine::Engine ilt_eng(bench::single_solve_options(cfg));
  const litho::LithoSim& sim = ilt_eng.sim();
  mbopc::MbOpcConfig mb_cfg;
  const mbopc::MbOpcEngine mb_engine(sim, mb_cfg);

  const auto suite = layout::make_benchmark_suite(cfg.clip_nm);
  CsvWriter csv("baseline_mbopc.csv",
                {"case", "uncorrected_l2", "mbopc_l2", "mbopc_rt", "ilt_l2", "ilt_rt"});
  std::printf("%-4s | %12s | %10s %8s | %10s %8s\n", "ID", "uncorrected",
              "MB-OPC L2", "RT(s)", "ILT L2", "RT(s)");
  double sum_unc = 0, sum_mb = 0, sum_ilt = 0;
  const double px_area =
      static_cast<double>(sim.pixel_nm()) * static_cast<double>(sim.pixel_nm());
  for (const auto& bc : suite) {
    const geom::Grid target =
        geom::rasterize(bc.layout, cfg.litho_pixel_nm(), /*threshold=*/true);
    const double uncorrected = sim.l2_error(target, target) * px_area;
    const mbopc::MbOpcResult mb = mb_engine.optimize(bc.layout);
    const engine::MaskResult ilt = bench::solve(ilt_eng, bc.layout, "ilt");
    const double mb_l2 = mb.l2_px * px_area;
    std::printf("%-4d | %12.0f | %10.0f %8.2f | %10.0f %8.2f\n", bc.id, uncorrected,
                mb_l2, mb.runtime_s, ilt.row.l2_nm2, ilt.ilt_s);
    csv.row_numeric({static_cast<double>(bc.id), uncorrected, mb_l2, mb.runtime_s,
                     ilt.row.l2_nm2, ilt.ilt_s});
    sum_unc += uncorrected;
    sum_mb += mb_l2;
    sum_ilt += ilt.row.l2_nm2;
  }
  std::printf("%-4s | %12.0f | %10.0f %8s | %10.0f %8s\n", "avg", sum_unc / 10,
              sum_mb / 10, "", sum_ilt / 10, "");
  std::printf("\nMB-OPC improves on the uncorrected mask but cannot reach ILT's\n"
              "pixel-level optimum — the restricted-solution-space gap the paper\n"
              "cites as motivation (wrote baseline_mbopc.csv)\n");
  return 0;
}

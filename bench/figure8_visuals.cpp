// Figure 8 + Figure 9 reproduction: per-case visualization panels.
//
// For each of the 10 benchmark cases, writes PGM images matching the rows of
// Figure 8: (a) ILT mask, (b) PGAN-OPC mask, (c) ILT wafer, (d) PGAN-OPC
// wafer, (e) target — and prints the Figure 9-style defect comparison
// (line-end pullback / bridging shows up as EPE + break/bridge counts).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/image_io.hpp"
#include "geometry/raster.hpp"
#include "layout/benchmark_suite.hpp"
#include "metrics/defects.hpp"
#include "metrics/epe.hpp"

int main() {
  using namespace ganopc;
  const core::GanOpcConfig cfg = bench::bench_config();
  std::printf("== Figure 8/9: mask and wafer visualization panels ==\n\n");

  const engine::Engine ilt_eng(bench::single_solve_options(cfg));
  const litho::LithoSim& sim = ilt_eng.sim();
  const core::Dataset dataset = bench::get_dataset(cfg, sim);
  core::Generator pgan = bench::get_generator(cfg, sim, dataset, /*pretrained=*/true);
  const engine::Engine pgan_eng(bench::single_solve_options(cfg, &pgan));

  const auto suite = layout::make_benchmark_suite(cfg.clip_nm);

  const auto dump = [](const geom::Grid& g, const std::string& name) {
    write_pgm(name, to_gray(g.data.data(), g.cols, g.rows));
  };

  std::printf("%-4s | %-22s | %-22s\n", "ID", "ILT [7] EPEV/neck/brk/brdg",
              "PGAN-OPC EPEV/neck/brk/brdg");
  for (const auto& bc : suite) {
    const geom::Grid ilt_mask = bench::solve(ilt_eng, bc.layout, "ilt").mask;
    const geom::Grid pgan_mask = bench::solve(pgan_eng, bc.layout, "gan+ilt").mask;
    const geom::Grid ilt_wafer = sim.simulate(ilt_mask);
    const geom::Grid pgan_wafer = sim.simulate(pgan_mask);
    const geom::Grid tg =
        geom::rasterize(bc.layout, cfg.litho_pixel_nm(), /*threshold=*/true);
    const std::string tag = "figure8_case" + std::to_string(bc.id);
    dump(ilt_mask, tag + "_a_ilt_mask.pgm");
    dump(pgan_mask, tag + "_b_pgan_mask.pgm");
    dump(ilt_wafer, tag + "_c_ilt_wafer.pgm");
    dump(pgan_wafer, tag + "_d_pgan_wafer.pgm");
    dump(tg, tag + "_e_target.pgm");

    // Figure 9: defect details of both flows.
    const auto count = [&](const geom::Grid& wafer) {
      const auto epe = metrics::measure_epe(bc.layout, wafer);
      const auto necks = metrics::detect_necks(bc.layout, wafer);
      const auto breaks = metrics::detect_breaks(tg, wafer);
      const auto bridges = metrics::detect_bridges(tg, wafer);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%3d / %2zu / %2zu / %2zu", epe.violations,
                    necks.size(), breaks.size(), bridges.size());
      return std::string(buf);
    };
    std::printf("%-4d | %-26s | %-26s\n", bc.id, count(ilt_wafer).c_str(),
                count(pgan_wafer).c_str());
  }
  std::printf("\nwrote figure8_case<N>_{a..e}_*.pgm (5 panels x 10 cases)\n");
  return 0;
}

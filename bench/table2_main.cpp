// Table 2 reproduction: per-case squared L2 / PVB / runtime for the ILT [7]
// baseline, GAN-OPC and PGAN-OPC on the 10-case benchmark suite.
//
// The suite stands in for the ICCAD-2013 contest clips (areas match the
// paper's Area column); the lithography engine is the Abbe-kernel Hopkins
// model; absolute numbers therefore differ from the paper, but the *shape*
// — GAN flows cutting runtime roughly in half at equal-or-better L2, PGAN
// edging out GAN — is the reproduction target. Paper ratios are printed
// alongside for comparison. Each flow is one Engine session solving exactly
// one rung per clip (bench::single_solve_options); RT is generator inference
// plus ILT refinement of that solve.
//
// Scale via GANOPC_SCALE=quick|default|paper (default: bench scale).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "layout/benchmark_suite.hpp"

namespace {

double run_seconds(const ganopc::engine::MaskResult& r) { return r.generator_s + r.ilt_s; }

struct Row {
  double l2 = 0.0, pvb = 0.0, rt = 0.0;

  void add(const ganopc::engine::MaskResult& r) {
    l2 += r.row.l2_nm2;
    pvb += static_cast<double>(r.row.pvb_nm2);
    rt += run_seconds(r);
  }
};

}  // namespace

int main() {
  using namespace ganopc;
  const core::GanOpcConfig cfg = bench::bench_config();
  std::printf("== Table 2: comparison with the ILT baseline ==\n");
  std::printf("geometry: litho %d @%dnm, gan %d; ILT budget %d iters\n\n",
              cfg.litho_grid, cfg.litho_pixel_nm(), cfg.gan_grid,
              cfg.ilt.max_iterations);

  const engine::Engine ilt_eng(bench::single_solve_options(cfg));
  const litho::LithoSim& sim = ilt_eng.sim();
  const core::Dataset dataset = bench::get_dataset(cfg, sim);
  core::Generator gan = bench::get_generator(cfg, sim, dataset, /*pretrained=*/false);
  core::Generator pgan = bench::get_generator(cfg, sim, dataset, /*pretrained=*/true);
  const engine::Engine gan_eng(bench::single_solve_options(cfg, &gan));
  const engine::Engine pgan_eng(bench::single_solve_options(cfg, &pgan));

  const auto suite = layout::make_benchmark_suite(cfg.clip_nm);

  CsvWriter csv("table2_results.csv",
                {"case", "area_nm2", "ilt_l2", "ilt_pvb", "ilt_rt", "gan_l2", "gan_pvb",
                 "gan_rt", "pgan_l2", "pgan_pvb", "pgan_rt"});

  std::printf("%-4s %-9s | %9s %9s %7s | %9s %9s %7s | %9s %9s %7s\n", "ID",
              "Area", "ILT L2", "PVB", "RT(s)", "GAN L2", "PVB", "RT(s)", "PGAN L2",
              "PVB", "RT(s)");
  Row ilt_sum, gan_sum, pgan_sum;
  for (const auto& bc : suite) {
    const engine::MaskResult r_ilt = bench::solve(ilt_eng, bc.layout, "ilt");
    const engine::MaskResult r_gan = bench::solve(gan_eng, bc.layout, "gan+ilt");
    const engine::MaskResult r_pgan = bench::solve(pgan_eng, bc.layout, "gan+ilt");
    const engine::BatchClipResult &ilt = r_ilt.row, &g = r_gan.row, &pg = r_pgan.row;
    std::printf("%-4d %-9ld | %9.0f %9ld %7.2f | %9.0f %9ld %7.2f | %9.0f %9ld %7.2f\n",
                bc.id, static_cast<long>(bc.layout.union_area()), ilt.l2_nm2,
                static_cast<long>(ilt.pvb_nm2), run_seconds(r_ilt), g.l2_nm2,
                static_cast<long>(g.pvb_nm2), run_seconds(r_gan), pg.l2_nm2,
                static_cast<long>(pg.pvb_nm2), run_seconds(r_pgan));
    csv.row_numeric({static_cast<double>(bc.id),
                     static_cast<double>(bc.layout.union_area()), ilt.l2_nm2,
                     static_cast<double>(ilt.pvb_nm2), run_seconds(r_ilt), g.l2_nm2,
                     static_cast<double>(g.pvb_nm2), run_seconds(r_gan), pg.l2_nm2,
                     static_cast<double>(pg.pvb_nm2), run_seconds(r_pgan)});
    ilt_sum.add(r_ilt);
    gan_sum.add(r_gan);
    pgan_sum.add(r_pgan);
  }
  const double n = static_cast<double>(suite.size());
  std::printf("%-14s | %9.1f %9.1f %7.2f | %9.1f %9.1f %7.2f | %9.1f %9.1f %7.2f\n",
              "Average", ilt_sum.l2 / n, ilt_sum.pvb / n, ilt_sum.rt / n,
              gan_sum.l2 / n, gan_sum.pvb / n, gan_sum.rt / n, pgan_sum.l2 / n,
              pgan_sum.pvb / n, pgan_sum.rt / n);
  std::printf("%-14s | %9s %9s %7s | %9.3f %9.3f %7.3f | %9.3f %9.3f %7.3f\n",
              "Ratio (ours)", "1.000", "1.000", "1.000", gan_sum.l2 / ilt_sum.l2,
              gan_sum.pvb / ilt_sum.pvb, gan_sum.rt / ilt_sum.rt,
              pgan_sum.l2 / ilt_sum.l2, pgan_sum.pvb / ilt_sum.pvb,
              pgan_sum.rt / ilt_sum.rt);
  std::printf("%-14s | %9s %9s %7s | %9.3f %9.3f %7.3f | %9.3f %9.3f %7.3f\n",
              "Ratio (paper)", "1.000", "1.000", "1.000", 0.911, 0.993, 0.488, 0.908,
              0.981, 0.471);
  std::printf("\nwrote table2_results.csv\n");
  return 0;
}

// bench_regress: perf-regression baseline emitter (DESIGN.md §10).
//
// Runs a fixed, deterministic litho workload, a short ILT run and a set of
// layer kernels with the obs layer enabled, then dumps the per-stage timing
// distributions straight from the obs histograms:
//   BENCH_litho.json  — simulate / simulate_batch / gradient / aerial /
//                       pv_band stage timings + FFT plan-cache hit rate
//   BENCH_ilt.json    — ilt.optimize timing, iteration count, terminations
//   BENCH_layers.json — the layers under those stages: complex 2-D FFT
//                       pairs, pv_band's upsample, the gradient's dE/dI
//                       pass, square SGEMM, generator inference and the
//                       fused 3-dose gradient (DESIGN.md §10 lists the rows)
// The litho and ILT files also carry "[tcc]"-labeled rows: the same workload
// through the truncated-TCC backend (`tcc:8`), so the serving backend's cost
// and solution quality are gated next to the Abbe reference. On the
// band-limited SOCS grid TCC is no faster than Abbe: at --grid 128 its
// kernels, spanning the union of pupil shifts, keep the band grid M = 128
// while the Abbe set runs at M = 64, and the committed `litho.gradient` p50s
// are equal (EXPERIMENTS.md).
// Each stage entry carries {count, sum_s, p50_s, p95_s}, so two snapshots
// from different commits diff into a regression report. CI's bench-smoke job
// uploads all three files as artifacts.
//
// Usage: bench_regress [--out DIR] [--grid N] [--reps N] [--trace 0|1]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "core/generator.hpp"
#include "fft/fft.hpp"
#include "geometry/raster.hpp"
#include "ilt/ilt.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "litho/resist_kernels.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ganopc {
namespace {

geom::Grid wire_clip(std::int32_t grid, std::int32_t pixel, std::int32_t shift) {
  geom::Layout l(geom::Rect{0, 0, grid * pixel, grid * pixel});
  const std::int32_t mid = grid * pixel / 2;
  l.add({mid - 60 + shift, mid - 500, mid + 60 + shift, mid + 500});
  l.add({mid - 400, mid - 60 - shift, mid + 400, mid + 60 - shift});
  return geom::rasterize(l, pixel, /*threshold=*/true);
}

/// One row of the "stages" object: histogram `stage` out of `snap`, printed
/// under `label` (labels let the same obs span appear once per backend, e.g.
/// "litho.simulate" and "litho.simulate[tcc]").
struct StageRow {
  const obs::Snapshot* snap;
  const char* stage;
  const char* label;
};

/// "label": {"count": .., "sum_s": .., "p50_s": .., "p95_s": ..}
void append_stage(std::string& out, const StageRow& row, bool& first) {
  const obs::HistogramSnapshot* h =
      row.snap->find_histogram(std::string(row.stage) + ".seconds");
  if (h == nullptr || h->count == 0) return;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\":{\"count\":%llu,\"sum_s\":%.6g,\"p50_s\":%.6g,"
                "\"p95_s\":%.6g}",
                first ? "" : ",", row.label,
                static_cast<unsigned long long>(h->count), h->sum,
                h->quantile(0.5), h->quantile(0.95));
  out += buf;
  first = false;
}

void append_counter(std::string& out, const obs::Snapshot& snap,
                    const char* name, bool& first) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%llu", first ? "" : ",", name,
                static_cast<unsigned long long>(snap.counter_value(name)));
  out += buf;
  first = false;
}

void write_report(const std::string& path, const char* bench,
                  std::int32_t grid, int reps, const obs::Snapshot& snap,
                  const std::vector<StageRow>& stages,
                  const std::vector<const char*>& counters,
                  const std::string& quality_json = "") {
  std::string out = "{\"schema\":1,\"bench\":\"";
  out += bench;
  out += "\",\"grid\":" + std::to_string(grid) +
         ",\"reps\":" + std::to_string(reps) + ",\"stages\":{";
  bool first = true;
  for (const StageRow& s : stages) append_stage(out, s, first);
  out += "},\"counters\":{";
  first = true;
  for (const char* c : counters) append_counter(out, snap, c, first);
  out += "}";
  // Deterministic solution-quality section: gated by the regression report
  // at a much tighter ratio than the (noisy) runtime stages.
  if (!quality_json.empty()) out += ",\"quality\":{" + quality_json + "}";
  out += "}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), out.size());
}

}  // namespace
}  // namespace ganopc

int main(int argc, char** argv) {
  using namespace ganopc;
  std::string out_dir = ".";
  std::int32_t grid = 128;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_regress: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) out_dir = need("--out");
    else if (std::strcmp(argv[i], "--grid") == 0) grid = std::atoi(need("--grid"));
    else if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(need("--reps"));
    // --trace 1 arms span recording for the whole run so CI can price the
    // tracing fast path: diff a traced BENCH run against an untraced one.
    else if (std::strcmp(argv[i], "--trace") == 0)
      obs::set_trace_enabled(std::atoi(need("--trace")) != 0);
    else {
      std::fprintf(stderr,
                   "usage: bench_regress [--out DIR] [--grid N] [--reps N] "
                   "[--trace 0|1]\n");
      return 2;
    }
  }
  if (grid < 16 || reps < 1) {
    std::fprintf(stderr, "bench_regress: bad --grid/--reps\n");
    return 2;
  }
  const std::int32_t pixel = 2048 / grid;

  litho::OpticsConfig optics;
  litho::LithoSim sim(optics, litho::ResistConfig{}, grid, pixel);
  // The serving-path backend: the top-8 TCC eigen-kernels (`tcc:8`), i.e. the
  // same imaging operator compressed to a third of the Abbe kernel count.
  const litho::TccBackend tcc_backend(8, /*min_captured_energy=*/0.0);
  litho::LithoSim sim_tcc(tcc_backend.build(optics, grid, pixel),
                          litho::ResistConfig{});
  std::vector<geom::Grid> masks;
  for (int i = 0; i < 4; ++i) masks.push_back(wire_clip(grid, pixel, 64 * i));
  const geom::Grid& target = masks.front();

  obs::set_metrics_enabled(true);

  // --- litho stages, once per backend -------------------------------------
  // One untimed warm-up rep of the full workload fills the FFT plan cache
  // (including pv_band's upsampling transforms) and thread workspaces, so
  // the measured distribution reflects steady state — and the plan-cache
  // hit-rate counter proves the cache held: misses must stay 0. Each backend
  // gets its own obs window so its rows are not polluted by the other's.
  const auto litho_workload = [&](const litho::LithoSim& s) {
    for (const auto& m : masks) (void)s.simulate(m);
    (void)s.simulate_batch(masks);
    for (const auto& m : masks) (void)s.gradient(m, target);
    (void)s.pv_band(target);
  };
  litho_workload(sim);
  obs::reset_values();
  for (int r = 0; r < reps; ++r) litho_workload(sim);
  const obs::Snapshot litho_abbe = obs::snapshot();

  litho_workload(sim_tcc);
  obs::reset_values();
  for (int r = 0; r < reps; ++r) litho_workload(sim_tcc);
  const obs::Snapshot litho_tcc = obs::snapshot();

  write_report(out_dir + "/BENCH_litho.json", "litho", grid, reps, litho_abbe,
               {{&litho_abbe, "litho.simulate", "litho.simulate"},
                {&litho_abbe, "litho.simulate_batch", "litho.simulate_batch"},
                {&litho_abbe, "litho.aerial", "litho.aerial"},
                {&litho_abbe, "litho.gradient", "litho.gradient"},
                {&litho_abbe, "litho.pv_band", "litho.pv_band"},
                {&litho_tcc, "litho.simulate", "litho.simulate[tcc]"},
                {&litho_tcc, "litho.simulate_batch", "litho.simulate_batch[tcc]"},
                {&litho_tcc, "litho.aerial", "litho.aerial[tcc]"},
                {&litho_tcc, "litho.gradient", "litho.gradient[tcc]"},
                {&litho_tcc, "litho.pv_band", "litho.pv_band[tcc]"}},
               {"litho.simulate_batch.masks", "fft.plan_cache.hits",
                "fft.plan_cache.misses"});

  // --- ILT, once per backend ----------------------------------------------
  ilt::IltConfig cfg;
  cfg.max_iterations = 40;
  cfg.check_every = 5;
  const int ilt_reps = std::max(1, reps / 2);

  obs::reset_values();
  const ilt::IltEngine engine(sim, cfg);
  ilt::IltResult last;
  for (int r = 0; r < ilt_reps; ++r) last = engine.optimize(target);
  const obs::Snapshot ilt_abbe = obs::snapshot();

  obs::reset_values();
  const ilt::IltEngine engine_tcc(sim_tcc, cfg);
  ilt::IltResult last_tcc;
  for (int r = 0; r < ilt_reps; ++r) last_tcc = engine_tcc.optimize(target);
  const obs::Snapshot ilt_tcc = obs::snapshot();

  // The solver is deterministic in (workload, config), so the final L2/PVB
  // are exactly reproducible across runs of the same build; a drift here is
  // an algorithmic change, not noise. The TCC rows pin the serving backend's
  // solution quality (and retained trace) the same way.
  char quality[320];
  std::snprintf(quality, sizeof quality,
                "\"ilt_final_l2_px\":%.9g,\"ilt_final_pvb_nm2\":%lld,"
                "\"ilt_final_l2_px[tcc]\":%.9g,\"ilt_final_pvb_nm2[tcc]\":%lld,"
                "\"tcc_captured_energy\":%.9g",
                last.l2_px,
                static_cast<long long>(sim.pv_band(last.mask).area_nm2),
                last_tcc.l2_px,
                static_cast<long long>(sim_tcc.pv_band(last_tcc.mask).area_nm2),
                sim_tcc.kernels().captured_energy());
  write_report(out_dir + "/BENCH_ilt.json", "ilt", grid, ilt_reps, ilt_abbe,
               {{&ilt_abbe, "ilt.optimize", "ilt.optimize"},
                {&ilt_abbe, "litho.gradient", "litho.gradient"},
                {&ilt_abbe, "litho.aerial", "litho.aerial"},
                {&ilt_tcc, "ilt.optimize", "ilt.optimize[tcc]"},
                {&ilt_tcc, "litho.gradient", "litho.gradient[tcc]"},
                {&ilt_tcc, "litho.aerial", "litho.aerial[tcc]"}},
               {"ilt.iterations", "ilt.watchdog.terminations",
                "ilt.termination.converged", "ilt.termination.patience",
                "ilt.termination.target-reached"},
               quality);

  // --- layers ---------------------------------------------------------------
  // The kernels under the stages above, at fixed sizes (the gradient at
  // --grid): the FFT and SGEMM that every litho and generator layer reduces
  // to, pv_band's Fourier upsample, generator inference (the paper's GAN
  // forward), and the fused PV-aware gradient the ILT runs when it optimizes
  // dose corners. A sized row prints as "<name>[<size>]"; metric names allow
  // no brackets, so its histogram is "<name>.<size>.seconds".
  obs::reset_values();
  std::vector<std::pair<std::string, std::string>> layer_rows;  // stage, label
  // Times `reps` calls of `fn`, after one untimed warm-up, into the histogram
  // a span named `stage` would fill, so the rows print through append_stage.
  const auto layer = [&](const char* name, const std::string& size, auto&& fn) {
    std::string stage = name, label = name;
    if (!size.empty()) {
      stage += "." + size;
      label += "[" + size + "]";
    }
    fn();
    obs::Histogram& h = obs::histogram(stage + ".seconds", obs::time_buckets());
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      h.observe(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count());
    }
    layer_rows.emplace_back(std::move(stage), std::move(label));
  };
  for (const std::size_t n : {64, 128, 256}) {
    Prng rng(1);
    std::vector<fft::cfloat> data(n * n);
    for (auto& v : data)
      v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
    layer("fft.fft_2d_pair", std::to_string(n), [&] {
      fft::fft_2d(data, n, n, false);
      fft::fft_2d(data, n, n, true);
    });
  }
  {
    // pv_band's 2 nm field at the default 128^2 / 16 nm geometry: an 8x
    // band-limited upsample, 128^2 -> 1024^2, into preallocated buffers.
    const std::size_t n = 128, factor = 8, big = n * factor * n * factor;
    Prng rng(4);
    std::vector<float> in(n * n), fine(big);
    for (auto& v : in) v = static_cast<float>(rng.uniform(0, 1));
    std::vector<fft::cfloat> small_spec(n * n), big_spec(big);
    layer("fft.upsample_2d", "128x8", [&] {
      fft::fourier_upsample_into(in.data(), n, n, factor, small_spec.data(),
                                 big_spec.data(), fine.data());
    });
  }
  {
    // The gradient's dE/dI pass (one dose corner, the dispatched arm) over
    // a 128^2 aerial image straddling the resist threshold.
    const std::size_t npx = 128 * 128;
    Prng rng(5);
    std::vector<float> intensity(npx), target(npx), x(npx);
    for (auto& v : intensity) v = static_cast<float>(rng.uniform(0, 1));
    for (auto& v : target) v = rng.uniform(0, 1) < 0.5 ? 0.0f : 1.0f;
    const litho::ResistGradFn resist_grad = litho::resist_grad();
    layer("litho.resist_grad", "128", [&] {
      resist_grad(intensity.data(), target.data(), sim.sigmoid_alpha(), 1.0f, sim.threshold(),
                  x.data(), npx);
    });
  }
  for (const std::size_t n : {64, 128, 256}) {
    Prng rng(2);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
    layer("nn.sgemm", std::to_string(n),
          [&] { nn::matmul(a.data(), b.data(), c.data(), n, n, n); });
  }
  for (const std::int32_t n : {32, 64}) {
    Prng rng(3);
    core::Generator gen(n, 8, rng);
    geom::Grid clip(n, n, 2048 / n);
    for (std::int32_t r = 8; r < n - 8; ++r) clip.at(r, n / 2) = 1.0f;
    layer("generator.infer", std::to_string(n),
          [&] { (void)gen.infer(clip); });
  }
  {
    const float doses[] = {0.98f, 1.0f, 1.02f};
    litho::LithoWorkspace ws;
    geom::Grid grad;
    layer("litho.gradient_3dose", "",
          [&] { sim.gradient_into(masks[1], target, doses, grad, ws); });
  }
  const obs::Snapshot layers = obs::snapshot();
  std::vector<StageRow> rows;
  for (const auto& [stage, label] : layer_rows)
    rows.push_back({&layers, stage.c_str(), label.c_str()});
  write_report(out_dir + "/BENCH_layers.json", "layers", grid, reps, layers, rows, {});
  return 0;
}

// Shared plumbing for the reproduction benches.
//
// All table/figure binaries run at a "bench" scale that finishes in minutes
// on a CPU; set GANOPC_SCALE=quick|default|paper to override. Expensive
// artifacts (the ILT ground-truth dataset, trained generators) are cached in
// ./ganopc_bench_cache keyed by the geometry, so running the whole bench
// directory reuses work:
//   figure7_training_curves  trains GAN-OPC + PGAN-OPC and saves both
//   figure8_visuals/table2   load the saved generators when present
// The Table 2 flows run through engine::Engine sessions with
// SubmitPolicy::single_solve, the same path `ganopc optimize --rung` takes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/engine.hpp"
#include "litho/lithosim.hpp"
#include "nn/serialize.hpp"

namespace ganopc::bench {

inline core::GanOpcConfig bench_config() {
  if (const char* env = std::getenv("GANOPC_SCALE"))
    return core::make_config(core::parse_scale(env));
  // Bench default: 128 litho grid (16nm pixels) with a 64 GAN grid and a
  // meatier training budget than the unit-test preset.
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.litho_grid = 128;
  cfg.gan_grid = 64;
  cfg.base_channels = 8;
  cfg.library_size = 32;
  cfg.batch_size = 4;
  cfg.gan_iterations = 500;
  cfg.pretrain_iterations = 60;
  cfg.ilt.max_iterations = 200;
  cfg.ilt.check_every = 5;
  cfg.ilt.patience = 4;
  cfg.validate();
  return cfg;
}

inline std::string cache_dir() {
  const std::string dir = "ganopc_bench_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string geometry_tag(const core::GanOpcConfig& cfg) {
  return "l" + std::to_string(cfg.litho_grid) + "_g" + std::to_string(cfg.gan_grid) +
         "_c" + std::to_string(cfg.base_channels) + "_n" +
         std::to_string(cfg.library_size);
}

/// Load the cached dataset for this geometry or generate (and cache) it.
inline core::Dataset get_dataset(const core::GanOpcConfig& cfg,
                                 const litho::LithoSim& sim) {
  const std::string path = cache_dir() + "/dataset_" + geometry_tag(cfg) + ".bin";
  if (std::filesystem::exists(path)) {
    std::printf("[cache] loading dataset from %s\n", path.c_str());
    return core::Dataset::load(path, cfg);
  }
  std::printf("[cache] generating dataset (%zu clips, ILT ground truth)...\n",
              cfg.library_size);
  core::Dataset ds = core::Dataset::generate(cfg, sim);
  ds.save(path);
  return ds;
}

inline std::string generator_path(const core::GanOpcConfig& cfg, bool pretrained) {
  return cache_dir() + "/" + (pretrained ? "pgan" : "gan") + "_generator_" +
         geometry_tag(cfg) + ".bin";
}

/// Train a generator (optionally with ILT-guided pre-training) and cache it,
/// or load it when already cached. `stats_out` receives the adversarial
/// l2 history only when training actually runs.
inline core::Generator get_generator(const core::GanOpcConfig& cfg,
                                     const litho::LithoSim& sim,
                                     const core::Dataset& dataset, bool pretrained,
                                     core::TrainStats* stats_out = nullptr,
                                     bool force_train = false) {
  Prng rng(cfg.seed + (pretrained ? 100 : 200));
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  const std::string path = generator_path(cfg, pretrained);
  if (!force_train && std::filesystem::exists(path)) {
    std::printf("[cache] loading %s generator from %s\n",
                pretrained ? "PGAN-OPC" : "GAN-OPC", path.c_str());
    nn::load_parameters(generator.net(), path);
    return generator;
  }
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng, true, cfg.d_dropout);
  Prng train_rng(cfg.seed + (pretrained ? 300 : 400));
  core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);
  if (pretrained) {
    std::printf("[train] ILT-guided pre-training: %d iterations\n",
                cfg.pretrain_iterations);
    trainer.pretrain(cfg.pretrain_iterations);
  }
  std::printf("[train] adversarial training: %d iterations\n", cfg.gan_iterations);
  const core::TrainStats stats = trainer.train(cfg.gan_iterations);
  if (stats_out != nullptr) *stats_out = stats;
  nn::save_parameters(generator.net(), path);
  return generator;
}

/// A single-solve session; a caller-owned `generator` adds the GAN+ILT rung.
inline engine::EngineOptions single_solve_options(const core::GanOpcConfig& cfg,
                                                  core::Generator* generator = nullptr) {
  engine::EngineOptions o;
  o.config = cfg;
  o.generator = generator;
  o.policy = engine::SubmitPolicy::single_solve();
  return o;
}

/// One solve of `clip` on the named rung ("gan+ilt" = Figure 6 flow, "ilt" =
/// the [7] baseline), mask included. A failed solve aborts the bench.
inline engine::MaskResult solve(const engine::Engine& eng, const geom::Layout& clip,
                                const std::string& rung) {
  engine::BatchClip bc;
  bc.id = rung;
  bc.layout = clip;
  engine::SubmitOptions so;
  so.start_rung = eng.rung_index(rung);
  so.want_mask = true;
  engine::MaskResult r = eng.submit(bc, so);
  GANOPC_CHECK_MSG(r.row.ok(), rung << " solve failed: " << r.row.error);
  return r;
}

}  // namespace ganopc::bench

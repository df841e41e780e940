// Integration: the Figure 6 inference flow against the ILT baseline, both run
// as single-rung submits to an engine::Engine session.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/status.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/trainer.hpp"
#include "engine/engine.hpp"
#include "geometry/raster.hpp"
#include "layout/synthesizer.hpp"

namespace ganopc::engine {
namespace {

core::GanOpcConfig flow_config() {
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.library_size = 4;
  cfg.batch_size = 2;
  cfg.ilt.max_iterations = 30;
  cfg.ilt.check_every = 5;
  return cfg;
}

EngineOptions single_solve(const core::GanOpcConfig& cfg, core::Generator* g) {
  EngineOptions o;
  o.config = cfg;
  o.generator = g;
  o.policy = SubmitPolicy::single_solve();
  return o;
}

MaskResult solve(const Engine& eng, const geom::Layout& clip, const std::string& rung) {
  SubmitOptions so;
  so.start_rung = eng.rung_index(rung);
  so.want_mask = true;
  return eng.submit(BatchClip{rung, "", clip}, so);
}

geom::Layout synth_clip(const core::GanOpcConfig& cfg, std::uint64_t seed) {
  layout::SynthesisConfig synth;
  synth.clip_nm = cfg.clip_nm;
  Prng rng(seed);
  return layout::synthesize_clip(synth, rng);
}

TEST(FlowIntegration, IltRungProducesValidResult) {
  const core::GanOpcConfig cfg = flow_config();
  const Engine eng(single_solve(cfg, nullptr));
  const geom::Layout clip = synth_clip(cfg, 11);
  const MaskResult result = solve(eng, clip, "ilt");
  ASSERT_TRUE(result.row.ok()) << result.row.error;

  EXPECT_EQ(result.row.stage, BatchStage::Ilt);
  EXPECT_EQ(result.mask.rows, cfg.litho_grid);
  EXPECT_GT(result.row.ilt_iterations, 0);
  EXPECT_GT(result.row.l2_px, 0.0);
  EXPECT_DOUBLE_EQ(result.row.l2_nm2,
                   result.row.l2_px * cfg.litho_pixel_nm() * cfg.litho_pixel_nm());
  // The optimized mask must beat the uncorrected target-as-mask print.
  const geom::Grid target =
      geom::rasterize(clip, cfg.litho_pixel_nm(), /*threshold=*/true);
  EXPECT_LT(result.row.l2_px, eng.sim().l2_error(target, target));
}

TEST(FlowIntegration, GanIltRungRunsAndRefines) {
  const core::GanOpcConfig cfg = flow_config();
  Prng rng(12);
  core::Generator g(cfg.gan_grid, cfg.base_channels, rng);
  const Engine eng(single_solve(cfg, &g));
  const core::Dataset dataset = core::Dataset::generate(cfg, eng.sim());
  core::Discriminator d(cfg.gan_grid, cfg.base_channels, rng);
  Prng train_rng(13);
  core::GanOpcTrainer trainer(cfg, g, d, dataset, eng.sim(), train_rng);
  trainer.train(10);  // brief training; the flow must still work end-to-end

  const MaskResult result = solve(eng, synth_clip(cfg, 14), "gan+ilt");
  ASSERT_TRUE(result.row.ok()) << result.row.error;
  EXPECT_EQ(result.row.stage, BatchStage::GanIlt);
  EXPECT_GE(result.generator_s, 0.0);
  EXPECT_GT(result.ilt_s, 0.0);
  EXPECT_GT(result.row.pvb_nm2, 0);
  for (float v : result.mask.data) EXPECT_TRUE(v == 0.0f || v == 1.0f);
}

TEST(FlowIntegration, GanIltRungRejectedWithoutGenerator) {
  const Engine eng(single_solve(flow_config(), nullptr));
  try {
    eng.rung_index("gan+ilt");
    FAIL() << "gan+ilt resolved in a session without a generator";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
  }
}

}  // namespace
}  // namespace ganopc::engine

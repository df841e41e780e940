// Engine session contract (DESIGN.md §15): the embeddable libganopc entry
// point behind `ganopc optimize`, batch, and serve.
//
// Three pins:
//   - Front-end bit-identity: one long-lived Engine session submitting N
//     clips produces byte-for-byte the same masks as N fresh one-shot
//     `ganopc optimize` subprocess invocations (thread count pinned on both
//     sides via GANOPC_THREADS), for the full chain and for each single rung
//     that `optimize --rung` selects.
//   - Rung selection: start_rung applies before the no-fallback truncation,
//     so a no-fallback session runs exactly the rung it is pointed at.
//   - Steady-state reuse: after a warm-up submission the session's FFT plan
//     cache stops missing and the persistent ILT workspace stops growing —
//     the observable proxy for "submit() allocates nothing at steady state".
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "engine/clip_io.hpp"
#include "engine/engine.hpp"
#include "geometry/layout.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"

#ifndef GANOPC_CLI_PATH
#error "GANOPC_CLI_PATH must point at the ganopc CLI binary"
#endif

namespace ganopc::engine {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

core::GanOpcConfig make_cfg() {
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.litho_grid = 64;  // 32 nm pixels: each clip optimizes in well under 1 s
  cfg.ilt.max_iterations = 30;
  return cfg;
}

geom::Layout wire_clip(std::int32_t clip_nm, std::int32_t shift) {
  geom::Layout l(geom::Rect{0, 0, clip_nm, clip_nm});
  const std::int32_t mid = clip_nm / 2 + shift;
  l.add({mid - 60, mid - 500, mid + 60, mid + 500});
  return l;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("ganopc_engine_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    ThreadPool::reset(ThreadPool::default_thread_count());
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) { return dir_ + "/" + name; }

  int run_cli(const std::string& args) {
    const std::string cmd = std::string("GANOPC_THREADS=2 exec '") +
                            GANOPC_CLI_PATH + "' " + args + " > " +
                            path("stdout.txt") + " 2>&1";
    return std::system(cmd.c_str());
  }

  std::string dir_;
};

TEST_F(EngineTest, SessionMasksBitIdenticalToOneShotCliRuns) {
  const core::GanOpcConfig cfg = make_cfg();
  constexpr int kClips = 3;

  std::vector<std::string> layout_paths;
  for (int i = 0; i < kClips; ++i) {
    const std::string p = path("clip" + std::to_string(i) + ".txt");
    wire_clip(cfg.clip_nm, 64 * (i - kClips / 2)).save(p);
    layout_paths.push_back(p);
  }

  // One session, N submissions — the embedded API.
  ThreadPool::reset(2);
  EngineOptions options;
  options.config = cfg;
  const Engine eng(options);
  std::vector<std::string> session_masks;
  for (int i = 0; i < kClips; ++i) {
    BatchClip clip;
    clip.id = "clip" + std::to_string(i);
    clip.path = layout_paths[static_cast<std::size_t>(i)];
    SubmitOptions opts;
    opts.want_mask = true;
    const MaskResult result = eng.submit(clip, opts);
    ASSERT_TRUE(result.row.ok()) << clip.id << ": " << result.row.error;
    ASSERT_FALSE(result.mask.data.empty());
    session_masks.push_back(encode_mask_pgm(result.mask));
  }

  // N fresh one-shot CLI processes — the `ganopc optimize` front-end.
  for (int i = 0; i < kClips; ++i) {
    const std::string mask_out = path("cli_mask" + std::to_string(i) + ".pgm");
    const int rc = run_cli(
        "optimize --layout " + layout_paths[static_cast<std::size_t>(i)] +
        " --id clip" + std::to_string(i) + " --scale quick --grid 64" +
        " --iters 30 --mask-out " + mask_out);
    ASSERT_EQ(rc, 0) << read_bytes(path("stdout.txt"));
    const std::string cli_mask = read_bytes(mask_out);
    ASSERT_FALSE(cli_mask.empty());
    EXPECT_EQ(cli_mask, session_masks[static_cast<std::size_t>(i)])
        << "clip" << i << ": session mask != one-shot CLI mask";
  }

  // `optimize --rung NAME` against a no-fallback session entered at that
  // rung. G is a seeded untrained generator: the session holds it in memory,
  // the CLI loads the saved weights.
  Prng rng(7);
  core::Generator g(cfg.gan_grid, cfg.base_channels, rng);
  const std::string weights = path("g.bin");
  nn::save_parameters(g.net(), weights);
  options.generator = &g;
  options.policy = SubmitPolicy::single_solve();
  const Engine rung_eng(options);
  for (const std::string rung : {"gan+ilt", "ilt", "mbopc"}) {
    BatchClip clip;
    clip.id = "clip0";
    clip.path = layout_paths[0];
    SubmitOptions opts;
    opts.want_mask = true;
    opts.start_rung = rung_eng.rung_index(rung);
    const MaskResult result = rung_eng.submit(clip, opts);
    ASSERT_TRUE(result.row.ok()) << rung << ": " << result.row.error;
    EXPECT_STREQ(batch_stage_name(result.row.stage), rung.c_str());

    const std::string mask_out = path("cli_rung_mask.pgm");
    std::filesystem::remove(mask_out);
    const int rc = run_cli("optimize --layout " + layout_paths[0] +
                           " --id clip0 --scale quick --grid 64 --iters 30" +
                           " --rung " + rung + " --max-retries 0 --accept-factor 0" +
                           (rung == "gan+ilt" ? " --generator " + weights : "") +
                           " --mask-out " + mask_out);
    ASSERT_EQ(rc, 0) << rung << ": " << read_bytes(path("stdout.txt"));
    EXPECT_EQ(read_bytes(mask_out), encode_mask_pgm(result.mask))
        << rung << ": session mask != `optimize --rung` mask";
  }
}

TEST_F(EngineTest, NoFallbackSessionRunsExactlyTheStartRung) {
  EngineOptions options;
  options.config = make_cfg();
  options.policy.allow_fallback = false;
  options.policy.l2_accept_factor = 0.0f;
  const Engine eng(options);
  EXPECT_EQ(eng.rung_index("ilt"), 0);
  EXPECT_EQ(eng.rung_index("mbopc"), 1);
  EXPECT_THROW(eng.rung_index("failed"), StatusError);

  BatchClip clip;
  clip.id = "wire";
  clip.layout = wire_clip(options.config.clip_nm, 0);
  SubmitOptions opts;
  opts.start_rung = 1;
  const BatchClipResult row = eng.submit(clip, opts).row;
  ASSERT_TRUE(row.ok()) << row.error;
  EXPECT_EQ(row.stage, BatchStage::MbOpc);
  EXPECT_EQ(row.fallbacks, 1);
  EXPECT_EQ(row.ilt_iterations, 0);  // the ILT rung never ran
}

TEST_F(EngineTest, CliRungGanIltWithoutGeneratorIsTypedInvalidInput) {
  const std::string clip_path = path("clip.txt");
  wire_clip(make_cfg().clip_nm, 0).save(clip_path);
  const int rc = run_cli("optimize --layout " + clip_path +
                         " --scale quick --grid 64 --rung gan+ilt --mask-out " +
                         path("never.pgm"));
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  EXPECT_NE(read_bytes(path("stdout.txt")).find("InvalidInput"), std::string::npos)
      << read_bytes(path("stdout.txt"));
  EXPECT_FALSE(std::filesystem::exists(path("never.pgm")));
}

TEST_F(EngineTest, CliHelpExitsZeroAndMalformedFlagsAreUsageErrors) {
  for (const std::string help : {"synth --help", "optimize -h", "--help"}) {
    const int rc = run_cli(help);
    ASSERT_TRUE(WIFEXITED(rc)) << help;
    EXPECT_EQ(WEXITSTATUS(rc), 0) << help;
    EXPECT_NE(read_bytes(path("stdout.txt")).find("usage: ganopc"), std::string::npos)
        << help << ": " << read_bytes(path("stdout.txt"));
  }
  for (const auto& [args, why] :
       {std::pair<std::string, std::string>{"synth --out " + path("never") + " --count",
                                            "missing value for --count"},
        {"synth --out " + path("never") + " count 3", "expected --flag, got 'count'"},
        {"optimize --layout", "missing value for --layout"}}) {
    const int rc = run_cli(args);
    ASSERT_TRUE(WIFEXITED(rc)) << args;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << args;
    const std::string out = read_bytes(path("stdout.txt"));
    EXPECT_NE(out.find(why), std::string::npos) << args << ": " << out;
    EXPECT_NE(out.find("usage: ganopc"), std::string::npos) << args << ": " << out;
  }
  EXPECT_FALSE(std::filesystem::exists(path("never0.txt")));
}

TEST_F(EngineTest, SteadyStateSubmissionsReusePlansAndWorkspaces) {
  obs::set_metrics_enabled(true);
  obs::reset_values();

  EngineOptions options;
  options.config = make_cfg();
  const Engine eng(options);
  BatchClip clip;
  clip.id = "warm";
  clip.layout = wire_clip(options.config.clip_nm, 0);

  // Warm-up: plans compile, session buffers grow to the clip geometry.
  ASSERT_TRUE(eng.submit(clip).row.ok());
  const std::uint64_t misses_warm = obs::counter("fft.plan_cache.misses").value();
  const std::uint64_t grows_warm = obs::counter("litho.workspace.grows").value();
  const std::uint64_t hits_warm = obs::counter("fft.plan_cache.hits").value();
  EXPECT_GT(grows_warm, 0u);

  // Steady state: same geometry, zero new plans, zero workspace growth.
  for (int i = 0; i < 3; ++i) {
    clip.id = "steady" + std::to_string(i);
    ASSERT_TRUE(eng.submit(clip).row.ok());
  }
  EXPECT_EQ(obs::counter("fft.plan_cache.misses").value(), misses_warm);
  EXPECT_EQ(obs::counter("litho.workspace.grows").value(), grows_warm);
  EXPECT_GT(obs::counter("fft.plan_cache.hits").value(), hits_warm);

  obs::set_metrics_enabled(false);
}

TEST_F(EngineTest, UnreadableGeneratorPathIsTypedAtConstruction) {
  EngineOptions options;
  options.config = make_cfg();
  options.generator_path = path("no_such_generator.bin");
  EXPECT_THROW(Engine{options}, StatusError);
}

}  // namespace
}  // namespace ganopc::engine

// Bench rows cannot silently vanish: a fresh bench_regress run must still
// write every stage row the committed BENCH_*.json baselines name. The
// regress gate fails on a missing row too, but it only runs nightly; this
// tier-1 check runs on every push. Row names only — timings and the quality
// probes (meaningful at grid 128) stay the nightly gate's job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "obs/regress.hpp"

#ifndef GANOPC_BENCH_REGRESS_PATH
#error "GANOPC_BENCH_REGRESS_PATH must point at the bench_regress binary"
#endif
#ifndef GANOPC_SOURCE_DIR
#error "GANOPC_SOURCE_DIR must point at the repository root"
#endif

namespace ganopc {
namespace {

TEST(BenchRows, FreshRunWritesEveryCommittedStageRow) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ganopc_bench_rows_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string cmd = std::string("'") + GANOPC_BENCH_REGRESS_PATH +
                          "' --out '" + dir.string() +
                          "' --grid 64 --reps 1 > '" + (dir / "stdout.txt").string() +
                          "' 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  for (const char* file : {"BENCH_litho.json", "BENCH_ilt.json", "BENCH_layers.json"}) {
    const json::Value committed =
        obs::load_bench_file(std::string(GANOPC_SOURCE_DIR) + "/" + file);
    const json::Value fresh = obs::load_bench_file((dir / file).string());
    const json::Value* want = committed.find("stages");
    const json::Value* got = fresh.find("stages");
    ASSERT_TRUE(want != nullptr && want->is_object()) << file;
    ASSERT_FALSE(want->members().empty()) << file;
    ASSERT_TRUE(got != nullptr && got->is_object()) << file;
    for (const auto& [row, entry] : want->members())
      EXPECT_NE(got->find(row), nullptr) << file << ": stage row '" << row
                                         << "' missing from the fresh run";
  }
  std::filesystem::remove_all(dir);
}

TEST(BenchRows, CommittedLayerBaselineNamesTheLithoPixelPasses) {
  // The first test only checks committed rows against a fresh run; these
  // rows must not leave the committed baseline either: the gradient's dE/dI
  // pass, pv_band's upsample and the fused 3-dose gradient.
  const json::Value committed =
      obs::load_bench_file(std::string(GANOPC_SOURCE_DIR) + "/BENCH_layers.json");
  const json::Value* stages = committed.find("stages");
  ASSERT_TRUE(stages != nullptr && stages->is_object());
  for (const char* row :
       {"litho.resist_grad[128]", "fft.upsample_2d[128x8]", "litho.gradient_3dose"})
    EXPECT_NE(stages->find(row), nullptr) << "BENCH_layers.json lacks row '" << row << "'";
}

}  // namespace
}  // namespace ganopc

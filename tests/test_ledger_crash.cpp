// Ledger crash-safety against the real CLI binary (DESIGN.md §11):
// a SIGKILL mid-batch must leave a parseable JSONL prefix that a resumed run
// appends to, and a watchdog termination (injected NaN in the litho
// gradient) must leave an atomic flight-recorder crash report behind.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/json.hpp"
#include "obs/ledger.hpp"

#ifndef GANOPC_CLI_PATH
#error "GANOPC_CLI_PATH must point at the ganopc CLI binary"
#endif

namespace ganopc {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class LedgerCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ganopc_ledger_crash").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  int run_cli(const std::string& args, const std::string& failpoints = "") {
    std::string cmd;
    if (!failpoints.empty()) cmd += "GANOPC_FAILPOINTS='" + failpoints + "' ";
    cmd += std::string("exec '") + GANOPC_CLI_PATH + "' " + args + " > " +
           path("stdout.txt") + " 2>&1";
    return std::system(cmd.c_str());
  }

  // Writes N simple wire clips, returns the comma-joined path list.
  std::string make_clips(int n) {
    std::string list;
    for (int i = 0; i < n; ++i) {
      std::ofstream out(path("clip" + std::to_string(i) + ".txt"));
      out << "clip 0 0 2048 2048\n";
      const int mid = 1024 + 64 * (i - n / 2);
      out << "rect " << mid - 60 << " 524 " << mid + 60 << " 1524\n";
      if (i) list += ",";
      list += path("clip" + std::to_string(i) + ".txt");
    }
    return list;
  }

  std::string dir_;
};

TEST_F(LedgerCrashTest, SigkillLeavesParseablePrefixAndResumeAppendsNewRun) {
  const std::string clips = make_clips(4);
  const std::string common = "batch --clips " + clips +
                             " --scale quick --grid 64 --iters 20"
                             " --deterministic-manifest 1 --ledger-out " +
                             path("run.jsonl");

  // Killed right after the second clip's journal commit — no flush, no
  // destructors, exactly like a power cut.
  const int killed = run_cli(common + " --journal " + path("kill.journal") +
                                 " --manifest " + path("kill.csv"),
                             "batch.kill:1:1");
  ASSERT_TRUE(WIFSIGNALED(killed)) << read_bytes(path("stdout.txt"));
  EXPECT_EQ(WTERMSIG(killed), SIGKILL);

  // The prefix written before the kill must parse: a run_start header plus
  // scoped per-clip convergence events.
  const obs::LedgerFile before = obs::read_ledger(path("run.jsonl"));
  ASSERT_GE(before.events.size(), 3u);
  EXPECT_EQ(before.events.front().string_or("type", "?"), "run_start");
  int run_starts = 0, scoped_iters = 0;
  for (const auto& ev : before.events) {
    if (ev.string_or("type", "") == "run_start") ++run_starts;
    if (ev.string_or("type", "") == "ilt_iter" && ev.find("scope") != nullptr)
      ++scoped_iters;
  }
  EXPECT_EQ(run_starts, 1);
  EXPECT_GT(scoped_iters, 0);

  // Resume appends — same file, a second self-identifying run header, and
  // strictly more events than the crashed run left behind.
  const int resumed = run_cli(common + " --resume " + path("kill.journal") +
                              " --manifest " + path("kill.csv"));
  ASSERT_TRUE(WIFEXITED(resumed)) << read_bytes(path("stdout.txt"));
  ASSERT_EQ(WEXITSTATUS(resumed), 0) << read_bytes(path("stdout.txt"));
  const obs::LedgerFile after = obs::read_ledger(path("run.jsonl"));
  EXPECT_GT(after.events.size(), before.events.size());
  run_starts = 0;
  for (const auto& ev : after.events)
    if (ev.string_or("type", "") == "run_start") ++run_starts;
  EXPECT_EQ(run_starts, 2);
  EXPECT_EQ(after.events.back().string_or("type", "?"), "run_end");
  EXPECT_TRUE(after.events.back().find("ok")->as_bool());
  for (const auto& ev : after.events)
    if (ev.string_or("type", "") == "run_start") {
      EXPECT_FALSE(ev.string_or("version", "").empty());
      EXPECT_EQ(ev.string_or("config_fingerprint", "").size(), 16u);
    }
}

TEST_F(LedgerCrashTest, InjectedNanDumpsFlightRecorderCrashReport) {
  const std::string clips = make_clips(1);
  // Persistent NaN in every litho gradient: a single plain-ILT solve
  // terminates Diverged on its first step and the watchdog path must dump
  // the flight recorder.
  const int rc = run_cli("optimize --rung ilt --max-retries 0 --accept-factor 0"
                         " --layout " + path("clip0.txt") +
                             " --scale quick --grid 64 --iters 20 --mask-out " +
                             path("ilt_mask.pgm") + " --ledger-out " + path("run.jsonl"),
                         "litho.gradient_nan:0:-1");
  ASSERT_TRUE(WIFEXITED(rc)) << read_bytes(path("stdout.txt"));

  const std::string crash = path("run.jsonl") + ".crash.json";
  ASSERT_TRUE(fs::exists(crash)) << read_bytes(path("stdout.txt"));
  const json::Value report = json::parse(read_bytes(crash));
  EXPECT_EQ(report.string_or("reason", "?"), "ilt.diverged");
  ASSERT_NE(report.find("events"), nullptr);
  EXPECT_FALSE(report.find("events")->items().empty());
  ASSERT_NE(report.find("metrics"), nullptr);
  // The ledger itself records the watchdog termination too.
  const obs::LedgerFile ledger = obs::read_ledger(path("run.jsonl"));
  bool saw_diverged_done = false;
  for (const auto& ev : ledger.events)
    saw_diverged_done |= ev.string_or("type", "") == "ilt_done" &&
                         ev.string_or("termination", "") == "diverged";
  EXPECT_TRUE(saw_diverged_done);
}

}  // namespace
}  // namespace ganopc

// obs_diff — standalone perf/quality regression gate (DESIGN.md §11).
//
//   obs_diff [--max-runtime-ratio R] [--max-quality-ratio R]
//            (--bench BASELINE.json CURRENT.json)...
//            (--ledger BASELINE.jsonl CURRENT.jsonl)...
//
// Diffs each baseline/current pair — BENCH_*.json files from bench_regress
// and/or JSONL run ledgers from --ledger-out — and prints one combined
// verdict. Exit codes: 0 PASS, 4 FAIL (regression), 2 usage, 1 I/O or parse
// error, so CI can tell a regression from a broken invocation. It is the
// one front-end over the verdict logic in src/obs/regress: the gate CI runs
// and the check a developer runs locally are the same command.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/regress.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: obs_diff [--max-runtime-ratio R] [--max-quality-ratio R]\n"
               "                (--bench BASELINE CURRENT)...\n"
               "                (--ledger BASELINE CURRENT)...\n"
               "exit: 0 pass, 4 regression, 2 usage, 1 error\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ganopc;
  obs::RegressThresholds thresholds;
  std::vector<std::pair<std::string, std::string>> bench_pairs, ledger_pairs;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--max-runtime-ratio" && i + 1 < argc) {
      thresholds.max_runtime_ratio = std::atof(argv[++i]);
    } else if (flag == "--max-quality-ratio" && i + 1 < argc) {
      thresholds.max_quality_ratio = std::atof(argv[++i]);
    } else if (flag == "--bench" && i + 2 < argc) {
      bench_pairs.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else if (flag == "--ledger" && i + 2 < argc) {
      ledger_pairs.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else {
      return usage();
    }
  }
  if (bench_pairs.empty() && ledger_pairs.empty()) return usage();

  try {
    obs::RegressReport report;
    for (const auto& [base, cur] : bench_pairs) {
      std::printf("bench: %s vs %s\n", base.c_str(), cur.c_str());
      obs::compare_bench(obs::load_bench_file(base), obs::load_bench_file(cur),
                         thresholds, report);
    }
    for (const auto& [base, cur] : ledger_pairs) {
      std::printf("ledger: %s vs %s\n", base.c_str(), cur.c_str());
      obs::compare_ledgers(obs::read_ledger(base), obs::read_ledger(cur),
                           thresholds, report);
    }
    std::printf("%s", report.summary().c_str());
    return report.pass ? 0 : 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_diff: error: %s\n", e.what());
    return 1;
  }
}

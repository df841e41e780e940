// Perf/quality regression verdicts over BENCH_*.json and ledger pairs
// (DESIGN.md §11).
//
// bench_regress emits per-stage timing distributions (p50/p95 straight from
// the obs histograms) plus a deterministic quality section; the run ledger
// carries per-run convergence trajectories. This module diffs a baseline
// against a current run of either and folds everything into one pass/fail
// report. tools/obs_diff is its one front-end, used both by CI's
// regress-gate step and locally, so the gate that blocks a PR and the check a
// developer runs can never disagree about what "regressed" means.
//
// Gating policy:
//   * runtime — current/baseline ratio of each stage's p50 and p95 must stay
//     <= max_runtime_ratio. Stages below runtime_floor_s in BOTH runs are
//     reported informationally (sub-noise-floor timings gate nothing).
//   * quality — current/baseline ratio of each "quality" entry (final L2,
//     PVB, ...) must stay <= max_quality_ratio; lower is better for all of
//     them. The litho stack is deterministic, so this bound can be tight.
//   * structure — stages/quality keys present in the baseline but missing
//     from the current run fail (a silently-vanished stage is a regression
//     of the bench itself); new keys only in the current run are notes.
//   * counters — reported as notes, never gated: iteration-adjacent counts
//     may legitimately shift at termination boundaries.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/ledger.hpp"

namespace ganopc::obs {

struct RegressThresholds {
  /// Ceiling on current/baseline for stage p50_s and p95_s. Generous by
  /// default: shared CI runners are noisy and slower than dev machines.
  double max_runtime_ratio = 1.5;
  /// Ceiling on current/baseline for quality entries (final L2 / PVB).
  double max_quality_ratio = 1.02;
  /// Stages faster than this in both runs are below the timing noise floor
  /// and never gate.
  double runtime_floor_s = 1e-4;
};

/// One gated (or informational) comparison.
struct RegressCheck {
  std::string name;     ///< e.g. "litho.simulate.p95_s", "quality.ilt_final_l2_px"
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;   ///< current / baseline (0 when baseline is 0)
  double limit = 0.0;   ///< the threshold this check was held to
  bool pass = true;
  bool informational = false;  ///< reported but never fails the gate
};

struct RegressReport {
  std::vector<RegressCheck> checks;
  std::vector<std::string> notes;
  bool pass = true;

  /// Human-readable multi-line report ending in the verdict line
  /// "REGRESSION GATE: PASS|FAIL (...)".
  std::string summary() const;
};

/// Diff one BENCH_*.json pair (parsed) into `report`. Callable repeatedly to
/// accumulate several pairs (litho + ilt) into one verdict.
void compare_bench(const json::Value& baseline, const json::Value& current,
                   const RegressThresholds& thresholds, RegressReport& report);

/// Diff the convergence endpoints of two ledgers: for every scope (clip) the
/// last ilt_iter/ilt_done L2 and PVB, aggregated as means, plus the final
/// train_step L2 per phase when both runs trained.
void compare_ledgers(const LedgerFile& baseline, const LedgerFile& current,
                     const RegressThresholds& thresholds, RegressReport& report);

/// Convenience: read + parse a BENCH json file (throws StatusError(kIo) /
/// ganopc::Error on unreadable or malformed input).
json::Value load_bench_file(const std::string& path);

}  // namespace ganopc::obs

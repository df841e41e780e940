#!/usr/bin/env python3
"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py BASE_DIR CURRENT_DIR

Each directory holds the records run.py writes to .bench_out/results/
(copy them aside between the two commits). For every workload and trace mode
present in both, prints each metric's median over the seeds run, the ratio
current / base, and the quartile spread of each side. A comparison across two
different machine fingerprints is flagged, not silently made.
"""
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], "trace" if "obs.trace_overhead_ratio" in rec["metrics"]
               else "e2e")
        groups.setdefault(key, []).append(rec)
    return groups


def spread(xs):
    if len(xs) < 2:
        return float("nan")
    q = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q[2] - q[0]) / med if med else float("nan")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, cur = load(argv[1]), load(argv[2])
    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in b + c}
        print(f"== {key[0]} ({key[1]}): {len(b)} base runs, {len(c)} current runs")
        if len(fps) > 1:
            print("   WARNING: different machine fingerprints; timings are not comparable:")
            for fp in sorted(fps):
                print("     " + fp)
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c if name in r["metrics"]]
            if not bv or not cv:
                continue
            bm, cm = statistics.median(bv), statistics.median(cv)
            ratio = cm / bm if bm else float("nan")
            unit = b[0]["metrics"][name]["unit"]
            print(f"   {name:34s} {bm:12.6g} -> {cm:12.6g} {unit:8s} x{ratio:.4f}"
                  f"  (spread {spread(bv):.3f} / {spread(cv):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

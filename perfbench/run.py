#!/usr/bin/env python3
"""End-to-end benchmark of GAN-OPC mask optimization.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ganopc source tree. The first run builds the ganopc
libraries, the `ganopc` CLI and the in-process harness into .bench_build/
(CMake, Release). Workloads (BENCHMARK.json lists why each was chosen):

  session_abbe  one warm Engine (Abbe backend, generator attached), one
                closed-loop caller submitting fresh clips in turn
  oneshot_tcc   a fresh process per sample: construct an Engine with the
                auto-truncated TCC backend, submit one clip, exit
  serve_closed  `ganopc serve` (tcc:8, 2 single-threaded workers) under 4
                closed-loop HTTP clients; half the requests repeat a clip,
                a quarter ask for the PGM mask

Every accepted mask is checked: the harness re-scores it through a LithoSim
of its own, and serve PGM bodies are byte-compared with an in-process Engine.
A wrong mask fails the run (exit 1). Human-readable lines go to stdout; the
last line is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics of a separate traced
run with --trace 1. The full record (fingerprint, samples) is also written
to .bench_out/results/. perfbench/README.md defines every metric.
"""
import argparse
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
HARNESS = BUILD / "perfbench_harness"
GANOPC = BUILD / "tools" / "ganopc"
WEIGHTS = BENCH_DIR / "data" / "pgan_quick.bin"
# crc32 of the quick-scale generator `perfbench_harness train` produces.
WEIGHTS_CRC = "2144df1c"

CHILD_TIMEOUT_S = 150

# Thread budget: busy threads never exceed nproc (4 on the reference box).
# Measured work runs one thread per process. On a shared 4-vCPU VM, host
# contention slowed a 4-thread submit 0.47 -> 0.95 s and moved a 2-thread
# TCC build by +-9%, while single-threaded submits and builds moved under 3%.
# Untimed checking work (verify-serve) may use the whole box.
WORK_THREADS = 1
CHECK_THREADS = 4
SERVE_WORKERS = 2
SERVE_CLIENTS = 4
SERVE_BACKEND = "tcc:8"
SERVE_ITERS = 10
ONESHOT_SAMPLE_S = 21.0  # ~ one cold process: auto-k TCC build + submit


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, flush=True)


# ------------------------------------------------------------------ build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no ganopc source tree at {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "perfbench-build.log"
    with open(build_log, "a") as logf:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DGANOPC_BUILD_TESTS=OFF", "-DGANOPC_BUILD_BENCH=OFF",
                   "-DGANOPC_BUILD_EXAMPLES=OFF",
                   f"-DCMAKE_PROJECT_ganopc_INCLUDE={BENCH_DIR / 'perfbench.cmake'}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"cmake configure failed, see {build_log}")
        cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 4),
               "--target", "perfbench_harness", "ganopc"]
        if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
            raise BenchError(f"build failed, see {build_log}")


def crc32_file(path):
    return f"{zlib.crc32(path.read_bytes()) & 0xFFFFFFFF:08x}"


def harness(args, threads, timeout=CHILD_TIMEOUT_S):
    """Run one harness subcommand; returns its JSON document."""
    env = dict(os.environ, GANOPC_THREADS=str(threads))
    out = OUT / f"harness-{os.getpid()}.json"
    proc = subprocess.run([str(HARNESS), *args, "--out", str(out)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} exited {proc.returncode}: "
                         f"{proc.stdout.strip()[-2000:]}")
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


# ------------------------------------------------------------- statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, pct):
    """Nearest-rank quantile of the raw samples."""
    return sorted(xs)[max(1, math.ceil(pct / 100 * len(xs))) - 1]


def tail(xs):
    """Highest whole percentile with >= 10 samples beyond it, never below
    p50. Returns (value, percentile, samples beyond)."""
    n = len(xs)
    pct = max(50, math.floor(100 * (1 - 10 / n)))
    return quantile(xs, pct), pct, n - max(1, math.ceil(pct / 100 * n))


def union_length(intervals):
    total, end = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


class SpanTree:
    """Spans (name, start_s, end_s, id, parent): self time of a span is its
    duration minus the part of it that chosen descendants cover."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def descendants(self, span):
        stack, out = list(self.children.get(span["id"], [])), []
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(self.children.get(s["id"], []))
        return out

    def self_time(self, span, lower_prefixes):
        covered = [(d["start"], d["end"]) for d in self.descendants(span)
                   if d["name"].startswith(lower_prefixes)]
        return (span["end"] - span["start"]) - union_length(covered)


def harness_spans(doc):
    return [{"name": s["name"], "start": s["start_ns"] * 1e-9,
             "end": s["end_ns"] * 1e-9, "id": s["id"], "parent": s["parent"]}
            for s in doc.get("spans", [])]


def chrome_spans(path):
    """Spans of a `ganopc serve --trace-out` file that carry span identity."""
    doc = json.loads(Path(path).read_text())
    out = []
    for e in doc.get("traceEvents", []):
        args = e.get("args")
        if e.get("ph") != "X" or not args:
            continue
        start = e["ts"] * 1e-6
        out.append({"name": e["name"], "start": start,
                    "end": start + e["dur"] * 1e-6,
                    "id": args["span"], "parent": args["parent"]})
    return out


# ----------------------------------------------------------------- metrics


E2E_UNITS = {
    "setup_s": "s", "first_mask_s": "s", "clips_per_s": "clips/s",
    "latency_p50_s": "s", "latency_tail_s": "s", "accept_ratio": "ratio",
    "pvb_nm2_mean": "nm2", "peak_rss_mb": "MB",
}
# Printed and recorded beside the end-to-end metrics but not in the JSON:
# final L2 per clip is bimodal under GAN+ILT, so its mean over the clips one
# run affords moves 25-65% between seeds, too much for any bound.
E2E_PRINTED = {"l2_nm2_mean": "nm2"}

# Layer series read from the obs registry, reported per submitted clip.
PER_CLIP_COUNTERS = {
    "litho.gradient.calls": "litho.gradient.calls",
    "litho.simulate.calls": "litho.simulate.calls",
    "litho.aerial.calls": "litho.aerial.calls",
    "litho.pv_band.calls": "litho.pv_band.calls",
    "litho.workspace.grows": "litho.workspace.grows",
    "ilt.iterations": "ilt.iterations",
    "fft.plan_cache.hits": "fft.plan_cache.hits",
    "fft.plan_cache.misses": "fft.plan_cache.misses",
    "nn.forward.calls": "nn.forward.calls",
}
PER_CLIP_BUSY = {
    "litho.gradient.busy_s": "litho.gradient.seconds",
    "litho.simulate.busy_s": "litho.simulate.seconds",
    "litho.aerial.busy_s": "litho.aerial.seconds",
    "litho.pv_band.busy_s": "litho.pv_band.seconds",
    "ilt.optimize.busy_s": "ilt.optimize.seconds",
    "nn.forward.busy_s": "nn.forward.seconds",
}
TOTAL_COUNTERS = ["serve.rejected.queue_full", "serve.rejected.deadline",
                  "proc.worker.deaths", "proc.tasks.requeued",
                  "proc.obs.delta_applied", "proc.obs.delta_dropped"]
LOWER_THAN_ENGINE = ("litho.", "ilt.", "nn.")

LAYER_UNITS = {
    "engine.construct_s": "s", "engine.submit_s": "s/clip",
    "engine.submit_self_s": "s/clip", "engine.retries": "1/clip",
    "engine.fallbacks": "1/clip", "engine.rung.gan_ilt": "ratio",
    "engine.rung.ilt": "ratio", "engine.rung.mbopc": "ratio",
    "litho.kernels.build_s": "s", "litho.kernels.count": "count",
    "litho.kernels.captured_energy": "ratio",
    **{k: "1/clip" for k in PER_CLIP_COUNTERS},
    **{k: "s/clip" for k in PER_CLIP_BUSY},
    "ilt.self_s": "s/clip", "fft.lookups_per_gradient": "count",
    **{k: "count" for k in TOTAL_COUNTERS},
    "obs.trace_overhead_ratio": "ratio",
}

RUNG_KEYS = {"gan+ilt": "engine.rung.gan_ilt", "ilt": "engine.rung.ilt",
             "mbopc": "engine.rung.mbopc"}


def rows_layers(rows):
    """Engine-row layer metrics: retries, fallbacks and rung shares."""
    n = max(1, len(rows))
    out = {"engine.retries": sum(r["retries"] for r in rows) / n,
           "engine.fallbacks": sum(r["fallbacks"] for r in rows) / n}
    for stage, key in RUNG_KEYS.items():
        out[key] = sum(1 for r in rows if r["ok"] and r["stage"] == stage) / n
    return out


def registry_layers(counters, sums, clips):
    n = max(1, clips)
    out = {k: counters.get(series, 0) / n for k, series in PER_CLIP_COUNTERS.items()}
    out.update({k: sums.get(series, 0.0) / n for k, series in PER_CLIP_BUSY.items()})
    out.update({k: counters.get(k, 0) for k in TOTAL_COUNTERS})
    return out


def span_layers(tree, submit_name, clips):
    n = max(1, clips)
    submits = tree.named(submit_name)
    return {
        "engine.submit_s": sum(s["end"] - s["start"] for s in submits) / n,
        "engine.submit_self_s":
            sum(tree.self_time(s, LOWER_THAN_ENGINE) for s in submits) / n,
        "ilt.self_s": sum(tree.self_time(s, ("litho.",))
                          for s in tree.named("ilt.optimize")) / n,
    }


def probe_layers(layers):
    k = layers["kernels"]
    return {"engine.construct_s": layers["engine.construct_s"],
            "litho.kernels.build_s": k["build_s"],
            "litho.kernels.count": k["count"],
            "litho.kernels.captured_energy": k["captured_energy"],
            "fft.lookups_per_gradient": layers["fft.lookups_per_gradient"]}


def registry_from_harness(reg):
    return reg["counters"], {k: v["sum"] for k, v in reg["histograms"].items()}


class Outcome:
    """Everything a workload run produced, before it is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []          # descriptions of wrong masks
        self.metrics = {}        # name -> value
        self.notes = []          # extra human-readable lines
        self.annotations = {}    # metric name -> text printed beside it
        self.record = {}         # extra fields for the result file

    def count_rows(self, rows):
        """Attempts, failures and wrong masks from checked harness rows."""
        for r in rows:
            self.attempted += 1
            if not r["ok"] or r.get("verified") is False:
                self.failed += 1
            if r.get("verified") is False:
                self.wrong.append(f"{r['id']}: {r.get('wrong', '')}")

    def quality(self, l2s, pvbs):
        self.metrics["l2_nm2_mean"] = statistics.fmean(l2s) if l2s else 0.0
        self.metrics["pvb_nm2_mean"] = statistics.fmean(pvbs) if pvbs else 0.0

    def latency(self, xs):
        if not xs:
            raise BenchError("no latency samples")
        value, pct, beyond = tail(xs)
        self.metrics["latency_p50_s"] = quantile(xs, 50)
        self.metrics["latency_tail_s"] = value
        self.annotations["latency_tail_s"] = (f"(p{pct} of {len(xs)} samples, "
                                              f"{beyond} beyond it)")


def check_weights(doc):
    if doc.get("weights_crc") != WEIGHTS_CRC:
        raise BenchError(f"generator weights crc32 {doc.get('weights_crc')} "
                         f"!= {WEIGHTS_CRC}")


# ------------------------------------------------------- session_abbe


def run_session(seed, seconds, trace, smoke):
    doc = harness(["session", "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--setups", "1" if smoke else "5",
                   "--constructs", "3" if smoke else "31",
                   "--weights", str(WEIGHTS)], WORK_THREADS)
    check_weights(doc)
    o = Outcome()
    o.record["fingerprint"] = doc["fingerprint"]
    rows = doc["clips"]
    o.count_rows(rows)
    if trace:
        layers = doc["layers"]
        traced = [r for r in rows if r["phase"] == "traced"]
        counters, sums = registry_from_harness(layers["registry"])
        n = len(traced)
        o.metrics.update(probe_layers(layers))
        o.metrics.update(rows_layers(traced))
        o.metrics.update(registry_layers(counters, sums, n))
        o.metrics.update(span_layers(SpanTree(harness_spans(doc)),
                                     "engine.submit", n))
        o.metrics["obs.trace_overhead_ratio"] = layers["trace_overhead_ratio"]
        return o
    steady = [r for r in rows if r["phase"] == "steady"]
    ok = [r for r in rows if r["ok"]]
    o.metrics["setup_s"] = median(doc["setup_s"])
    o.metrics["first_mask_s"] = median(doc["first_mask_s"])
    # Per second spent in submit: the check that re-scores each mask between
    # submits is the benchmark's work, not the session's.
    o.metrics["clips_per_s"] = (sum(1 for r in steady if r["ok"])
                                / sum(r["latency_s"] for r in steady))
    o.latency([r["latency_s"] for r in steady])
    o.quality([r["l2_nm2"] for r in ok], [r["pvb_nm2"] for r in ok])
    o.metrics["peak_rss_mb"] = doc["peak_rss_mb"]
    if o.metrics["l2_nm2_mean"] <= 0.0:
        o.wrong.append("l2_nm2_mean is 0: the quality probe saturated")
    return o


# --------------------------------------------------------- oneshot_tcc


def oneshot_child(seed, index, trace, backend):
    """One cold process; returns (harness doc, spawn stamp)."""
    out = OUT / f"oneshot-{os.getpid()}-{index}.json"
    env = dict(os.environ, GANOPC_THREADS=str(WORK_THREADS))
    cmd = [str(HARNESS), "oneshot", "--seed", str(seed), "--index", str(index),
           "--trace", str(trace), "--backend", backend,
           "--weights", str(WEIGHTS), "--out", str(out)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"oneshot child {index} exited {proc.returncode}: "
                         f"{proc.stdout.strip()[-2000:]}")
    doc = json.loads(out.read_text())
    out.unlink()
    check_weights(doc)
    return doc, t_spawn


def run_oneshot(seed, seconds, trace, smoke):
    backend = "tcc:8" if smoke else "tcc"
    n = max(2, round(seconds / ONESHOT_SAMPLE_S))
    o = Outcome()
    children = []
    if trace:
        # Same clips cold, untraced then traced: the wall ratio is the
        # tracing overhead; the traced children give the layer numbers.
        k = max(1, n // 2)
        plan = [(i, 0) for i in range(k)] + [(i, 1) for i in range(k)]
    else:
        plan = [(i, 0) for i in range(n)]
    for index, traced in plan:
        children.append((traced, *oneshot_child(seed, index, traced, backend)))
    o.record["fingerprint"] = children[0][1]["fingerprint"]
    rows = [c[1]["clips"][0] for c in children]
    o.count_rows(rows)
    crcs = {c[1]["kernels_crc"] for c in children}
    if len(crcs) != 1:
        o.wrong.append(f"cold processes built different kernels: {sorted(crcs)}")
    if trace:
        untraced = [c for c in children if not c[0]]
        traced = [c for c in children if c[0]]
        wall = lambda cs: sum(c[1]["clips"][0]["latency_s"] +
                              c[1]["t_ready"] - c[1]["t_construct"] for c in cs)
        docs = [c[1] for c in traced]
        n_t = len(docs)
        acc = {}
        for d in docs:
            layer = probe_layers(d["layers"])
            counters, sums = registry_from_harness(d["layers"]["registry"])
            layer.update(registry_layers(counters, sums, 1))
            layer.update(span_layers(SpanTree(harness_spans(d)), "engine.submit", 1))
            for key, v in layer.items():
                acc[key] = acc.get(key, 0.0) + v / n_t
        o.metrics.update(acc)
        o.metrics.update(rows_layers([d["clips"][0] for d in docs]))
        o.metrics["obs.trace_overhead_ratio"] = wall(traced) / wall(untraced)
        return o
    ok = [r for r in rows if r["ok"]]
    o.metrics["setup_s"] = median([d["t_ready"] - t0 for _, d, t0 in children])
    first = [d["clips"][0]["t_end"] - t0 for _, d, t0 in children]
    o.metrics["first_mask_s"] = median(first)
    o.metrics["clips_per_s"] = len(ok) / sum(first)
    o.latency([r["latency_s"] for r in rows])
    o.quality([r["l2_nm2"] for r in ok], [r["pvb_nm2"] for r in ok])
    o.metrics["peak_rss_mb"] = max(d["peak_rss_mb"] for _, d, _ in children)
    o.notes.append(f"{len(children)} cold processes, "
                   f"{children[0][1]['kernels_count']} TCC kernels")
    return o


# -------------------------------------------------------- serve_closed


class Daemon:
    """`ganopc serve` on a kernel-assigned port, started and drained."""

    def __init__(self, workdir, tag, trace_out=None):
        self.dir = workdir / tag
        self.dir.mkdir(parents=True)
        self.port_file = self.dir / "port"
        cmd = [str(GANOPC), "serve", "--scale", "quick",
               "--litho-backend", SERVE_BACKEND, "--iters", str(SERVE_ITERS),
               "--workers", str(SERVE_WORKERS), "--generator", str(WEIGHTS),
               "--port", "0", "--port-file", str(self.port_file),
               "--spool-dir", str(self.dir / "spool")]
        if trace_out:
            cmd += ["--trace-out", str(trace_out)]
        env = dict(os.environ, GANOPC_THREADS=str(WORK_THREADS))
        self.log = open(self.dir / "serve.log", "w")
        self.t_spawn = time.monotonic()
        # Own process group, so the workers it forks can be found and reaped.
        self.proc = subprocess.Popen(cmd, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.port = None

    def wait_ready(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"ganopc serve exited {self.proc.returncode} "
                                 f"before ready, see {self.dir / 'serve.log'}")
            if self.port is None and self.port_file.is_file():
                text = self.port_file.read_text().strip()
                self.port = int(text) if text else None
            if self.port is not None:
                try:
                    status, _, body = self.get("/readyz")
                    if status == 200:
                        self.t_ready = time.monotonic()
                        self.readyz = json.loads(body)
                        return self.t_ready - self.t_spawn
                except OSError:
                    pass
            time.sleep(0.002)
        raise BenchError("ganopc serve not ready within 60 s")

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            r = conn.getresponse()
            return r.status, dict(r.getheaders()), r.read()
        finally:
            conn.close()

    def worker_peak_rss_mb(self):
        """Per-worker maximum of VmHWM over the daemon's child processes."""
        peak = 0.0
        pid = self.proc.pid
        try:
            kids = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
        except OSError:
            kids = []
        for kid in kids:
            try:
                status = Path(f"/proc/{kid}/status").read_text()
            except OSError:
                continue
            m = re.search(r"VmHWM:\s+(\d+) kB", status)
            if m:
                peak = max(peak, int(m.group(1)) / 1024.0)
        return peak

    def kill(self):
        """SIGKILL whatever is left of the daemon's process group and wait
        until the group is gone."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.log.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("ganopc serve did not drain within 60 s")
        if code != 0:
            raise BenchError(f"ganopc serve exited {code} on SIGTERM")


def request_schedule(seed, pool):
    """Seeded request stream: about half repeat an earlier clip, about a
    quarter ask for the PGM mask. Yields (clip index, want_pgm)."""
    rng = random.Random(seed)
    fresh, sent = 0, []
    while True:
        if sent and rng.random() < 0.5:
            clip = rng.choice(sent)
        else:
            clip = fresh % pool
            fresh += 1
            sent.append(clip)
        yield clip, rng.random() < 0.25


def post_optimize(port, body, request_id, want_pgm):
    path = "/v1/optimize" + ("?mask=pgm" if want_pgm else "")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    t0 = time.monotonic()
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "text/plain",
                              "X-Request-Id": request_id,
                              "Connection": "close"})
        r = conn.getresponse()
        data = r.read()
        return {"status": r.status, "headers": dict(r.getheaders()),
                "body": data, "t0": t0, "t1": time.monotonic()}
    finally:
        conn.close()


STAGES = ["queue", "dispatch", "decode", "litho", "ilt", "encode"]


def closed_loop(daemon, clips, schedule, seconds, tag):
    """SERVE_CLIENTS callers, each waiting for its answer before sending the
    next request, until `seconds` pass. Returns the responses in send order."""
    lock = threading.Lock()
    responses = []
    errors = []
    stop_at = time.monotonic() + seconds
    counter = [0]

    def client():
        while time.monotonic() < stop_at:
            with lock:
                n = counter[0]
                counter[0] += 1
                clip, want_pgm = next(schedule)
            c = clips[clip]
            try:
                r = post_optimize(daemon.port, c["body"], f"{tag}-r{n}", want_pgm)
            except (OSError, http.client.HTTPException) as e:
                errors.append(f"request {n}: {e}")
                return
            r.update({"n": n, "clip": clip, "want_pgm": want_pgm,
                      "request_id": f"{tag}-r{n}"})
            with lock:
                responses.append(r)

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - t0
    if errors:
        raise BenchError("HTTP client failed: " + "; ".join(errors[:3]))
    responses.sort(key=lambda r: r["n"])
    return responses, wall


def parse_prometheus(text):
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "{" not in name:
            values[name] = float(value)
    return values


def prom(values, series, suffix=""):
    return values.get("ganopc_" + re.sub(r"[^A-Za-z0-9]", "_", series) + suffix, 0.0)


def accepted(r):
    if r["status"] != 200:
        return False
    if r["want_pgm"]:
        return r["headers"].get("Content-Type", "").startswith("image/")
    return json.loads(r["body"]).get("ok", False)


def serve_phase(workdir, clips, seed, tag, seconds, setups, trace_out=None):
    """Start `setups` daemons in turn. Each but the last answers one request
    and drains; the last carries the closed loop for `seconds`."""
    ph = {"ready": [], "first": [], "responses": []}
    for s in range(setups):
        last = s + 1 == setups
        d = Daemon(workdir, f"{tag}{s}", trace_out if last else None)
        try:
            ph["ready"].append(d.wait_ready())
            if last:
                rs, ph["wall"] = closed_loop(d, clips, request_schedule(seed, len(clips)),
                                             seconds, tag)
                status, _, body = d.get("/metrics")
                if status != 200:
                    raise BenchError(f"/metrics answered {status}")
                ph["metrics"] = parse_prometheus(body.decode())
                ph["rss"] = d.worker_peak_rss_mb()
                ph["readyz"] = d.readyz
                ph["loop"] = rs
            else:
                rid = f"{tag}{s}-first"
                rs = [post_optimize(d.port, clips[0]["body"], rid, False)]
                rs[0].update(n=-1, clip=0, want_pgm=False, request_id=rid)
            if rs and accepted(rs[0]):
                ph["first"].append(rs[0]["t1"] - d.t_spawn)
            ph["responses"] += rs
            d.stop()
        finally:
            d.kill()
    return ph


def verify_serve(o, workdir, clips, responses, trace):
    """Every accepted PGM mask re-scored, the first few distinct clips of
    each kind recomputed in-process."""
    manifest, seen = [], {"pgm": set(), "json": set()}
    for r in responses:
        if not accepted(r):
            continue
        kind = "pgm" if r["want_pgm"] else "json"
        entry = {"request_id": r["request_id"], "kind": kind,
                 "clip_path": clips[r["clip"]]["path"],
                 "compare": len(seen[kind]) < 3 and r["clip"] not in seen[kind]}
        seen[kind].add(r["clip"])
        if kind == "pgm":
            body_path = workdir / f"{r['request_id']}.pgm"
            body_path.write_bytes(r["body"])
            entry.update(body_path=str(body_path),
                         l2_header=r["headers"].get("X-Ganopc-L2-Nm2", ""))
        else:
            entry["row"] = json.loads(r["body"])
        manifest.append(entry)
    if not manifest:
        raise BenchError("no accepted serve response to verify")
    mpath = workdir / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    verdict = harness(["verify-serve", "--manifest", str(mpath), "--trace", str(trace),
                       "--backend", SERVE_BACKEND, "--iters", str(SERVE_ITERS),
                       "--weights", str(WEIGHTS)], CHECK_THREADS)
    check_weights(verdict)
    o.wrong += [f"{w['request_id']}: {w['why']}" for w in verdict["wrong"]]
    wrong_ids = {w["request_id"] for w in verdict["wrong"]}
    for r in responses:
        o.attempted += 1
        if not accepted(r) or r["request_id"] in wrong_ids:
            o.failed += 1
    o.record["fingerprint"] = {**verdict["fingerprint"], "ganopc_threads":
                               f"{WORK_THREADS} x {SERVE_WORKERS} workers"}
    return verdict


def run_serve(seed, seconds, trace, smoke):
    workdir = OUT / f"serve-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return serve_workload(workdir, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_workload(workdir, seed, seconds, trace, smoke):
    pool = max(8, int(seconds * 8) + 8)  # more distinct clips than requests need
    clips = harness(["clips", "--seed", str(seed), "--count", str(pool),
                     "--out-dir", str(workdir)], 1)
    for c in clips:
        c["body"] = Path(c["path"]).read_bytes()
    o = Outcome()
    if trace:
        # Same request stream on a plain daemon, then on one with tracing on.
        load = serve_phase(workdir, clips, seed, "load", seconds / 2, 1)
        traced = serve_phase(workdir, clips, seed, "traced", seconds / 2, 1,
                             workdir / "trace.json")
        verdict = verify_serve(o, workdir, clips,
                               load["responses"] + traced["responses"], 1)
        rs = traced["loop"]
        values = traced["metrics"]
        clips_done = prom(values, "batch.clip.calls")
        counters = {series: prom(values, series)
                    for series in [*PER_CLIP_COUNTERS.values(), *TOTAL_COUNTERS]}
        sums = {series: prom(values, series, "_sum") for series in PER_CLIP_BUSY.values()}
        o.metrics.update(probe_layers(verdict["layers"]))
        o.metrics.update(rows_layers([json.loads(r["body"]) for r in rs
                                      if accepted(r) and not r["want_pgm"]]))
        o.metrics.update(registry_layers(counters, sums, clips_done))
        o.metrics.update(span_layers(SpanTree(chrome_spans(workdir / "trace.json")),
                                     "batch.clip", clips_done))
        lat = lambda ph: statistics.fmean(r["t1"] - r["t0"] for r in ph["loop"])
        o.metrics["obs.trace_overhead_ratio"] = lat(traced) / lat(load)
        stage_notes(o, rs)
        return o

    load = serve_phase(workdir, clips, seed, "load", seconds, 1 if smoke else 2)
    verdict = verify_serve(o, workdir, clips, load["responses"], 0)
    rs = load["loop"]
    ok = [r for r in rs if accepted(r)]
    o.metrics["setup_s"] = median(load["ready"])
    o.metrics["first_mask_s"] = median(load["first"])
    o.metrics["clips_per_s"] = len(ok) / load["wall"]
    o.latency([r["t1"] - r["t0"] for r in rs])
    l2s, pvbs = [], []
    for r in ok:
        if r["want_pgm"]:  # the PGM answer carries L2 only; PVB is re-scored
            l2s.append(float(r["headers"]["X-Ganopc-L2-Nm2"]))
            pvbs.append(verdict["pvb_nm2"][r["request_id"]])
        else:
            row = json.loads(r["body"])
            l2s.append(row["l2_nm2"])
            pvbs.append(row["pvb_nm2"])
    o.quality(l2s, pvbs)
    o.metrics["peak_rss_mb"] = load["rss"]
    o.record["readyz"] = load["readyz"]
    sent = set()
    repeats = 0
    for r in rs:
        repeats += r["clip"] in sent
        sent.add(r["clip"])
    o.notes.append(f"{len(rs)} requests in {load['wall']:.2f} s, {repeats} repeats, "
                   f"{sum(r['want_pgm'] for r in rs)} PGM; "
                   f"{verdict['rescored']} PGM masks re-scored, "
                   f"{verdict['compared']} recomputed in-process")
    stage_notes(o, rs)
    return o


def stage_notes(o, rs):
    """serve.stage.* from the X-Ganopc-Stage-*-S headers, as raw per-request
    samples, and serve.client_overhead_s. The stage headers overlap (the litho
    stage sums nested litho spans, including those inside ILT), so the client
    overhead is taken against the daemon's own request wall (`wall_s`, JSON
    answers only): what HTTP, connect and the client add on top."""
    samples = {s: [] for s in STAGES}
    overhead = []
    for r in rs:
        h = r["headers"]
        if "X-Ganopc-Stage-Queue-S" in h:
            for s in STAGES:
                samples[s].append(float(h[f"X-Ganopc-Stage-{s.capitalize()}-S"]))
        if accepted(r) and not r["want_pgm"]:
            overhead.append((r["t1"] - r["t0"]) - json.loads(r["body"])["wall_s"])
    parts = [f"serve.stage.{s}_s p50 {median(samples[s]):.6f} s" for s in STAGES]
    parts.append(f"serve.client_overhead_s p50 {median(overhead):.6f} s")
    o.notes.append(f"{len(samples['queue'])} stage samples: " + ", ".join(parts))
    o.record["serve_stage_samples"] = {**{f"serve.stage.{s}_s": samples[s]
                                          for s in STAGES},
                                       "serve.client_overhead_s": overhead}


# -------------------------------------------------------------------- main

WORKLOADS = {"session_abbe": run_session, "oneshot_tcc": run_oneshot,
             "serve_closed": run_serve}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: one setup per run, tcc:8 for oneshot")
    args = ap.parse_args(argv)
    try:
        if crc32_file(WEIGHTS) != WEIGHTS_CRC:
            raise BenchError(f"{WEIGHTS} does not have crc32 {WEIGHTS_CRC}")
        build()
        OUT.mkdir(exist_ok=True)
        o = WORKLOADS[args.workload](args.seed, args.seconds, args.trace, args.smoke)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    fail_ratio = o.failed / o.attempted if o.attempted else 1.0
    if not args.trace:
        o.metrics["accept_ratio"] = 1.0 - fail_ratio
    units = LAYER_UNITS if args.trace else E2E_UNITS
    printed = units if args.trace else {**E2E_UNITS, **E2E_PRINTED}
    missing = [k for k in printed if k not in o.metrics]
    if missing:
        print(f"perfbench: metrics missing: {missing}", file=sys.stderr)
        return 2
    fp = o.record.get("fingerprint", {})
    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log("fingerprint " + json.dumps(fp, sort_keys=True) +
        f" weights_crc32={WEIGHTS_CRC}")
    for k, unit in printed.items():
        log(f"  {k:34s} {o.metrics[k]:.6g} {unit} {o.annotations.get(k, '')}".rstrip())
    log(f"  {'fail_ratio':34s} {fail_ratio:.6g} ratio "
        f"({o.failed} failed of {o.attempted} attempted)")
    for note in o.notes:
        log("  # " + note)
    for w in o.wrong:
        log("  WRONG " + w)
    correct = not o.wrong and o.attempted > 0
    metrics = {k: {"value": o.metrics[k], "unit": units[k]} for k in units}
    result = {"correct": correct, "attempted": o.attempted, "failed": o.failed,
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "fingerprint": fp,
                    "printed": {k: o.metrics[k] for k in printed if k not in units},
                    "fail_ratio": fail_ratio, "notes": o.notes, "wrong": o.wrong,
                    **o.record}, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

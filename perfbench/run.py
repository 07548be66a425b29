#!/usr/bin/env python3
"""End-to-end sweep benchmark of the MATIC reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload canonical --seed 42 --seconds 25 --trace 0

Workloads (all seed-driven, `--scale 0.5 --epochs 0.5`, modes naive,mat,
8 chips, 2 workers):

* canonical -- `matic sweep --voltages 0.46:0.90:5 --benchmarks all`;
* conv      -- the same voltages, mnist with a conv3x4/pool2 layer chain;
* clock     -- `--clock-stress 0.0:0.8:5 --benchmarks all` (timing errors);
* served    -- two `matic serve --workers 1` daemons (Unix socket, HTTP)
               sharing a fresh cache: one cold sharded sweep of the
               canonical grid, then two closed-loop clients, one per
               transport, resubmitting it as warm jobs.

`--trace 0` measures the end-to-end metrics with nothing traced. Batch
workloads run the `matic sweep` CLI back to back for `--seconds`; set-up
(plan build, `sweep_splits`, pool construction) is timed in-process.
`--trace 1` runs one untraced sweep, then the traced walk
(`perfbench/src/walk.rs`), which re-walks every unit calling the
program's public functions with a span around each layer call, and
prints the per-layer metrics. Spans go to `.perfbench/` when the run
ends.

Every sweep report is checked byte for byte against the reference digest
of its grid and seed: `perfbench/refs.txt` holds digests from `matic
sweep` for seeds 0-31 and 42; for any other seed the first report of the
grid made in this checkout becomes the reference (kept in
`.perfbench/refs.txt`). The served workload's reports must equal the
canonical grid's. The last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("canonical", "conv", "clock", "served")
# The reference grid each workload's reports must reproduce.
GRID = {"canonical": "canonical", "conv": "conv", "clock": "clock", "served": "canonical"}
SETUP_REPS = 15
MIN_SWEEPS = 2
MIN_COVERAGE = 0.95


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds `matic` and the in-process half; returns their paths."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (["--bin", "matic"], ["--manifest-path", os.path.join(BENCH, "Cargo.toml")]):
        if subprocess.run(cargo + extra, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            sys.exit(f"perfbench: `{' '.join(cargo + extra)}` failed")
    release = os.path.join(os.path.abspath(target), "release")
    return os.path.join(release, "matic"), os.path.join(release, "perfbench")


def perfbench(exe, *args):
    out = subprocess.run([exe, *map(str, args)], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Refs:
    """Reference report digests by (grid, seed)."""

    def __init__(self):
        self.committed = self._load(os.path.join(BENCH, "refs.txt"))
        self.local_path = os.path.join(WORK, "refs.txt")
        self.local = self._load(self.local_path)

    @staticmethod
    def _load(path):
        refs = {}
        if os.path.exists(path):
            with open(path) as f:
                for line in f:
                    grid, seed, digest = line.split()
                    refs[(grid, int(seed))] = digest
        return refs

    def get(self, grid, seed):
        return self.committed.get((grid, seed)) or self.local.get((grid, seed))

    def record(self, grid, seed, digest):
        log(f"no committed reference for {grid} seed {seed}; "
            f"this checkout's first report ({digest[:12]}) becomes it")
        self.local[(grid, seed)] = digest
        with open(self.local_path, "a") as f:
            f.write(f"{grid} {seed} {digest}\n")


def check_digest(refs, grid, seed, path):
    digest = sha256(path)
    ref = refs.get(grid, seed)
    if ref is None:
        refs.record(grid, seed, digest)
        return True
    if digest != ref:
        log(f"{grid} seed {seed}: report digest {digest} != reference {ref}")
        return False
    return True


def run_sweep(matic, args, out):
    """One `matic sweep` process: (wall s, cpu s, peak RSS MiB, exit ok)."""
    start = time.perf_counter()
    proc = subprocess.Popen([matic, *args, "--out", out], cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"matic sweep exited with {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode == 0


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1])."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def batch_e2e(opts, matic, pb, refs, scratch):
    grid = GRID[opts.workload]
    args = perfbench(pb, "args", opts.workload, opts.seed).splitlines()
    setup = json.loads(perfbench(pb, "setup", opts.workload, opts.seed, SETUP_REPS))["setup_s"]
    out = os.path.join(scratch, "report.json")
    sweeps, attempted = [], 0
    start = time.perf_counter()
    while True:
        attempted += 1
        wall, cpu, rss, ok = run_sweep(matic, args, out)
        if ok and check_digest(refs, grid, opts.seed, out):
            sweeps.append((wall, cpu, rss))
        elapsed = time.perf_counter() - start
        # Start another sweep only if it should end within the window.
        if attempted >= MIN_SWEEPS and elapsed + 0.5 * wall > opts.seconds:
            break
    if not sweeps:
        sys.exit(f"perfbench: every {opts.workload} sweep failed")
    with open(out) as f:
        cells = len(json.load(f)["cells"])
    walls = [w for w, _, _ in sweeps]
    log(f"{len(sweeps)} sweeps of {cells} cells: " + ", ".join(f"{w:.2f}s" for w in walls))
    metrics = {
        "cells_per_s": statistics.median(cells / w for w in walls),
        "cpu_ms_per_cell": statistics.median(c * 1000 / cells for _, c, _ in sweeps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r for _, _, r in sweeps),
        # A batch job is one whole sweep, start to report.
        "warm_job_p50_s": statistics.median(walls),
        "warm_job_p75_s": quantile(walls, 0.75),
    }
    return metrics, attempted, attempted - len(sweeps)


def served_run(opts, matic, pb, refs, scratch):
    """Runs the daemon workload; returns its raw record and failure count."""
    rel = os.path.relpath(scratch, ROOT)
    report = os.path.join(rel, "cold.json")
    raw = json.loads(perfbench(pb, "served", opts.seed, "--seconds", opts.seconds,
                               "--matic", matic, "--dir", rel, "--report-out", report))
    if refs.get("canonical", opts.seed) is None:
        # The reference comes from `matic sweep`, not from the daemons.
        args = perfbench(pb, "args", "canonical", opts.seed).splitlines()
        ref_out = os.path.join(scratch, "reference.json")
        run_sweep(matic, args, ref_out)
        refs.record("canonical", opts.seed, sha256(ref_out))
    failed = raw["failed"]
    if not check_digest(refs, "canonical", opts.seed, report):
        failed += raw["cold_dependent"]
    return raw, os.path.join(ROOT, report), failed


def served_e2e(opts, matic, pb, refs, scratch):
    raw, _, failed = served_run(opts, matic, pb, refs, scratch)
    warm, cells = raw["warm_s"], raw["cells"]
    log(f"cold {', '.join(f'{w:.2f}s' for w in raw['cold_wall_s'])}; {len(warm)} warm jobs, "
        f"p50 {statistics.median(warm):.3f}s")
    metrics = {
        "cells_per_s": statistics.median(cells / w for w in raw["cold_wall_s"]),
        "cpu_ms_per_cell": statistics.median(c * 1000 / cells for c in raw["cold_cpu_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "warm_job_p50_s": statistics.median(warm),
        "warm_job_p75_s": quantile(warm, 0.75),
    }
    return metrics, raw["attempted"], failed


def check_counts(opts, counts):
    """Counts of one (workload, seed) must repeat exactly across runs."""
    path = os.path.join(WORK, f"counts-{opts.workload}-{opts.seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            log(f"layer counts differ from an earlier run: {before} != {counts}")
            return False
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
    return True


def traced(opts, matic, pb, refs, scratch, per_layer):
    spans = os.path.join(WORK, f"spans-{opts.workload}-{opts.seed}.jsonl")
    serve = {}
    if opts.workload == "served":
        raw, report, failed = served_run(opts, matic, pb, refs, scratch)
        attempted, untraced_wall = raw["attempted"], statistics.median(raw["cold_wall_s"])
        cache = ["--cache-dir", os.path.join(scratch, "trace-cache")]
        serve = {
            "serve.accept_s": statistics.median(raw["accept_s"]),
            "serve.first_progress_s": statistics.median(raw["first_progress_s"]),
            "serve.done_tail_s": statistics.median(raw["done_tail_s"]),
            "serve.done_bytes": statistics.median(raw["done_bytes"]),
            "serve.retries": raw["retries"],
            "serve.shard_skew_s": statistics.median(raw["shard_skew_s"]),
            "transport.unix_job_p50_s": statistics.median(raw["unix_s"]),
            "transport.http_job_p50_s": statistics.median(raw["http_s"]),
        }
    else:
        args = perfbench(pb, "args", opts.workload, opts.seed).splitlines()
        report = os.path.join(scratch, "report.json")
        untraced_wall, _, _, ok = run_sweep(matic, args, report)
        ok = ok and check_digest(refs, GRID[opts.workload], opts.seed, report)
        attempted, failed, cache = 1, int(not ok), []
        if not ok:
            return {}, attempted, failed, False
    result = json.loads(perfbench(pb, "trace", opts.workload, opts.seed, "--report", report,
                                  "--seconds", max(opts.seconds - untraced_wall, 0),
                                  "--spans", spans, *cache))
    correct = result["ok"]
    if not correct:
        log(f"traced walk: {result['problems']}")
    metrics = dict(result["metrics"])
    counts = result["counts"]
    correct &= check_counts(opts, counts)
    walls = result["walk_wall_s"]
    attempted += len(walls)
    if opts.workload != "served" and metrics["trace.coverage_frac"] < MIN_COVERAGE:
        log(f"layer spans cover {metrics['trace.coverage_frac']:.3f} of the traced time")
        correct = False
    metrics.update({k: v for k, v in counts.items() if k in per_layer})
    metrics.update(serve)
    # The served trace's first walk is the cold one the sharded job matches.
    traced_wall = walls[0] if opts.workload == "served" else statistics.median(walls)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    log(f"traced walks {', '.join(f'{w:.2f}s' for w in walls)} vs untraced {untraced_wall:.2f}s")
    return metrics, attempted, failed, correct


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    matic, pb = build()
    os.makedirs(WORK, exist_ok=True)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    refs = Refs()
    try:
        if opts.trace:
            metrics, attempted, failed, correct = traced(opts, matic, pb, refs, scratch,
                                                         per_layer)
            wanted = per_layer
            # Layers a workload does not reach report zero.
            metrics = {k: metrics.get(k, 0) for k in wanted}
        else:
            run = served_e2e if opts.workload == "served" else batch_e2e
            metrics, attempted, failed = run(opts, matic, pb, refs, scratch)
            metrics["ok_frac"] = 1 - failed / attempted
            correct = True
            wanted = end_to_end
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = correct and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }))


if __name__ == "__main__":
    main()

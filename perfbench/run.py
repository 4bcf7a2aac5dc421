#!/usr/bin/env python3
"""End-to-end benchmark of the Haechi simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload burst_zipf_qos --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

--seconds defaults to run_seconds in BENCHMARK.json.

The script builds the perfbench test binary from source into .bench_build/
(Go build cache included, so nothing is written outside the checkout), then
starts one process per measurement: each builds a cluster with cluster.New
and runs it with Cluster.Run, timing both calls from outside (see
measure_test.go). It repeats untraced runs for --seconds and reports medians.
With --trace 1 each repetition is an untraced run, a traced run (flight
recorder on) and a CPU-profiled run, and the per-layer metrics come from
those. Every invocation also makes one sanitized run.

Correctness: a run fails if Cluster.Run errors, the output checks in
workloads.go fail, the sanitizer reports a violation, or a repeat of the
same seed gives a different Results digest or different per-layer counts.

The metric names, units and directions come from BENCHMARK.json. Human
readable lines go first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TEST_BIN = os.path.join(BUILD_DIR, "perfbench.test")
CHILD_TIMEOUT_S = 60
# Every invocation measures at least this many repetitions, so a same-seed
# repeat is always compared and a median exists even for short --seconds.
MIN_REPS = {0: 3, 1: 1}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    """Environment for the toolchain and the measured processes: caches,
    temporaries and the toolchain's config directory (telemetry) under
    .bench_build, no toolchain download, no cgo, and at most two scheduler
    threads so runs compare across machines."""
    env = dict(os.environ)
    env.update({
        "XDG_CONFIG_HOME": os.path.join(BUILD_DIR, "config"),
        "GOCACHE": os.path.join(BUILD_DIR, "gocache"),
        "GOPATH": os.path.join(BUILD_DIR, "gopath"),
        "GOTMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "TMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "PPROF_TMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
        "GOMAXPROCS": str(min(2, len(os.sched_getaffinity(0)))),
    })
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    os.makedirs(os.path.join(BUILD_DIR, "runs"), exist_ok=True)
    proc = subprocess.run(["go", "test", "-c", "-o", TEST_BIN, "."], cwd=BENCH_DIR, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        die("build failed:\n" + proc.stdout)


def child(env, workload, seed, mode):
    """Runs one measurement process; returns its record, or one carrying an
    "error" key if the process failed."""
    out = os.path.join(BUILD_DIR, "runs", "%s-%d-%s.json" % (workload, seed, mode))
    if os.path.exists(out):
        os.remove(out)
    cmd = [TEST_BIN, "-test.run=^TestMeasure$", "-test.count=1",
           "-test.timeout=%ds" % CHILD_TIMEOUT_S,
           "-perfbench.workload", workload, "-perfbench.seed", str(seed),
           "-perfbench.mode", mode, "-perfbench.out", out]
    try:
        proc = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=CHILD_TIMEOUT_S + 10)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": "timed out"}
    rec = {"mode": mode}
    if os.path.exists(out):
        with open(out) as f:
            rec = json.load(f)
        os.remove(out)
    if proc.returncode != 0 and "error" not in rec:
        rec["error"] = "exit %d: %s" % (proc.returncode, proc.stdout.strip()[-2000:])
    return rec


def repeat(env, workload, seed, seconds, modes, min_reps):
    """Runs the modes in turn until the next round would overrun the
    budget (but at least min_reps rounds), then one sanitized run."""
    runs = []
    start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        for mode in modes:
            runs.append(child(env, workload, seed, mode))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_reps and elapsed + (time.monotonic() - t0) > seconds:
            break
    runs.append(child(env, workload, seed, "sanitize"))
    return runs


def judge(runs):
    """Marks failed runs. Same-seed runs must agree on the Results digest
    and on every deterministic count, whatever their mode."""
    ref = next((r for r in runs if "error" not in r), None)
    for r in runs:
        if "error" in r or ref is None:
            continue
        if r["digest"] != ref["digest"]:
            r["error"] = "results digest %s differs from %s" % (r["digest"], ref["digest"])
        elif r["counts"] != ref["counts"] or r["simulated"] != ref["simulated"]:
            r["error"] = "deterministic counts differ between runs of one seed"
    return ref


med = statistics.median


def end_to_end(ok, ref):
    plain = [r for r in ok if r["mode"] == "plain"]
    events = ref["simulated"]["events"]
    out = dict(ref["simulated"])
    out.update({
        "setup_s": med([r["setup_s"] for r in plain]),
        "run_s": med([r["run_s"] for r in plain]),
        "events_per_s": med([events / r["run_s"] for r in plain]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in plain]),
        "allocs_per_event": med([r["mallocs"] / events for r in plain]),
    })
    return out


def per_layer(ok, ref, names):
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "trace"]
    profiled = [r for r in ok if r["mode"] == "profile"]
    events = ref["simulated"]["events"]
    out = dict(ref["counts"])
    out.update(next(r["stages"] for r in traced))
    for name in names:
        if name.endswith(".cpu_s") or name in ("runtime.copy_cpu_s", "runtime.alloc_cpu_s"):
            # A layer with no samples in a profile spent under one sample
            # period there.
            out[name] = med([r["cpu"].get(name, 0.0) for r in profiled])
    out.update({
        "runtime.gc_cpu_s": med([r["gc_cpu_s"] for r in profiled]),
        "runtime.alloc_bytes_per_event": med([r["alloc_bytes"] / events for r in plain + profiled]),
        "cluster.heap_bytes_per_client": med([r["heap_growth"] / r["clients"] for r in plain + profiled]),
        "trace_overhead": med([r["run_s"] for r in traced]) / med([r["run_s"] for r in plain]),
    })
    return out


def measure(env, workload, seed, seconds, trace, spec):
    modes = ["plain", "trace", "profile"] if trace else ["plain"]
    runs = repeat(env, workload, seed, seconds, modes, MIN_REPS[trace])
    ref = judge(runs)
    failed = [r for r in runs if "error" in r]
    for r in failed:
        print("FAILED %s %s run: %s" % (workload, r["mode"], r["error"]), file=sys.stderr)
    ok = [r for r in runs if "error" not in r]
    metrics = {}
    if ref is not None and all(any(r["mode"] == m for r in ok) for m in modes):
        kind = "per_layer" if trace else "end_to_end"
        if trace:
            values = per_layer(ok, ref, [m["name"] for m in spec[kind]])
        else:
            values = end_to_end(ok, ref)
        for m in spec[kind]:
            if m["name"] not in values:
                die("%s produced no %s" % (workload, m["name"]))
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("digest %s seed=%d %s" % (workload, seed, ref["digest"]))
        print("sim_io_* summarize %d simulated I/Os" % ref["simulated"]["io_samples"])
    return {"correct": not failed and bool(metrics), "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = go_env()
    build(env)
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    for w in todo:
        res = measure(env, w, args.seed, args.seconds, args.trace, spec)
        results[w] = res
        print("%s: runs_failed %d / runs_attempted %d" % (w, res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    if len(todo) == 1:
        final = results[todo[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()

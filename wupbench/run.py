#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 wupbench/run.py --workload hostile-2k-t2 --seed 7 --seconds 50 --trace 0

Builds the simulator library and the benchmark driver from source (Release,
into .bench_build/wupbench, or $CARGO_TARGET_DIR/wupbench when set), runs one
workload, and prints the driver's JSON result as the last line of stdout:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a separate traced run and also writes, under .bench_out/,
<workload>-seed<N>.layers.json (the per-layer metrics) and
<workload>-seed<N>.trace.json (Chrome trace-event spans, with each span's
self time under "otherData"). See wupbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(msg):
    print(f"[wupbench] {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under cmake included) and waits for it before raising."""
    with subprocess.Popen(cmd, stdout=stdout, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "wupbench")


def build():
    """Configures once, then builds the driver incrementally. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "analysis", "runner.hpp")):
        raise RuntimeError(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "wupbench_driver", "--parallel", "4"])
    for cmd in steps:
        code, _ = run(cmd, max(1.0, deadline - time.monotonic()), sys.stderr)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with code {code}")
    return os.path.join(out, "wupbench_driver")


def self_times(trace):
    """Per span name: count, total and self time (ms) on each thread.

    A span's self time is its duration minus the part covered by its direct
    children, i.e. spans nested inside it on the same thread.
    """
    by_tid = {}
    for event in trace["traceEvents"]:
        by_tid.setdefault(event["tid"], []).append(event)
    totals = {}
    for events in by_tid.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, dur, covered]

        def close(frame):
            entry = totals.setdefault(frame[1], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += frame[2] / 1e3
            entry["self_ms"] += max(0.0, frame[2] - frame[3]) / 1e3

        for event in events:
            start, dur = event["ts"], event["dur"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, event["name"], dur, 0.0])
        while stack:
            close(stack.pop())
    return dict(sorted(totals.items()))


def annotate_trace(path):
    """Adds per-span self times to the trace file; returns the stage self times."""
    with open(path) as f:
        trace = json.load(f)
    spans = self_times(trace)
    stages = {name: spans[name]["self_ms"] for name in
              ("bench.setup", "bench.warmup", "bench.publication", "bench.drain",
               "bench.collect") if name in spans}
    trace["otherData"] = {"stage_self_ms": stages, "spans": spans}
    with open(path, "w") as f:
        json.dump(trace, f)
    return stages


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        driver = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    stem = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
        cmd += ["--trace-out", stem + ".trace.json"]
    try:
        code, stdout = run(cmd, DRIVER_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"driver timed out after {DRIVER_TIMEOUT_S} s")
        return 3
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        log(f"driver exited with code {code}")
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver printed no result line")
        return 3
    for line in lines[:-1]:
        print(line)

    if stem is not None:
        stages = annotate_trace(stem + ".trace.json")
        log("stage self time (ms): " +
            ", ".join(f"{k} {v:.1f}" for k, v in stages.items()))
        with open(stem + ".layers.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": result["metrics"]}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

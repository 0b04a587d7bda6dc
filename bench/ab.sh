#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark (wupbench/) between two
# checkouts of this repository.
#
#   bench/ab.sh PARENT CHANGE N [FIRST_SEED] [SECONDS]
#
# For each of N pairs (workload seeds FIRST_SEED .. FIRST_SEED+N-1; default
# 101) and each workload named in PARENT's BENCHMARK.json (read only), runs
#
#   python3 wupbench/run.py --workload W --seed S --trace 0 [--seconds SECONDS]
#
# once in each checkout. Even pairs run PARENT first, odd pairs CHANGE
# first, so a slow drift of the host does not favour one side. Each
# checkout builds its own driver (wupbench/run.py builds incrementally into
# its own .bench_build/); nothing else runs in between, so keep the box
# otherwise idle.
#
# Prints, per workload and end-to-end metric of BENCHMARK.json: the median
# of each side, the change/parent ratio of the medians, the parent's
# inter-quartile range over its median (the noise a claimed gain has to
# beat) and the pairs won by each side. Then, per seed: whether `f1` and
# `msgs_per_user` are equal on both sides (they are exact per seed) and
# the `failed` counts. The raw per-run results go to .bench_out/ab.json.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 PARENT CHANGE N [FIRST_SEED] [SECONDS]" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
PAIRS="$3"
FIRST_SEED="${4:-101}"
SECONDS_ARG="${5:-}"

mkdir -p "$ROOT/.bench_out"

python3 - "$PARENT" "$CHANGE" "$PAIRS" "$FIRST_SEED" "$SECONDS_ARG" \
  "$ROOT/.bench_out/ab.json" <<'EOF'
import json
import statistics
import subprocess
import sys

parent, change, pairs, first_seed, seconds, out_path = sys.argv[1:]
pairs, first_seed = int(pairs), int(first_seed)
sides = {"parent": parent, "change": change}

with open(f"{parent}/BENCHMARK.json") as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]


def run(side, workload, seed):
    cmd = ["python3", "wupbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds:
        cmd += ["--seconds", seconds]
    proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"  {side} {workload} seed {seed}: run failed "
              f"(exit {proc.returncode})", file=sys.stderr, flush=True)
    return result


results = {w: {"parent": {}, "change": {}} for w in workloads}
for i in range(pairs):
    seed = first_seed + i
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for workload in workloads:
        for side in order:
            print(f"[ab] pair {i + 1}/{pairs} {workload} seed {seed}: {side}",
                  file=sys.stderr, flush=True)
            results[workload][side][seed] = run(side, workload, seed)

with open(out_path, "w") as f:
    json.dump(results, f, indent=1)


def value(result, name):
    if result is None:
        return None
    metric = result["metrics"].get(name)  # {"value": ..., "unit": ...}
    return metric["value"] if metric is not None else None


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


for workload in workloads:
    runs = results[workload]
    seeds = sorted(runs["parent"])
    print(f"\n== {workload} ({len(seeds)} pairs)")
    print(f"{'metric':<22}{'parent':>12}{'change':>12}{'ratio':>8}"
          f"{'p.IQR/med':>11}{'won p/c':>10}")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pv = [value(runs["parent"][s], name) for s in seeds]
        cv = [value(runs["change"][s], name) for s in seeds]
        both = [(p, c) for p, c in zip(pv, cv) if p is not None and c is not None]
        if not both:
            print(f"{name:<22}{'(no data)':>12}")
            continue
        pm = statistics.median(p for p, _ in both)
        cm = statistics.median(c for _, c in both)
        ratio = cm / pm if pm else float("nan")
        spread = iqr([p for p, _ in both]) / pm if pm else float("nan")
        won_p = sum(1 for p, c in both if (p > c if higher else p < c))
        won_c = sum(1 for p, c in both if (c > p if higher else c < p))
        print(f"{name:<22}{pm:>12.4g}{cm:>12.4g}{ratio:>8.3f}"
              f"{spread:>11.3f}{won_p:>5}/{won_c:<4}")
    print("per seed: f1 equal, msgs_per_user equal, failed parent/change")
    for s in seeds:
        p, c = runs["parent"][s], runs["change"][s]
        same = {n: value(p, n) is not None and value(p, n) == value(c, n)
                for n in ("f1", "msgs_per_user")}
        fp = p["failed"] if p is not None else "run failed"
        fc = c["failed"] if c is not None else "run failed"
        print(f"  seed {s}: f1 {'=' if same['f1'] else '!='}, "
              f"msgs_per_user {'=' if same['msgs_per_user'] else '!='}, "
              f"failed {fp}/{fc}")
EOF

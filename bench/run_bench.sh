#!/usr/bin/env bash
# Runs the perf-tracking benchmarks (micro kernels + macro simulation) and
# writes a merged BENCH_micro.json at the repo root, so every PR leaves a
# perf trajectory behind.
#
#   bench/run_bench.sh [output.json]
#
# Environment:
#   BUILD_DIR     build tree with bench binaries (default: build; configure
#                 with -DWHATSUP_BENCH=ON)
#   MICRO_FILTER  --benchmark_filter for micro_primitives (default: all)
#   MACRO_FILTER  --benchmark_filter for macro_sim        (default: all)
#   MIN_TIME      --benchmark_min_time per micro benchmark (default: 0.5)
#   SCENARIO      .scn spec forwarded to macro_sim's custom row
#                 (--scenario; adds a BM_WhatsUpSim_Custom row at 500
#                 nodes under the timeline — see scenarios/)
#   ALLOW_DEBUG   set to 1 to record from a non-Release build tree and/or a
#                 non-release benchmark LIBRARY anyway (the JSON keeps both
#                 stamps in context: "build_type" for the tree and the
#                 library's own "library_build_type"). Both are refused by
#                 default so a slow baseline can never silently land in
#                 BENCH_micro.json.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_micro.json}
MICRO_FILTER=${MICRO_FILTER:-.}
MACRO_FILTER=${MACRO_FILTER:-.}
MIN_TIME=${MIN_TIME:-0.5}
ALLOW_DEBUG=${ALLOW_DEBUG:-0}

for bin in micro_primitives macro_sim; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "error: $BUILD_DIR/$bin not found — configure with -DWHATSUP_BENCH=ON" >&2
    exit 1
  fi
done

# CMake stamps the configured build type into the tree (see CMakeLists.txt).
BUILD_TYPE=unknown
if [[ -f "$BUILD_DIR/whatsup_build_type.txt" ]]; then
  BUILD_TYPE=$(<"$BUILD_DIR/whatsup_build_type.txt")
fi
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != "1" ]]; then
  echo "error: $BUILD_DIR is a '$BUILD_TYPE' tree, not Release — perf numbers" >&2
  echo "       from it are not comparable. Reconfigure with" >&2
  echo "       'cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release -DWHATSUP_BENCH=ON'" >&2
  echo "       or set ALLOW_DEBUG=1 to record anyway (tagged in the JSON)." >&2
  exit 1
fi
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "warning: recording from a '$BUILD_TYPE' tree (ALLOW_DEBUG=1)" >&2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$BUILD_DIR/micro_primitives" \
  --benchmark_filter="$MICRO_FILTER" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$tmp/micro.json" --benchmark_out_format=json

# The benchmark library stamps its own build flavor into the JSON context
# (library_build_type). A debug-assert library — e.g. Debian's package,
# which CMake falls back to when the source build can't be fetched — skews
# kernel timings even under a Release tree, so refuse it like a Debug tree.
LIB_BUILD_TYPE=$(python3 -c "
import json, sys
print(json.load(open(sys.argv[1])).get('context', {}).get('library_build_type', 'unknown'))
" "$tmp/micro.json")
if [[ "$LIB_BUILD_TYPE" != "release" && "$ALLOW_DEBUG" != "1" ]]; then
  echo "error: the benchmark library reports library_build_type='$LIB_BUILD_TYPE'," >&2
  echo "       not 'release' — its timings are not comparable. Reconfigure with" >&2
  echo "       network access so CMake builds the library from source matching" >&2
  echo "       the tree, or set ALLOW_DEBUG=1 to record anyway (tagged in the" >&2
  echo "       JSON)." >&2
  exit 1
fi
if [[ "$LIB_BUILD_TYPE" != "release" ]]; then
  echo "warning: benchmark library_build_type='$LIB_BUILD_TYPE' (ALLOW_DEBUG=1)" >&2
fi

"$BUILD_DIR/macro_sim" \
  ${SCENARIO:+--scenario="$SCENARIO"} \
  --benchmark_filter="$MACRO_FILTER" \
  --benchmark_out="$tmp/macro.json" --benchmark_out_format=json

# One short instrumented run (src/obs/ registry) so every baseline carries
# a protocol-level stats summary next to the timing rows: what the
# simulation DID (messages delivered/routed, retransmits, similarity
# evaluations, snapshot decodes), not just how fast it did it. Untimed —
# telemetry rides a separate custom row and never touches the rows above.
"$BUILD_DIR/macro_sim" --nodes=500 --items=30 --cycles=60 \
  --benchmark_filter=BM_WhatsUpSim_Custom --benchmark_min_time=0.01 \
  --stats-json="$tmp/stats.json" \
  --benchmark_out="$tmp/stats_row.json" --benchmark_out_format=json >/dev/null

python3 - "$tmp/micro.json" "$tmp/macro.json" "$OUT" "$BUILD_TYPE" \
  "$ALLOW_DEBUG" "$LIB_BUILD_TYPE" "$tmp/stats.json" <<'EOF'
import json
import sys

(micro_path, macro_path, out_path, build_type,
 allow_debug, lib_build_type, stats_path) = sys.argv[1:8]
with open(micro_path) as f:
    merged = json.load(f)
with open(macro_path) as f:
    macro = json.load(f)
merged["benchmarks"].extend(macro["benchmarks"])
context = merged.setdefault("context", {})
context["build_type"] = build_type
# Make any guard bypass visible IN the committed artifact, not just on the
# recording terminal: a baseline whose context reads allow_debug=true or a
# non-release library_build_type is flagged at review time, which is how
# the silently-Debug BENCH_micro.json of PRs past should have been caught.
context["allow_debug"] = allow_debug == "1"
context["library_build_type"] = lib_build_type

# Attach the protocol stats summary (headline counters from the
# instrumented run; the full per-cycle series stays out of the baseline).
try:
    with open(stats_path) as f:
        final = json.load(f)["final"]["metrics"]
    def scalar(name):
        v = final.get(name, 0)
        return v.get("count", 0) if isinstance(v, dict) else v
    summary = {
        name: scalar(name)
        for name in (
            "engine.cycles", "engine.deliver.messages", "engine.route.messages",
            "engine.deliver.overflow_dropped", "relia.retransmits",
            "profile.similarity.evals", "profile.decodes",
            "tracker.resident_bytes", "engine.mem.total_bytes",
        )
    }
    merged["stats_summary"] = summary
    print("  stats_summary:", json.dumps(summary))
except (OSError, KeyError, json.JSONDecodeError) as e:
    print(f"  warning: no stats summary attached ({e})", file=sys.stderr)

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

# Surface the memory counters of the macro rows. Each row resets the
# process high-water mark before running (mem_isolated=1), so the numbers
# are per-row peaks, not the sweep-wide maximum.
for b in macro["benchmarks"]:
    if "peak_rss_mb" in b:
        print(
            f"  {b['name']}: peak_rss={b['peak_rss_mb']:.1f} MiB, "
            f"bytes/node={b.get('peak_bytes_per_node', 0):.0f}"
        )
EOF

echo "wrote $OUT"

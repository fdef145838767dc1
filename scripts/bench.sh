#!/usr/bin/env bash
# Perf harness: build Release, run the micro benchmarks plus a fixed set of
# end-to-end reproduction experiments (dredbox_repro NAME), and reduce
# everything into one BENCH_<tag>.json perf-trajectory point (see
# scripts/bench_reduce.py for the schema). All experiments are seed-pinned
# in code, so two runs on the same host differ only by timer noise.
#
# Usage: scripts/bench.sh [--tag TAG] [-o OUT] [--build-dir DIR] [--quick]
#                         [--sweep] [--baseline 'NAME=NS[=NOTE]']...
#   --tag TAG    label for the point (default: local); OUT defaults to
#                BENCH_<tag>.json in the repo root
#   --quick      short micro timings (~seconds total); for CI smoke, not
#                for checked-in points
#   --sweep      also run the examples/sweep parameter sweep (sequential +
#                4-thread parallel, digest-checked) and fold its summary —
#                speedup, digest verdict, latency percentiles — into the
#                point
#   --baseline   record a pre-change reference number for a headline
#                benchmark alongside the measured results
set -euo pipefail

cd "$(dirname "$0")/.."

TAG=local
BUILD_DIR=build
OUT=""
MIN_TIME=0.5
# Median of several repetitions, not one long run: the host is shared, so a
# single repetition's mean can be inflated ~2x by neighbor load. The reducer
# keeps the median aggregate when repetitions > 1.
REPETITIONS=5
RUN_SWEEP=0
BASELINE_ARGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tag) TAG="$2"; shift 2 ;;
    -o) OUT="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --quick) MIN_TIME=0.05; REPETITIONS=1; shift ;;
    --sweep) RUN_SWEEP=1; shift ;;
    --baseline) BASELINE_ARGS+=(--baseline "$2"); shift 2 ;;
    *) echo "bench.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
OUT="${OUT:-BENCH_${TAG}.json}"

# The end-to-end set: fabric throughput (bandwidth), Fig. 8 (latency
# breakdown), Fig. 10 (orchestration agility) — one experiment per axis of
# the paper's evaluation, each run as `dredbox_repro NAME` and recorded
# under NAME so points stay comparable across the trajectory.
E2E_BENCHES="abl_fabric_throughput fig8_latency fig10_scaleup"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "== configure $BUILD_DIR (Release)"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
echo "== build bench targets"
SWEEP_TARGET=""
[[ "$RUN_SWEEP" == 1 ]] && SWEEP_TARGET="sweep"
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)" \
  --target micro_benchmarks quickstart dredbox_repro $SWEEP_TARGET

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== micro benchmarks (min_time=${MIN_TIME}s, repetitions=${REPETITIONS})"
"$BUILD_DIR/bench/micro_benchmarks" \
  --benchmark_format=json \
  --benchmark_out="$tmp/micro.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions="$REPETITIONS" \
  --benchmark_min_time="$MIN_TIME" > /dev/null

echo "== event-kernel dispatch profile (quickstart, DREDBOX_PROFILE=1)"
DREDBOX_PROFILE=1 DREDBOX_REPORT_FILE="$tmp/profile_report.json" \
  "$BUILD_DIR/examples/quickstart" > /dev/null

E2E_ARGS=()
for bench in $E2E_BENCHES; do
  echo "== end-to-end: $bench"
  start_ns=$(date +%s%N)
  rc=0
  "$BUILD_DIR/bench/dredbox_repro" "$bench" > "$tmp/$bench.out" 2>&1 || rc=$?
  end_ns=$(date +%s%N)
  wall=$(awk -v s="$start_ns" -v e="$end_ns" 'BEGIN { printf "%.3f", (e - s) / 1e9 }')
  if [[ "$rc" != 0 ]]; then
    echo "bench.sh: $bench exited with $rc:" >&2
    tail -20 "$tmp/$bench.out" >&2
    exit 1
  fi
  E2E_ARGS+=(--e2e "$bench=$wall=$rc=$tmp/$bench.out")
done

SWEEP_ARGS=()
if [[ "$RUN_SWEEP" == 1 ]]; then
  echo "== parameter sweep (sequential + 4-thread parallel, digest-checked)"
  "$BUILD_DIR/examples/sweep" --threads 4 --out "$tmp/sweep.json"
  SWEEP_ARGS=(--sweep "$tmp/sweep.json")
fi

python3 scripts/bench_reduce.py reduce --tag "$TAG" --micro "$tmp/micro.json" \
  --kernel-profile "$tmp/profile_report.json" \
  "${E2E_ARGS[@]}" ${SWEEP_ARGS[@]+"${SWEEP_ARGS[@]}"} \
  ${BASELINE_ARGS[@]+"${BASELINE_ARGS[@]}"} -o "$OUT"
python3 scripts/bench_reduce.py validate "$OUT"

#!/usr/bin/env bash
# Builds the benchmark driver (Release, into build-benchmark/) and runs the
# benchmark; all arguments go to benchmark/run.py (see its --help).
#
#   benchmark/run.sh                                  # every workload, 5 reps
#   benchmark/run.sh --smoke --out smoke.json         # 1/100 windows, < 30 s
#   benchmark/run.sh --workload rack-read --seed 3 --seconds 20 --trace 0
#
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-benchmark"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target dredbox_bench >&2

exec python3 "$root/benchmark/run.py" --bin "$build/dredbox_bench" "$@"

#!/usr/bin/env bash
# Records one BENCH point: benchmark/run.sh measures the fixed-work
# workloads (correctness gates, end-to-end and per-layer metrics), the
# micro-benchmark medians are added as a "micro" section, and the point is
# compared with itself by benchmark/compare.py, which fails on a malformed
# results file.
#
# Usage: scripts/bench.sh [--tag TAG] [-o OUT] [--smoke]
#   --tag TAG  names the point (default: local); OUT defaults to BENCH_<TAG>.json
#   --smoke    benchmark/run.sh --smoke and one short micro repetition, for CI
set -euo pipefail
cd "$(dirname "$0")/.."

tag=local out="" smoke=()
# Median of 5 repetitions: a single repetition on a shared host can read
# ~2x slow. Benches that register a "min" aggregate also record it.
micro_args=(--benchmark_repetitions=5 --benchmark_min_time=0.5)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tag) tag="$2"; shift 2 ;;
    -o) out="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); micro_args=(--benchmark_min_time=0.05); shift ;;
    *) echo "bench.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
out="${out:-BENCH_${tag}.json}"

bash benchmark/run.sh ${smoke[@]+"${smoke[@]}"} --out "$out"

[[ -f build/CMakeCache.txt ]] || cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$(nproc 2>/dev/null || echo 4)" --target micro_benchmarks
micro="$(mktemp)"
trap 'rm -f "$micro"' EXIT
echo "== micro benchmarks (${micro_args[*]})"
build/bench/micro_benchmarks "${micro_args[@]}" --benchmark_out="$micro" \
  --benchmark_out_format=json > /dev/null

python3 - "$out" "$tag" "$micro" <<'EOF'
import json, sys
out, tag, raw = sys.argv[1:]
point = json.load(open(out))
micro = {}
for b in json.load(open(raw))["benchmarks"]:
    row = micro.setdefault(b["run_name"], {"time_unit": b["time_unit"]})
    if b["run_type"] == "iteration":  # a lone repetition stands for the median
        row.setdefault("real_time", b["real_time"])
    elif b["aggregate_name"] in ("median", "min"):
        row["real_time" if b["aggregate_name"] == "median" else "real_time_min"] = b["real_time"]
point.update(tag=tag, micro=micro)
open(out, "w").write(json.dumps(point, indent=1) + "\n")
print(f"bench.sh: {out}: {len(point['workloads'])} workloads, {len(micro)} micro benchmarks")
EOF
python3 benchmark/compare.py "$out" "$out"

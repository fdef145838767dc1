#!/usr/bin/env bash
# Self-test of the benchmark itself: a --smoke run of every workload (all
# correctness gates included) must finish in under 30 s, and then
#   1. every metric BENCHMARK.json names appears with its unit,
#   2. the traced runs attribute >= 95% of profiled host time to labelled
#      events on rack-read, rack-dma and row-16rack,
#   3. compare.py of the smoke result against itself finds no regression.
#
#   benchmark/selftest.sh
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$here/../build-benchmark/selftest.json"

# Build first, so the time limit covers the runs only.
bash "$here/run.sh" --help > /dev/null
start=$SECONDS
bash "$here/run.sh" --smoke --out "$out" > /dev/null
elapsed=$(( SECONDS - start ))
if (( elapsed >= 30 )); then
  echo "selftest: smoke run took ${elapsed}s (limit 30s)" >&2
  exit 1
fi

python3 - "$here/../BENCHMARK.json" "$out" <<'EOF'
import json
import sys

spec = json.load(open(sys.argv[1]))
results = json.load(open(sys.argv[2]))
errors = []
for workload in (w["name"] for w in spec["workloads"]):
    entry = results["workloads"][workload]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            got = entry[section].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                errors.append(f"{workload}: {metric['name']} missing or not in {metric['unit']}")
    share = entry["per_layer"]["sim.unlabeled_share"]["value"]
    if workload != "rack-faults" and share > 0.05:
        errors.append(f"{workload}: {share:.1%} of profiled time is unlabelled")
for error in errors:
    print(f"selftest: {error}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF

python3 "$here/compare.py" "$out" "$out" > /dev/null
echo "selftest: ok (smoke run ${elapsed}s)"

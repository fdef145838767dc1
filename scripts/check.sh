#!/usr/bin/env sh
# Full pre-merge check: static analysis first (fail fast), then the tier-1
# suite three ways — a plain Release build, an ASan+UBSan build
# (DREDBOX_SANITIZE) to catch memory and UB bugs, and a DREDBOX_AUDIT=ON
# build that turns on the contract/invariant layer so every deep
# check_invariants() audit runs after every mutation. A tsan stage rebuilds
# with DREDBOX_SANITIZE=thread and re-runs the concurrency-touching tests
# (SweepRunner, workload engine, schedule audit) under ThreadSanitizer, and
# a thread-safety stage builds with clang -Wthread-safety -Werror over the
# sim/annotations.hpp capability layer (skipped when clang++ is not
# installed — gcc compiles the annotations to no-ops). A queue-differential
# stage re-runs the calendar-queue-vs-reference-heap oracle and the arena
# property suite under the sanitizers and the audit layer. Then the
# determinism harness (same-seed double run must be byte-identical) and a
# faults stage: the fault-scenario sweep and the DMA stream differential
# re-run under the sanitizers and the audit layer, plus a scripted-fault
# quickstart run. A sweep stage then proves the parallel SweepRunner
# bit-identical to a sequential pass on a small grid, a parallel stage
# proves the conservative-lookahead coupled multi-rack run
# digest-identical to its sequential reference (healthy and under a spine
# fault), an obs stage schema-validates the three
# observability artifacts (Chrome trace, OpenMetrics, dredbox-report/v1)
# from a faulty quickstart, and the bench smoke (scripts/bench.sh --smoke)
# finishes.
# Run from the repository root:
#
#   $ scripts/check.sh
#
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

echo "== lint"
bash "$root/scripts/lint.sh" --fast

run_suite() {
  build_dir=$1
  shift
  echo "== configure $build_dir ($*)"
  cmake -B "$root/$build_dir" -S "$root" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  echo "== build $build_dir"
  cmake --build "$root/$build_dir" -j "$jobs"
  echo "== test $build_dir"
  (cd "$root/$build_dir" && ctest --output-on-failure -j "$jobs")
}

run_suite build
run_suite build-asan -DDREDBOX_SANITIZE="address;undefined" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
run_suite build-audit -DDREDBOX_AUDIT=ON

echo "== tsan: concurrency-touching tests under ThreadSanitizer"
cmake -B "$root/build-tsan" -S "$root" -DDREDBOX_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$root/build-tsan" -j "$jobs"
(cd "$root/build-tsan" && \
  TSAN_OPTIONS="suppressions=$root/tsan.supp" ctest --output-on-failure -j "$jobs" \
    -R 'Sweep|Workload|ScheduleAudit|EventQueue|Partition|Cluster|WorkerPool')

echo "== thread-safety: clang -Wthread-safety -Werror over the annotations"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B "$root/build-threadsafety" -S "$root" -DDREDBOX_WERROR=ON \
    -DCMAKE_CXX_COMPILER=clang++
  cmake --build "$root/build-threadsafety" -j "$jobs"
else
  echo "   clang++ not installed; skipping (CI's thread-safety job enforces this)"
fi

echo "== clang-tidy (over build/ compile database; skipped when not installed)"
bash "$root/scripts/lint.sh" --tidy-only build

echo "== queue-differential: calendar kernel vs reference-heap oracle"
# The randomized differential oracle (tests/sim/test_event_queue_differential)
# and the arena property suite, re-run under ASan/UBSan and under the
# DREDBOX_AUDIT deep-invariant layer. The TSan stage above already matches
# these via its EventQueue filter.
(cd "$root/build-asan" && ctest --output-on-failure -j "$jobs" \
  -R 'EventQueueDifferential|Arena')
(cd "$root/build-audit" && ctest --output-on-failure -j "$jobs" \
  -R 'EventQueueDifferential|Arena')

echo "== determinism harness"
bash "$root/scripts/determinism.sh" build

echo "== faults: scenario sweep under ASan/UBSan"
(cd "$root/build-asan" && ctest --output-on-failure -j "$jobs" \
  -R 'Fault|Retry|FailureRepair|DmaStream')

echo "== faults: scenario sweep with DREDBOX_AUDIT=ON invariants armed"
(cd "$root/build-audit" && ctest --output-on-failure -j "$jobs" \
  -R 'FaultScenario|DeterminismTest.Faulty|DmaStream')

echo "== faults: scripted DREDBOX_FAULT_PLAN quickstart (sanitized)"
DREDBOX_FAULT_PLAN='link-flap@1ms+2ms;congestion@2ms+1ms:magnitude=4;brick-crash@3ms+2ms' \
  "$root/build-asan/examples/quickstart" > /dev/null

echo "== sweep: 2x2 grid on 2 threads, digests must match sequential"
"$root/build/examples/sweep" --threads 2 --seeds 1,2 --trays 1,2 \
  --ratios 0.5 --duration-ms 2 --out "$root/build/sweep_smoke.json"
python3 "$root/scripts/validate_artifacts.py" "$root/build/sweep_smoke.json"

echo "== parallel: 2-rack coupled run on 2 threads, digests must match sequential"
# The conservative-lookahead kernel's gating proof, healthy and with a
# mid-window spine fault: examples/datacenter exits non-zero on any
# sequential-vs-parallel digest mismatch, and the dredbox-parallel/v1
# artifact must pass schema validation.
"$root/build/examples/datacenter" --racks 2 --threads 2 --duration-ms 1 \
  --out "$root/build/parallel_smoke.json" > /dev/null
python3 "$root/scripts/validate_artifacts.py" "$root/build/parallel_smoke.json"
"$root/build/examples/datacenter" --racks 2 --threads 2 --duration-ms 1 \
  --spine-faults 'spine-down@0.3ms+0.4ms:target=0' > /dev/null

echo "== obs: faulty quickstart must emit schema-valid trace/OpenMetrics/report"
DREDBOX_FAULT_PLAN='link-flap@1ms+2ms;congestion@2ms+1ms:magnitude=4' \
  DREDBOX_TRACE_FILE="$root/build/obs.trace.json" \
  DREDBOX_OPENMETRICS_FILE="$root/build/obs.om" \
  DREDBOX_REPORT_FILE="$root/build/obs.report.json" \
  DREDBOX_PROFILE=1 \
  "$root/build/examples/quickstart" > /dev/null
python3 "$root/scripts/validate_artifacts.py" \
  "$root/build/obs.trace.json" "$root/build/obs.om" "$root/build/obs.report.json"

echo "== bench: benchmark/ smoke run + micro medians, self-compared"
bash "$root/scripts/bench.sh" --smoke --tag smoke -o "$root/build/BENCH_smoke.json"

echo "== all checks passed"

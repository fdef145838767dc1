#!/usr/bin/env sh
# Full pre-merge check, a superset of CI: static analysis first (fail
# fast), then the whole tier-1 suite in four builds — plain Release,
# ASan+UBSan (DREDBOX_SANITIZE), DREDBOX_AUDIT=ON (contract checks and deep
# check_invariants() audits after every mutation) and ThreadSanitizer. The
# suite holds every check: unit and fault-scenario tests, the paper
# reproduction (repro.*), the drivers' smoke runs with their artifact
# validation (example.*, validate_artifacts.*) and the process-level
# determinism double run, so each build runs all of them. Then clang
# -Wthread-safety -Werror over the sim/annotations.hpp capability layer and
# clang-tidy (each skipped when the tool is not installed), the bench
# smoke and the benchmark self-test. Run from the repository root:
#
#   $ scripts/check.sh
#
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"  # cmake --preset reads CMakePresets.json from the working directory
jobs=$(nproc 2>/dev/null || echo 4)

echo "== lint"
bash "$root/scripts/lint.sh" --fast

# The four test builds and the thread-safety build are the configure
# presets in CMakePresets.json, the same ones CI's jobs use.
for preset in release asan-ubsan audit tsan; do
  echo "== configure $preset"
  cmake --preset "$preset"
  echo "== build $preset"
  cmake --build --preset "$preset" -j "$jobs"
  echo "== test $preset"
  ctest --preset "$preset" -j "$jobs"
done

echo "== thread-safety: clang -Wthread-safety -Werror over the annotations"
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset thread-safety
  cmake --build --preset thread-safety -j "$jobs"
else
  echo "   clang++ not installed; skipping (CI's thread-safety job enforces this)"
fi

echo "== clang-tidy (over build/ compile database; skipped when not installed)"
bash "$root/scripts/lint.sh" --tidy-only build

echo "== bench: benchmark/ smoke run + micro medians, self-compared"
bash "$root/scripts/bench.sh" --smoke --tag smoke -o "$root/build/BENCH_smoke.json"

echo "== benchmark self-test"
bash "$root/benchmark/selftest.sh"

echo "== all checks passed"

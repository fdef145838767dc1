#!/usr/bin/env bash
# Process-level determinism check: runs the quickstart example twice in
# separate processes and byte-compares stdout plus every exported
# observability artifact (Chrome trace JSON, OpenMetrics series,
# dredbox-report/v1 run report). This catches nondeterminism an in-process
# test cannot see (ASLR-dependent ordering, locale, static-init order)
# anywhere in the export pipeline. DREDBOX_PROFILE stays unset: the kernel
# self-profile is host wall-clock data and differs between runs.
#
# The tier-1 ctest example.quickstart.determinism runs it; by hand:
#
#   scripts/determinism.sh build/examples/quickstart
set -euo pipefail

if [[ $# -ne 1 || ! -x "$1" ]]; then
  echo "usage: $0 QUICKSTART_BINARY" >&2
  exit 2
fi
quickstart="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Relative artifact paths + a per-run cwd keep the two runs' environments
# (and therefore their stdout, which echoes the paths) byte-identical.
for run in 1 2; do
  mkdir -p "$tmp/run$run"
  (cd "$tmp/run$run" && \
    DREDBOX_TRACE_FILE=trace.json \
    DREDBOX_OPENMETRICS_FILE=series.om \
    DREDBOX_REPORT_FILE=report.json \
    "$quickstart" > stdout.txt 2>&1)
done
status=0
for artifact in stdout.txt trace.json series.om report.json; do
  if cmp -s "$tmp/run1/$artifact" "$tmp/run2/$artifact"; then
    echo "quickstart $artifact: byte-identical ($(wc -c < "$tmp/run1/$artifact") bytes)"
  else
    echo "quickstart $artifact: runs DIVERGED:" >&2
    diff "$tmp/run1/$artifact" "$tmp/run2/$artifact" | head -40 >&2
    status=1
  fi
done
[[ "$status" == 0 ]] || exit 1
echo "determinism: OK"

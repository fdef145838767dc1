#!/usr/bin/env python3
"""Reduce benchmark runs into a BENCH_*.json perf-trajectory point, and
validate observability artifacts. `validate` dispatches on the file's
shape: dredbox-bench/v1 points, dredbox-sweep/v1 reports from
examples/sweep, dredbox-parallel/v1 coupled multi-rack reports from
examples/datacenter, dredbox-report/v1 run reports (DREDBOX_REPORT_FILE),
Chrome trace-event JSON (DREDBOX_TRACE_FILE) and OpenMetrics text
(DREDBOX_OPENMETRICS_FILE).

The repo's perf north star ("as fast as the hardware allows", ROADMAP.md)
is tracked as a series of checked-in BENCH_<tag>.json files, one per PR
that claims a performance change. Each point records:

  * micro       — google-benchmark results (op latency, items/sec) from
                  bench/micro_benchmarks,
  * end_to_end  — wall time + exit status + paper-shape check lines from a
                  fixed set of end-to-end reproduction benches,
  * sweep       — optional summary of a SweepRunner run (examples/sweep
                  --out): parallel speedup, digest verdict, per-cell
                  latency percentiles,
  * baseline    — optional pre-change reference numbers for the headline
                  benchmarks, so the claimed improvement is auditable.

Usage:
  bench_reduce.py reduce --tag pr4 --micro MICRO.json \
      --e2e NAME=WALL_SECONDS=EXIT=STDOUT_PATH ... \
      [--sweep SWEEP.json] [--kernel-profile REPORT.json] \
      [--baseline 'BM_Foo/32=21.5=note'] \
      -o BENCH_pr4.json
  bench_reduce.py validate BENCH_pr4.json SWEEP.json [...]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SCHEMA = "dredbox-bench/v1"
SWEEP_SCHEMA = "dredbox-sweep/v1"
REPORT_SCHEMA = "dredbox-report/v1"
PARALLEL_SCHEMA = "dredbox-parallel/v1"

# Minimum parallel speedup the acceptance bar demands of a sweep — only
# enforceable when the host actually has at least as many cores as the
# sweep used threads (a 4-thread sweep on a 1-core CI box is legitimately
# ~1x; the report still records the honest numbers).
MIN_SWEEP_SPEEDUP = 2.0

# Same idea for the coupled multi-rack runs (examples/datacenter): the
# conservative-lookahead kernel pays a barrier per round, so its bar is
# lower than the embarrassingly-parallel sweep's — and like the sweep's
# it only binds when the host has the cores to honour it.
MIN_PARALLEL_SPEEDUP = 1.2

# End-to-end stdout lines worth keeping in the record: the dredbox_repro
# verdict lines and the headline summary figures.
CHECK_RE = re.compile(r"REPRODUCED|NOT reproduced|Round trip:|speedup")


def reduce_point(args: argparse.Namespace) -> dict:
    micro_raw = json.loads(Path(args.micro).read_text(encoding="utf-8"))
    context = micro_raw.get("context", {})
    # One row per benchmark. When the run used --benchmark_repetitions, the
    # median aggregate supersedes the per-repetition rows (the host is
    # shared, so a single repetition's mean can be inflated ~2x by neighbor
    # load; the median across repetitions is the stable point).
    micro_by_name: dict[str, dict] = {}
    micro_order: list[str] = []
    # Custom "min" aggregates (the queue benches register one): the min
    # across repetitions approximates the contention-free cost on a shared
    # host, so it rides along as real_time_min next to the median.
    min_by_name: dict[str, float] = {}
    for b in micro_raw.get("benchmarks", []):
        run_type = b.get("run_type", "iteration")
        if run_type == "aggregate" and b.get("aggregate_name") == "min":
            min_by_name[b.get("run_name", b["name"])] = b["real_time"]
            continue
        if run_type == "aggregate" and b.get("aggregate_name") != "median":
            continue
        name = b.get("run_name", b["name"]) if run_type == "aggregate" else b["name"]
        if name in micro_by_name and run_type != "aggregate":
            continue  # later repetition of an already-recorded bench
        entry = {
            "name": name,
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b.get("time_unit", "ns"),
        }
        if run_type == "aggregate":
            entry["aggregate"] = "median"
        for rate_key in ("items_per_second", "bytes_per_second"):
            if rate_key in b:
                entry[rate_key] = b[rate_key]
        # Allocation counters (the steady-state-allocs benches): carried
        # into the point so validation can hold the 0-allocs/op line.
        for key, value in b.items():
            if key.startswith("allocs"):
                entry[key] = value
        if name not in micro_by_name:
            micro_order.append(name)
        micro_by_name[name] = entry
    for name, real_time_min in min_by_name.items():
        if name in micro_by_name:
            micro_by_name[name]["real_time_min"] = real_time_min
    micro = [micro_by_name[name] for name in micro_order]

    end_to_end = []
    for spec in args.e2e or []:
        name, wall, exit_code, stdout_path = spec.split("=", 3)
        checks = []
        text = Path(stdout_path).read_text(encoding="utf-8", errors="replace")
        for line in text.splitlines():
            if CHECK_RE.search(line):
                checks.append(line.strip())
        end_to_end.append(
            {
                "name": name,
                "wall_seconds": float(wall),
                "exit_code": int(exit_code),
                "checks": checks,
            }
        )

    baseline = {}
    for spec in args.baseline or []:
        name, value, note = (spec.split("=", 2) + [""])[:3]
        baseline[name] = {"real_time": float(value), "time_unit": "ns", "note": note}

    point = {
        "schema": SCHEMA,
        "tag": args.tag,
        "host": {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "library_build_type": context.get("library_build_type"),
        },
        "micro": micro,
        "end_to_end": end_to_end,
    }
    if args.sweep:
        point["sweep"] = summarize_sweep(Path(args.sweep))
    if args.parallel:
        point["parallel"] = summarize_parallel(Path(args.parallel))
    if args.kernel_profile:
        point["kernel_profile"] = summarize_kernel_profile(Path(args.kernel_profile))
    if baseline:
        point["baseline"] = baseline
    return point


def summarize_kernel_profile(path: Path) -> dict:
    """Reduce a dredbox-report/v1 run artifact (DREDBOX_REPORT_FILE written
    with DREDBOX_PROFILE=1) to the event-kernel dispatch profile embedded in
    a bench point: per-label dispatch counts and ns/dispatch, so the cost of
    each event family is tracked PR over PR alongside the micro benches."""
    report = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_report(path, report)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        raise SystemExit(f"bench-reduce: {path} is not a valid {REPORT_SCHEMA} report")
    rows = report.get("kernel_profile") or []
    if not rows:
        raise SystemExit(
            f"bench-reduce: {path} has no kernel_profile rows — "
            "was the run made with DREDBOX_PROFILE=1?"
        )
    out_rows = []
    for row in sorted(rows, key=lambda r: r.get("host_ns", 0), reverse=True):
        dispatches = row.get("dispatches", 0)
        out_rows.append(
            {
                "label": row["label"],
                "dispatches": dispatches,
                "host_ns": row["host_ns"],
                "ns_per_dispatch": (row["host_ns"] / dispatches) if dispatches else 0.0,
            }
        )
    return {
        "source": report.get("tag", ""),
        "total_dispatches": sum(r["dispatches"] for r in out_rows),
        "rows": out_rows,
    }


def summarize_sweep(path: Path) -> dict:
    """Reduce an examples/sweep --out report to the summary embedded in a
    bench point: the parallel-speedup evidence plus aggregate latency."""
    sweep = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_sweep(path, sweep)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        raise SystemExit(f"bench-reduce: {path} is not a valid {SWEEP_SCHEMA} report")

    seq = sweep.get("sequential_wall_seconds")
    wall = sweep["wall_seconds"]
    summary = {
        "cells": sweep["aggregate"]["cells"],
        "cells_ok": sweep["aggregate"]["cells_ok"],
        "threads": sweep["threads"],
        "wall_seconds": wall,
        "digests_match": sweep.get("digests_match", True),
        "throughput_hz": sweep["aggregate"]["throughput_hz"],
        "p99_us": sweep["aggregate"]["p99_us"],
        "latency_percentiles": [
            {
                "cell": f"seed={c['seed']} trays={c['trays']} remote={c['remote_ratio']}",
                **c["latency_us"],
            }
            for c in sweep["cells"]
            if c.get("ok")
        ],
    }
    if seq is not None:
        summary["sequential_wall_seconds"] = seq
        summary["speedup"] = seq / wall if wall > 0 else 0.0
    if "host" in sweep:
        summary["host"] = sweep["host"]
    return summary


def summarize_parallel(path: Path) -> dict:
    """Reduce an examples/datacenter --out report to the summary embedded
    in a bench point: the coupled-run determinism verdict plus the honest
    multi-thread speedup evidence."""
    report = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_parallel(path, report)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        raise SystemExit(f"bench-reduce: {path} is not a valid {PARALLEL_SCHEMA} report")
    summary = {
        "racks": report["racks"],
        "threads": report["threads"],
        "digests_match": report["digests_match"],
        "rounds": report["rounds"],
        "messages": report["messages"],
        "cross_ops": report["cross_ops"],
        "sequential_wall_seconds": report["sequential_wall_seconds"],
        "parallel_wall_seconds": report["parallel_wall_seconds"],
        "speedup": report["speedup"],
    }
    if "host" in report:
        summary["host"] = report["host"]
    return summary


def validate_parallel(path: Path, report: dict) -> list[str]:
    """Validate a dredbox-parallel/v1 report (examples/datacenter --out)."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    if report.get("schema") != PARALLEL_SCHEMA:
        err(f"schema is {report.get('schema')!r}, want {PARALLEL_SCHEMA!r}")

    for key in ("racks", "threads"):
        if not isinstance(report.get(key), int) or report.get(key, 0) < 1:
            err(f"{key} must be a positive integer")
    if not isinstance(report.get("seed"), int):
        err("seed must be an integer")

    digest = report.get("digest")
    if not isinstance(digest, str) or not re.fullmatch(r"[0-9a-f]{16}", digest):
        err("digest must be a 16-digit lowercase hex string")
    # The point of the artifact: the parallel coupled schedule must be
    # byte-identical to the sequential reference.
    if report.get("digests_match") is not True:
        err("digests_match is false: parallel run diverged from sequential")

    for key in ("offered", "completed", "cross_ops", "spine_tx_messages",
                "spine_fail_fast", "rounds", "messages"):
        if not isinstance(report.get(key), int) or report.get(key, -1) < 0:
            err(f"{key} must be a non-negative integer")
    if report.get("offered", 0) < 1:
        err("offered must be positive (an idle run proves nothing)")

    seq = report.get("sequential_wall_seconds")
    wall = report.get("parallel_wall_seconds")
    for key, value in (("sequential_wall_seconds", seq), ("parallel_wall_seconds", wall)):
        if not isinstance(value, (int, float)) or value < 0:
            err(f"{key} must be >= 0")

    threads = report.get("threads")
    num_cpus = (report.get("host") or {}).get("num_cpus")
    # The speedup bar binds only when the host can actually run the
    # threads in parallel; a multi-thread run on fewer cores records its
    # honest (sub-1x) number without failing validation.
    if (
        isinstance(threads, int)
        and isinstance(num_cpus, int)
        and threads > 1
        and threads <= num_cpus
        and isinstance(seq, (int, float))
        and isinstance(wall, (int, float))
        and wall > 0
        and seq / wall < MIN_PARALLEL_SPEEDUP
    ):
        err(
            f"coupled-run speedup {seq / wall:.2f}x below the "
            f"{MIN_PARALLEL_SPEEDUP}x bar ({threads} threads on {num_cpus} cpus)"
        )
    return errors


def validate_sweep(path: Path, sweep: dict) -> list[str]:
    """Validate a dredbox-sweep/v1 report (examples/sweep --out)."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    if sweep.get("schema") != SWEEP_SCHEMA:
        err(f"schema is {sweep.get('schema')!r}, want {SWEEP_SCHEMA!r}")

    threads = sweep.get("threads")
    if not isinstance(threads, int) or threads < 1:
        err("threads must be a positive integer")
    wall = sweep.get("wall_seconds")
    if not isinstance(wall, (int, float)) or wall < 0:
        err("wall_seconds must be >= 0")

    grid = sweep.get("grid")
    if not isinstance(grid, dict):
        err("grid must be an object")
        grid = {}
    expected_cells = 1
    for axis in ("seeds", "rack_trays", "remote_ratios", "fault_plans"):
        values = grid.get(axis)
        if not isinstance(values, list) or not values:
            err(f"grid.{axis} must be a non-empty list")
            expected_cells = None
        elif expected_cells is not None:
            expected_cells *= len(values)

    cells = sweep.get("cells")
    if not isinstance(cells, list) or not cells:
        err("cells must be a non-empty list")
        cells = []
    if expected_cells is not None and cells and len(cells) != expected_cells:
        err(f"cells has {len(cells)} entries, grid implies {expected_cells}")
    for i, c in enumerate(cells):
        if c.get("index") != i:
            err(f"cells[{i}] index is {c.get('index')!r}, want grid order")
        if not c.get("ok"):
            err(f"cells[{i}] failed: {c.get('error', '?')}")
            continue
        digest = c.get("digest")
        if not isinstance(digest, str) or not re.fullmatch(r"[0-9a-f]{16}", digest):
            err(f"cells[{i}] digest must be a 16-digit lowercase hex string")
        latency = c.get("latency_us")
        if not isinstance(latency, dict) or not all(
            isinstance(latency.get(p), (int, float)) for p in ("p50", "p95", "p99")
        ):
            err(f"cells[{i}] latency_us must carry numeric p50/p95/p99")
        for key in ("offered", "completed", "failed"):
            if not isinstance(c.get(key), int) or c.get(key, -1) < 0:
                err(f"cells[{i}] {key} must be a non-negative integer")

    aggregate = sweep.get("aggregate")
    if not isinstance(aggregate, dict):
        err("aggregate must be an object")
    else:
        if aggregate.get("cells") != len(cells):
            err("aggregate.cells disagrees with the cells array")
        if aggregate.get("cells_ok") != sum(1 for c in cells if c.get("ok")):
            err("aggregate.cells_ok disagrees with the cells array")
        for key in ("throughput_hz", "p99_us"):
            if not isinstance(aggregate.get(key), dict):
                err(f"aggregate.{key} must be an object")

    # Fields spliced in by the examples/sweep CLI (absent when to_json()
    # was emitted directly, e.g. from a unit test).
    if "digests_match" in sweep and sweep["digests_match"] is not True:
        err("digests_match is false: parallel run diverged from sequential")
    seq = sweep.get("sequential_wall_seconds")
    if seq is not None:
        if not isinstance(seq, (int, float)) or seq < 0:
            err("sequential_wall_seconds must be >= 0")
        else:
            num_cpus = (sweep.get("host") or {}).get("num_cpus")
            # The >=2x speedup bar only binds when the host can actually
            # run the sweep's threads in parallel.
            if (
                isinstance(threads, int)
                and isinstance(num_cpus, int)
                and threads > 1
                and threads <= num_cpus
                and isinstance(wall, (int, float))
                and wall > 0
                and seq / wall < MIN_SWEEP_SPEEDUP
            ):
                err(
                    f"parallel speedup {seq / wall:.2f}x below the "
                    f"{MIN_SWEEP_SPEEDUP}x bar ({threads} threads on "
                    f"{num_cpus} cpus)"
                )
    return errors


HEX_DIGEST_RE = re.compile(r"^[0-9a-f]{1,16}$")
OM_SAMPLE_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9.eE+-]+( [0-9.]+)?$")
OM_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge)$")


def _validate_span(path: Path, span: dict, parent_span_id: str | None,
                   errors: list[str]) -> None:
    where = f"{path}: slowest_traces span {span.get('span_id', '?')}"
    for key in ("name", "category", "begin_us", "duration_us", "span_id"):
        if key not in span:
            errors.append(f"{where} missing {key}")
    if not isinstance(span.get("duration_us"), (int, float)) or span.get("duration_us", -1) < 0:
        errors.append(f"{where} duration_us must be >= 0")
    if parent_span_id is not None and span.get("parent_span_id") != parent_span_id:
        errors.append(f"{where} parent_span_id does not point at its parent")
    for child in span.get("children", []):
        _validate_span(path, child, span.get("span_id"), errors)


def validate_report(path: Path, report: dict) -> list[str]:
    """dredbox-report/v1: the standardized per-run artifact."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    if not isinstance(report.get("tag"), str) or not report.get("tag"):
        err("tag must be a non-empty string")
    if not isinstance(report.get("seed"), int):
        err("seed must be an integer")
    for key in ("config_digest", "determinism_digest"):
        if not isinstance(report.get(key), str) or not HEX_DIGEST_RE.match(report.get(key) or ""):
            err(f"{key} must be a lower-case hex string")
    if not isinstance(report.get("fault_plan"), str):
        err("fault_plan must be a string (empty = healthy run)")
    if not isinstance(report.get("tracing"), bool):
        err("tracing must be a boolean")
    if not isinstance(report.get("duration_us"), (int, float)) or report.get("duration_us", -1) < 0:
        err("duration_us must be a number >= 0")

    # metrics / tracer / slowest_traces are per-rack sections; aggregate
    # reports (e.g. the sweep's) legitimately omit them.
    metrics = report.get("metrics")
    if metrics is not None and not isinstance(metrics, list):
        err("metrics must be a list")
    elif metrics is not None:
        for row in metrics:
            if not isinstance(row.get("name"), str) or row.get("type") not in (
                    "counter", "gauge", "histogram"):
                err(f"metrics row {row.get('name', '?')} malformed")
        names = [row.get("name") for row in metrics]
        if names != sorted(names):
            err("metrics rows must be name-sorted")

    tracer = report.get("tracer")
    if tracer is not None and not isinstance(tracer, dict):
        err("tracer accounting block malformed")
    elif tracer is not None:
        for key in ("capacity", "retained", "dropped_while_disabled", "evicted"):
            if not isinstance(tracer.get(key), int) or tracer.get(key, -1) < 0:
                err(f"tracer.{key} must be a non-negative integer")

    traces = report.get("slowest_traces")
    if traces is not None and not isinstance(traces, list):
        err("slowest_traces must be a list")
    elif traces is not None:
        last = None
        for entry in traces:
            if not isinstance(entry.get("trace_id"), str):
                errors.append(f"{path}: slowest_traces entry missing trace_id")
            if not isinstance(entry.get("root"), dict):
                errors.append(f"{path}: slowest_traces entry missing root span")
            else:
                _validate_span(path, entry["root"], None, errors)
            dur = entry.get("duration_us")
            if last is not None and isinstance(dur, (int, float)) and dur > last:
                err("slowest_traces must be sorted by duration descending")
            if isinstance(dur, (int, float)):
                last = dur

    ts = report.get("timeseries")
    if ts is not None:
        if not isinstance(ts, dict) or "period_us" not in ts or not isinstance(
                ts.get("series"), list):
            err("timeseries must be {period_us, series: [...]}")

    profile = report.get("kernel_profile")
    if profile is not None:
        for row in profile if isinstance(profile, list) else []:
            for key in ("label", "dispatches", "host_ns"):
                if key not in row:
                    err(f"kernel_profile row missing {key}")
    return errors


def validate_trace(path: Path, trace: dict) -> list[str]:
    """Chrome trace-event JSON as written by sim::write_trace_file."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: traceEvents must be a list"]
    meta = trace.get("metadata", {}).get("tracer")
    if not isinstance(meta, dict):
        err("metadata.tracer accounting block missing")
    else:
        for key in ("capacity", "retained", "dropped_while_disabled", "evicted"):
            if not isinstance(meta.get(key), int):
                err(f"metadata.tracer.{key} must be an integer")
    flow_starts, flow_ends = set(), set()
    for ev in events:
        if not isinstance(ev.get("ph"), str):
            err("event missing ph")
            continue
        if ev["ph"] in ("X", "i", "s", "f") and not isinstance(ev.get("ts"), (int, float)):
            err(f"{ev.get('name', '?')} event missing ts")
        if ev["ph"] == "s":
            flow_starts.add(ev.get("id"))
        elif ev["ph"] == "f":
            flow_ends.add(ev.get("id"))
    if flow_ends - flow_starts:
        err(f"flow ends without a matching start: {sorted(flow_ends - flow_starts)[:3]}")
    if flow_starts - flow_ends:
        err(f"flow starts without a matching end: {sorted(flow_starts - flow_ends)[:3]}")
    return errors


def validate_openmetrics(path: Path, text: str) -> list[str]:
    """OpenMetrics text exposition as written by TimeSeriesSet::to_openmetrics."""
    errors: list[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        errors.append(f"{path}: must end with '# EOF'")
    typed: set[str] = set()
    for num, line in enumerate(lines, start=1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            if not OM_TYPE_RE.match(line):
                errors.append(f"{path}:{num}: malformed TYPE line")
            else:
                typed.add(line.split()[2])
        elif line.startswith("#"):
            continue
        elif OM_SAMPLE_RE.match(line):
            name = line.split()[0]
            base = name[: -len("_total")] if name.endswith("_total") else name
            if name not in typed and base not in typed:
                errors.append(f"{path}:{num}: sample for {name} before its # TYPE line")
        else:
            errors.append(f"{path}:{num}: unparseable line {line[:60]!r}")
    return errors


def validate_point(path: Path) -> list[str]:
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]

    # OpenMetrics expositions are plain text, not JSON.
    stripped = text.lstrip()
    if path.suffix == ".om" or stripped.startswith("# TYPE"):
        return validate_openmetrics(path, text)

    try:
        point = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{path}: unreadable ({exc})"]

    # Chrome trace-event files carry no schema marker; dispatch on shape,
    # then on the "schema" field for the dredbox JSON artifacts.
    if isinstance(point, dict) and "traceEvents" in point:
        return validate_trace(path, point)
    if point.get("schema") == SWEEP_SCHEMA:
        return validate_sweep(path, point)
    if point.get("schema") == REPORT_SCHEMA:
        return validate_report(path, point)
    if point.get("schema") == PARALLEL_SCHEMA:
        return validate_parallel(path, point)

    if point.get("schema") != SCHEMA:
        err(f"schema is {point.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(point.get("tag"), str) or not point.get("tag"):
        err("tag must be a non-empty string")

    micro = point.get("micro")
    if not isinstance(micro, list) or not micro:
        err("micro must be a non-empty list")
        micro = []
    names = set()
    for b in micro:
        for key in ("name", "real_time", "cpu_time", "time_unit"):
            if key not in b:
                err(f"micro entry {b.get('name', '?')} missing {key}")
        if not isinstance(b.get("real_time"), (int, float)) or b.get("real_time", -1) < 0:
            err(f"micro entry {b.get('name', '?')} real_time must be >= 0")
        # The allocation-free hot-datapath contract (PR 9): every recorded
        # allocs* counter must be exactly zero. Older points without the
        # counters pass vacuously; a new point with a nonzero counter is a
        # steady-state heap regression, not noise.
        for key, value in b.items():
            if key.startswith("allocs") and value != 0:
                err(f"micro entry {b.get('name', '?')} {key} must be 0, got {value}")
        names.add(b.get("name"))
    if "BM_RmstLookup/32" not in names:
        err("micro must include the headline BM_RmstLookup/32 point")

    e2e = point.get("end_to_end")
    if not isinstance(e2e, list) or len(e2e) < 3:
        err("end_to_end must list at least 3 benches")
        e2e = []
    for b in e2e:
        if not isinstance(b.get("name"), str):
            err("end_to_end entry missing name")
        if not isinstance(b.get("wall_seconds"), (int, float)) or b.get("wall_seconds", -1) < 0:
            err(f"end_to_end {b.get('name', '?')} wall_seconds must be >= 0")
        if b.get("exit_code") != 0:
            err(f"end_to_end {b.get('name', '?')} recorded a non-zero exit")

    sweep = point.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            err("sweep must be an object")
        else:
            for key in ("cells", "cells_ok", "threads", "wall_seconds", "digests_match"):
                if key not in sweep:
                    err(f"sweep summary missing {key}")
            if sweep.get("digests_match") is not True:
                err("sweep.digests_match must be true")
            if sweep.get("cells") != sweep.get("cells_ok"):
                err("sweep recorded failed cells")
            if not isinstance(sweep.get("latency_percentiles"), list) or not sweep.get(
                "latency_percentiles"
            ):
                err("sweep.latency_percentiles must be a non-empty list")

    par = point.get("parallel")
    if par is not None:
        if not isinstance(par, dict):
            err("parallel must be an object")
        else:
            for key in ("racks", "threads", "digests_match", "rounds",
                        "sequential_wall_seconds", "parallel_wall_seconds", "speedup"):
                if key not in par:
                    err(f"parallel summary missing {key}")
            if par.get("digests_match") is not True:
                err("parallel.digests_match must be true")

    profile = point.get("kernel_profile")
    if profile is not None:
        if not isinstance(profile, dict) or not isinstance(profile.get("rows"), list):
            err("kernel_profile must be {source, total_dispatches, rows}")
        else:
            for row in profile["rows"]:
                for key in ("label", "dispatches", "host_ns", "ns_per_dispatch"):
                    if key not in row:
                        err(f"kernel_profile row {row.get('label', '?')} missing {key}")
            if not isinstance(profile.get("total_dispatches"), int):
                err("kernel_profile.total_dispatches must be an integer")

    for name, ref in (point.get("baseline") or {}).items():
        if not isinstance(ref.get("real_time"), (int, float)):
            err(f"baseline {name} missing real_time")
    return errors


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    reduce_p = sub.add_parser("reduce", help="merge bench outputs into one point")
    reduce_p.add_argument("--tag", required=True)
    reduce_p.add_argument("--micro", required=True, help="google-benchmark JSON output")
    reduce_p.add_argument("--e2e", action="append", metavar="NAME=WALL=EXIT=STDOUT")
    reduce_p.add_argument("--sweep", metavar="SWEEP_JSON",
                          help="examples/sweep --out report to summarize into the point")
    reduce_p.add_argument("--parallel", metavar="PARALLEL_JSON",
                          help="examples/datacenter --out report to summarize into "
                               "the point (coupled multi-rack speedup evidence)")
    reduce_p.add_argument("--kernel-profile", metavar="REPORT_JSON",
                          help="dredbox-report/v1 artifact from a DREDBOX_PROFILE=1 "
                               "run; its per-label dispatch profile is embedded as "
                               "ns/dispatch rows")
    reduce_p.add_argument("--baseline", action="append", metavar="NAME=NS[=NOTE]")
    reduce_p.add_argument("-o", "--out", required=True)

    validate_p = sub.add_parser("validate", help="check BENCH_*.json schema")
    validate_p.add_argument("files", nargs="+")

    args = parser.parse_args(argv)
    if args.mode == "reduce":
        point = reduce_point(args)
        Path(args.out).write_text(json.dumps(point, indent=2) + "\n", encoding="utf-8")
        parts = f"{len(point['micro'])} micro, {len(point['end_to_end'])} end-to-end"
        if "sweep" in point:
            sweep = point["sweep"]
            parts += f", sweep {sweep['cells_ok']}/{sweep['cells']} cells"
        print(f"bench-reduce: wrote {args.out} ({parts})")
        return 0

    all_errors: list[str] = []
    for f in args.files:
        all_errors.extend(validate_point(Path(f)))
    for e in all_errors:
        print(e, file=sys.stderr)
    if not all_errors:
        print(f"bench-reduce: {len(args.files)} file(s) valid against "
              f"{SCHEMA}/{SWEEP_SCHEMA}/{REPORT_SCHEMA}/{PARALLEL_SCHEMA}"
              "/trace/openmetrics")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

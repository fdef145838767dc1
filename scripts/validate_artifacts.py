#!/usr/bin/env python3
"""Validate the simulator's observability artifacts.

  validate_artifacts.py FILE [FILE...]

Each file is checked against the schema its shape names: dredbox-sweep/v1
(examples/sweep --out), dredbox-cluster/v1 (examples/datacenter --out),
dredbox-report/v1 (DREDBOX_REPORT_FILE), Chrome trace-event JSON
(DREDBOX_TRACE_FILE) or OpenMetrics text (DREDBOX_OPENMETRICS_FILE). Each
problem is one `<path>: ...` line on stderr; any problem makes the exit 1.
A sweep's parallel speedup below its bar is host speed, not a schema
property: it is one `note: <path>: ...` line on stdout and leaves the exit
status alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SWEEP_SCHEMA = "dredbox-sweep/v1"
REPORT_SCHEMA = "dredbox-report/v1"
CLUSTER_SCHEMA = "dredbox-cluster/v1"

# Advisory parallel-speedup bar for a sweep, whose cells are independent.
# Host speed is not a schema property, so a shortfall is only a note.
MIN_SWEEP_SPEEDUP = 2.0


def note_speedup(path: Path, what: str, doc: dict, seq, wall, bar: float) -> None:
    """Print a `note:` line when seq/wall misses `bar` on a host that has a
    core for every thread the run used."""
    threads, host = doc.get("threads"), doc.get("host")
    num_cpus = host.get("num_cpus") if isinstance(host, dict) else None
    if (isinstance(threads, int) and isinstance(num_cpus, int) and 1 < threads <= num_cpus
            and isinstance(seq, (int, float)) and isinstance(wall, (int, float))
            and wall > 0 and seq / wall < bar):
        print(f"note: {path}: {what} {seq / wall:.2f}x is below the advisory {bar}x bar "
              f"({threads} threads on {num_cpus} cpus)")


def objects(rows: list, what: str, err):
    """(index, row) for each row of `rows` that is a JSON object; every
    other row is reported through `err` instead of crashing a validator."""
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            yield i, row
        else:
            err(f"{what}[{i}] must be an object, got {type(row).__name__}")


def validate_cluster(path: Path, report: dict) -> list[str]:
    """Validate a dredbox-cluster/v1 report (examples/datacenter --out)."""
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(f"{path}: {msg}")

    if report.get("schema") != CLUSTER_SCHEMA:
        err(f"schema is {report.get('schema')!r}, want {CLUSTER_SCHEMA!r}")

    if not isinstance(report.get("racks"), int) or report.get("racks", 0) < 1:
        err("racks must be a positive integer")
    if not isinstance(report.get("seed"), int):
        err("seed must be an integer")

    digest = report.get("digest")
    if not isinstance(digest, str) or not re.fullmatch(r"[0-9a-f]{16}", digest):
        err("digest must be a 16-digit lowercase hex string")
    # The point of the artifact: two fresh runs of the coupled schedule
    # must be byte-identical.
    if report.get("digests_match") is not True:
        err("digests_match is false: two fresh runs diverged")

    for key in ("offered", "completed", "cross_ops", "spine_tx_messages",
                "spine_fail_fast", "rounds", "messages"):
        if not isinstance(report.get(key), int) or report.get(key, -1) < 0:
            err(f"{key} must be a non-negative integer")
    if isinstance(report.get("offered"), int) and report["offered"] < 1:
        err("offered must be positive (an idle run proves nothing)")

    wall = report.get("wall_seconds")
    if not isinstance(wall, (int, float)) or wall < 0:
        err("wall_seconds must be >= 0")
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
    cell_objects = list(objects(cells, "cells", err))
    for i, c in cell_objects:
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
        if aggregate.get("cells_ok") != sum(1 for _, c in cell_objects if c.get("ok")):
            err("aggregate.cells_ok disagrees with the cells array")
        for key in ("throughput_hz", "p99_us"):
            if not isinstance(aggregate.get(key), dict):
                err(f"aggregate.{key} must be an object")

    # Fields spliced in by the examples/sweep CLI (absent when to_json()
    # was emitted directly, e.g. from a unit test).
    if "digests_match" in sweep and sweep["digests_match"] is not True:
        err("digests_match is false: parallel run diverged from sequential")
    seq = sweep.get("sequential_wall_seconds")
    if seq is not None and (not isinstance(seq, (int, float)) or seq < 0):
        err("sequential_wall_seconds must be >= 0")
    elif seq is not None:
        note_speedup(path, "parallel speedup", sweep, seq, wall, MIN_SWEEP_SPEEDUP)
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
    children = span.get("children", [])
    if not isinstance(children, list):
        errors.append(f"{where} children must be a list")
        children = []
    for i, child in enumerate(children):
        if isinstance(child, dict):
            _validate_span(path, child, span.get("span_id"), errors)
        else:
            errors.append(f"{where} children[{i}] must be an object")


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
        rows = [row for _, row in objects(metrics, "metrics", err)]
        for row in rows:
            if not isinstance(row.get("name"), str) or row.get("type") not in (
                    "counter", "gauge", "histogram"):
                err(f"metrics row {row.get('name', '?')} malformed")
        names = [str(row.get("name")) for row in rows]
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
        for _, entry in objects(traces, "slowest_traces", err):
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
        for _, row in objects(profile if isinstance(profile, list) else [],
                              "kernel_profile", err):
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
    metadata = trace.get("metadata", {})
    meta = metadata.get("tracer") if isinstance(metadata, dict) else None
    if not isinstance(meta, dict):
        err("metadata.tracer accounting block missing")
    else:
        for key in ("capacity", "retained", "dropped_while_disabled", "evicted"):
            if not isinstance(meta.get(key), int):
                err(f"metadata.tracer.{key} must be an integer")
    flow_starts, flow_ends = set(), set()
    for _, ev in objects(events, "traceEvents", err):
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
        err(f"flow ends without a matching start: {sorted(flow_ends - flow_starts, key=str)[:3]}")
    if flow_starts - flow_ends:
        err(f"flow starts without a matching end: {sorted(flow_starts - flow_ends, key=str)[:3]}")
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


VALIDATORS = {SWEEP_SCHEMA: validate_sweep, REPORT_SCHEMA: validate_report,
              CLUSTER_SCHEMA: validate_cluster}


def validate_file(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]

    # OpenMetrics expositions are plain text, not JSON.
    if path.suffix == ".om" or text.lstrip().startswith("# TYPE"):
        return validate_openmetrics(path, text)

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{path}: unreadable ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path}: must be a JSON object, got {type(doc).__name__}"]

    # Chrome trace-event files carry no schema marker; dispatch on shape,
    # then on the "schema" field for the dredbox JSON artifacts.
    if "traceEvents" in doc:
        return validate_trace(path, doc)
    schema = doc.get("schema")
    validator = VALIDATORS.get(schema) if isinstance(schema, str) else None
    if validator is None:
        return [f"{path}: schema is {schema!r}, want one of "
                f"{', '.join(VALIDATORS)} (or a Chrome trace / OpenMetrics file)"]
    return validator(path, doc)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    files = parser.parse_args(argv).files
    errors = [e for f in files for e in validate_file(Path(f))]
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"validate-artifacts: {len(files)} file(s) valid against "
              f"{'/'.join(VALIDATORS)}/trace/openmetrics")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

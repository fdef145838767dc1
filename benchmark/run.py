#!/usr/bin/env python3
"""Runs the dReDBox benchmark, gates its correctness and reduces its metrics.

benchmark/run.sh builds dredbox_bench and then calls this script. Every
repetition is its own dredbox_bench process; this script starts them one
after another, so a run never uses more threads than the row workload's
2-thread pass asks for.

Two modes:

  run.sh --workload W --seed N --seconds S --trace 0|1
      Measures one workload: untraced repetitions until S seconds have
      passed (at least 3), plus, with --trace 1, the traced run. Prints
      one JSON line: {"correct", "attempted", "failed", "metrics"} with the
      end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

  run.sh [--reps N] [--seed N] [--smoke] [--out FILE]
      Measures every workload: N untraced repetitions (default 5), taken
      round-robin across the workloads, and one traced run each. Prints
      "workload metric value unit" lines and writes one results JSON with
      every raw repetition (compare.py reads it).
      --smoke runs each window 1/100 as long, with one repetition.

Any failed correctness gate prints the failure, publishes no metrics and
exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
ROW = "row-16rack"
# Metrics of the simulated system: a fixed seed repeats them exactly, so a
# change that only speeds the simulator up must leave them bit-identical.
SIMULATED = {"sim_ops_completed", "completed_op_share", "sim_latency_p50_us",
             "sim_latency_p999_us"}
MIN_REPS = 3
PROCESS_TIMEOUT_S = 170
# At most one op per request stream meets cold caches; they must stay a
# negligible part of the window.
MAX_COLD_SHARE = 0.001
# The p99.9 needs at least ten samples beyond it.
MIN_P999_SAMPLES = 10_000


class GateFailure(Exception):
    pass


class Runner:
    """Starts dredbox_bench processes and counts them."""

    def __init__(self, binary, scratch):
        self.binary = binary
        self.scratch = Path(scratch)
        self.started = 0

    def __call__(self, workload, seed, smoke=False, traced=False, threads=1,
                 reference=False):
        self.started += 1
        out = self.scratch / f"run{self.started}.json"
        cmd = [str(self.binary), "--workload", workload, "--seed", str(seed),
               "--threads", str(threads), "--out", str(out)]
        cmd += ["--smoke"] * smoke + ["--traced"] * traced + ["--reference"] * reference
        try:
            proc = subprocess.run(cmd, timeout=PROCESS_TIMEOUT_S, stdout=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise GateFailure(f"{' '.join(cmd[1:])}: timed out") from None
        if proc.returncode != 0:
            raise GateFailure(f"{' '.join(cmd[1:])}: exit {proc.returncode}")
        return json.loads(out.read_text())


def add_extras(run, record, traced):
    """The processes the gates and the per-layer metrics need beyond the
    untraced repetitions."""
    workload, seed, smoke = record["workload"], record["seed"], record["smoke"]
    if workload == ROW:
        record["reference"] = run(workload, seed, smoke=smoke, reference=True)
    if traced:
        record["traced"] = run(workload, seed, smoke=smoke, traced=True)
        # The spine and partition metrics come from the row workload: its
        # own window, or on a single rack (no spine) a smoke-size row run.
        if workload == ROW:
            record["row"] = record["traced"]
        else:
            record["row"] = run(ROW, seed, smoke=True, traced=True)
        record["row_2t"] = run(ROW, seed, smoke=smoke or workload != ROW, traced=True,
                               threads=min(2, os.cpu_count() or 1))


def check(record):
    """Every correctness gate; raises GateFailure naming the first broken one."""
    workload, runs = record["workload"], record["runs"]
    digest = runs[0]["digest"]
    if any(r["digest"] != digest for r in runs):
        raise GateFailure(f"{workload}: digest differs across repetitions")
    traced = record.get("traced")
    for r in runs + ([traced] if traced else []):
        if not r["balanced"]:
            raise GateFailure(f"{workload}: offered != completed + failed on a rack")
        if r["vms_booted"] != r["vms_requested"]:
            raise GateFailure(f"{workload}: a tenant VM failed to boot or scale up")
        if not record["smoke"] and r["cold_ops"] > MAX_COLD_SHARE * r["completed"]:
            raise GateFailure(f"{workload}: cold-cache ops exceed 0.1% of the window")
        if not record["smoke"] and r["latency_samples"] < MIN_P999_SAMPLES:
            raise GateFailure(f"{workload}: too few latency samples for a p99.9")
    if "reference" in record and record["reference"]["digest"] != digest:
        raise GateFailure(f"{workload}: replayed row phases differ from ClusterEngine::run")
    if traced:
        if traced["digest"] != digest:
            raise GateFailure(f"{workload}: traced run changed the digest")
        if traced["probes"]["failures"]:
            raise GateFailure(f"{workload}: a direct-call layer probe failed")
        if record["row_2t"]["digest"] != record["row"]["digest"]:
            raise GateFailure(f"{workload}: row-16rack at 2 threads differs from 1 thread")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(run):
    ops = run["completed"]
    return {
        "host_ns_per_op": run["window_s"] * 1e9 / ops,
        "sim_s_per_host_s": run["sim_window_s"] / run["window_s"],
        "setup_s": run["setup_s"],
        "total_s": run["total_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_ops_completed": ops,
        "completed_op_share": ops / run["offered"],
        "sim_latency_p50_us": run["sim_latency_p50_us"],
        "sim_latency_p999_us": run["sim_latency_p999_us"],
    }


def label_ns(prefix, *profiles):
    """Host ns per dispatch of the events whose label starts with prefix."""
    dispatches = ns = 0
    for profile in profiles:
        for label, (count, host_ns) in profile.items():
            if label.startswith(prefix):
                dispatches += count
                ns += host_ns
    return ns / dispatches if dispatches else 0.0


def per_layer(record):
    runs, traced, row, row_2t = (record["runs"], record["traced"], record["row"],
                                 record["row_2t"])
    ops = traced["completed"]
    window = traced["profile_window"]
    profiled_ns = sum(ns for _, ns in window.values())
    counters = traced["counters"]
    tgl = counters["hw.tgl.lookup_hits"] + counters["hw.tgl.lookup_misses"]
    part = row["partition"]
    probes = traced["probes"]

    def median(f):
        return statistics.median(f(r) for r in runs)

    return {
        "core.build_s": median(lambda r: r["build_s"]),
        "orch.prepare_ns_per_vm": median(lambda r: r["prepare_s"] * 1e9 / r["vms_booted"]),
        "workload.finish_s": median(lambda r: r["finish_s"]),
        "sim.dispatches_per_op": sum(c for c, _ in window.values()) / ops,
        "workload.op_event_ns": label_ns("workload.", window),
        "memsys.dma_step_ns": label_ns("memsys.dma.", window, traced["profile_dma_probe"]),
        "core.spine_event_ns": label_ns("spine.", row["profile_window"]),
        "sim.kernel_overhead_ns_per_op": (traced["window_s"] * 1e9 - profiled_ns) / ops,
        "sim.unlabeled_share": window.get("(unlabeled)", (0, 0.0))[1] / profiled_ns,
        "sim.partition.rounds_per_op": part["rounds"] / row["completed"],
        "sim.partition.events_per_round_per_shard":
            part["dispatched"] / (part["rounds"] * part["shards"]),
        "sim.partition.messages_per_op": part["messages"] / row["completed"],
        "sim.partition.ns_per_round": row["window_s"] * 1e9 / part["rounds"],
        "sim.partition.wall_ratio_2t": row_2t["window_s"] / row["window_s"],
        "memsys.read_ns": probes["read_ns"],
        "memsys.write_ns": probes["write_ns"],
        "memsys.dma_256k_ns": probes["dma_256k_ns"],
        "net.packet_read_ns": probes["packet_read_ns"],
        "optics.attach_detach_ns": probes["attach_detach_ns"],
        "orch.scale_up_down_ns": probes["scale_up_down_ns"],
        "hw.tgl.hit_ratio": counters["hw.tgl.lookup_hits"] / tgl if tgl else 0.0,
        "memsys.retries_per_op": counters["memsys.fabric.retries"] / ops,
        "memsys.packet_failovers": counters["memsys.fabric.packet_failovers"],
        "memsys.reprovisions": counters["memsys.fabric.reprovisions"],
        "orch.sdm.evacuated_segments": counters["orch.sdm.evacuated_segments"],
        "net.packets_per_op": counters["net.packets.sent"] / ops,
        "core.spine.fail_fast_share": part["spine_fail_fast"] / max(part["cross_ops"], 1),
        "trace.overhead_ratio": traced["window_s"] / median(lambda r: r["window_s"]),
    }


def reduce(record):
    """The results-file entry of one measured workload."""
    per_run = [end_to_end(r) for r in record["runs"]]
    e2e = {}
    for name in (m["name"] for m in SPEC["end_to_end"]):
        values = [m[name] for m in per_run]
        q1, median, q3 = quartiles(values)
        e2e[name] = {"unit": UNITS[name], "median": median, "q1": q1, "q3": q3,
                     "values": values, "simulated": name in SIMULATED}
    layers = per_layer(record) if "traced" in record else {}
    return {
        "digest": record["runs"][0]["digest"],
        "end_to_end": e2e,
        "per_layer": {name: {"unit": UNITS[name], "value": value}
                      for name, value in layers.items()},
        "raw": record,
    }


def driver_mode(run, args):
    """One workload for --seconds; prints the one-line result."""
    record = {"workload": args.workload, "seed": args.seed, "smoke": False, "runs": []}
    try:
        start = time.monotonic()
        while True:
            record["runs"].append(run(args.workload, args.seed))
            n = len(record["runs"])
            if n >= MIN_REPS and (time.monotonic() - start) * (n + 1) / n > args.seconds:
                break
        add_extras(run, record, traced=args.trace == 1)
        check(record)
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.started, 1), "failed": 1,
                          "metrics": {}}))
        return 1
    result = reduce(record)
    if args.trace:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in result["per_layer"].items()}
    else:
        metrics = {n: {"value": m["median"], "unit": m["unit"]}
                   for n, m in result["end_to_end"].items()}
    print(json.dumps({"correct": True, "attempted": run.started, "failed": 0,
                      "metrics": metrics}))
    return 0


def suite_mode(run, args):
    """Every workload, a fixed number of repetitions; writes the results file."""
    reps = 1 if args.smoke else args.reps
    results = {"schema": "dredbox-benchmark/v1", "nproc": os.cpu_count(), "seed": args.seed,
               "smoke": args.smoke, "reps": reps, "workloads": {}}
    records = {w: {"workload": w, "seed": args.seed, "smoke": args.smoke, "runs": []}
               for w in WORKLOADS}
    try:
        # Round-robin over the workloads, so a spell of host load lands on
        # one repetition of each instead of on every repetition of one.
        for _ in range(reps):
            for workload, record in records.items():
                record["runs"].append(run(workload, args.seed, smoke=args.smoke))
        for record in records.values():
            add_extras(run, record, traced=True)
            check(record)
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        return 1
    for workload, record in records.items():
        results["workloads"][workload] = reduce(record)
    for workload, entry in results["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{workload} {name} {m['median']:.6g} {m['unit']}")
        for name, m in entry["per_layer"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bin", default=str(ROOT / "build-benchmark" / "dredbox_bench"))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(ROOT / "build-benchmark" / "results.json"))
    args = parser.parse_args()
    if (args.workload is None) != (args.seconds is None):
        parser.error("--workload and --seconds go together")

    scratch_root = Path(args.bin).resolve().parent
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        run = Runner(args.bin, scratch)
        if args.workload:
            return driver_mode(run, args)
        return suite_mode(run, args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two benchmark result sets against the bounds in BENCHMARK.json.

  compare.py PARENT.json CHANGE.json [--claim METRIC@WORKLOAD]...

PARENT and CHANGE are results files written by `benchmark/run.sh --out`.
A file holding several sets under "sets" (benchmark/baseline/seed.json
holds two) takes a suffix: FILE#N picks set N (default 0).

For every workload and end-to-end metric it prints each side's median and
quartiles and one verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound; for a simulated metric of two same-seed
              sets, any difference (simulated statistics repeat exactly)
  unresolved  the parent's own spread (quartile distance / median) exceeds
              the bound, and not every change run beats every parent run
  ok          neither

--claim METRIC@WORKLOAD claims a gain. It holds only with at least ten
pairs of runs, when the change wins at least nine tenths of the pairs (ties
count for neither side) and the medians differ by more than the parent's
quartile distance.

Exits 1 on any regression, on a lower completed-op share (more failed ops)
or on a claim that does not hold.
"""

import argparse
import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(arg):
    path, _, index = arg.partition("#")
    data = json.loads(Path(path).read_text())
    return data["sets"][int(index or 0)] if "sets" in data else data


def spread(side):
    return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"


def verdict(metric, parent, change, same_seed):
    """(verdict, relative change, positive = worse) for one metric."""
    lower = metric["better"] == "lower"
    p, c = parent["median"], change["median"]
    worse_by = (c - p) / p if lower else (p - c) / p
    if parent.get("simulated") and same_seed:
        return ("ok" if c == p else "regressed"), worse_by
    if worse_by > metric["bound"]:
        return "regressed", worse_by
    every_run_better = all((x < y) if lower else (x > y)
                           for x in change["values"] for y in parent["values"])
    if (parent["q3"] - parent["q1"]) / p > metric["bound"] and not every_run_better:
        return "unresolved", worse_by
    return "ok", worse_by


def claim_holds(metric, parent, change):
    """The section-8 rule: >= 9/10 pairs won and a median gap above the IQR."""
    lower = metric["better"] == "lower"
    pairs = list(zip(parent["values"], change["values"]))
    if len(pairs) < MIN_PAIRS:
        return False, f"{len(pairs)} pairs, need {MIN_PAIRS}"
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    gap = (parent["median"] - change["median"]) * (1 if lower else -1)
    iqr = parent["q3"] - parent["q1"]
    ok = wins >= WIN_SHARE * len(pairs) and gap > iqr
    return ok, f"won {wins}/{len(pairs)} pairs, median gap {gap:.6g} vs parent IQR {iqr:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)
    if parent["smoke"] != change["smoke"]:
        sys.exit("compare.py: cannot compare a --smoke set with a full one")
    same_seed = parent["seed"] == change["seed"]
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}

    failures = []
    print(f"{'workload':12} {'metric':20} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            failures.append(f"{workload}: missing from the change")
            continue
        p_e2e = parent["workloads"][workload]["end_to_end"]
        c_e2e = change["workloads"][workload]["end_to_end"]
        for name, metric in metrics.items():
            p, c = p_e2e[name], c_e2e[name]
            result, worse_by = verdict(metric, p, c, same_seed)
            print(f"{workload:12} {name:20} {spread(p):>34} {spread(c):>34} "
                  f"{worse_by:>+8.2%} {metric['bound']:>6.0%}  {result}")
            if result == "regressed":
                failures.append(f"{workload} {name} regressed")
        if c_e2e["completed_op_share"]["median"] < p_e2e["completed_op_share"]["median"]:
            failures.append(f"{workload}: more failed ops than the parent")

    for claim in args.claim:
        name, _, workload = claim.partition("@")
        if name not in metrics or workload not in parent["workloads"]:
            sys.exit(f"compare.py: unknown claim {claim}")
        holds, why = claim_holds(metrics[name],
                                 parent["workloads"][workload]["end_to_end"][name],
                                 change["workloads"][workload]["end_to_end"][name])
        print(f"claim {claim}: {'holds' if holds else 'NOT MET'} ({why})")
        if not holds:
            failures.append(f"claim {claim} not met")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check the benchmark driver's seed-1 --smoke outputs against pinned values.

  check_bench_digests.py DIR

DIR holds the JSON files the benchmark_driver.* ctests write
(<workload>.json and row-16rack_reference.json). Every run must report its
pinned digest, and every workload run its pinned offered and completed op
counts. A change that moves any of them changes what the simulator
computes; if that is intended, re-pin the values here in the same change.
Each mismatch is one `<file>: ...` line on stderr; any mismatch exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# file stem -> pinned fields of that run's output
PINNED = {
    "rack-read": {"digest": "aa7b8a4c8a52e0a3", "offered": 12819, "completed": 12819},
    "rack-dma": {"digest": "0f5b75702cd0dea0", "offered": 853, "completed": 853},
    "rack-faults": {"digest": "a4da792fddd77661", "offered": 10686, "completed": 10679},
    "row-16rack": {"digest": "3e18a49d6161b9af", "offered": 10927, "completed": 10927},
    # ClusterEngine::run over the same window: only the digest is reported.
    "row-16rack_reference": {"digest": "3e18a49d6161b9af"},
}


def check(path: Path, pinned: dict) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: must be a JSON object"]
    expected = {"seed": 1, **pinned}
    if not doc.get("reference"):  # the reference run does not report its window
        expected["smoke"] = True
    return [f"{path}: {key} is {doc.get(key)!r}, pinned {want!r}"
            for key, want in expected.items() if doc.get(key) != want]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = Path(argv[1])
    problems = []
    for stem, pinned in PINNED.items():
        problems += check(out_dir / f"{stem}.json", pinned)
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    print(f"all {len(PINNED)} smoke runs match their pinned digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

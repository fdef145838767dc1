#!/usr/bin/env python3
"""dredbox-lint: project-specific determinism and hygiene checks.

clang-tidy covers the generic C++ bug classes; this linter enforces the
rules that make a discrete-event simulator reproducible, which no generic
tool knows about:

  wall-clock           Simulated time must come from sim::Time /
                       Simulator::now(), never the host clock. Bans
                       std::chrono::system_clock / steady_clock /
                       high_resolution_clock, time(NULL)-style calls,
                       clock(), gettimeofday(), clock_gettime().
  nondeterministic-rng Randomness must flow from the seeded sim::Rng.
                       Bans std::rand/srand and std::random_device
                       outside src/sim/random.*.
  unordered-iteration  Range-for over a std::unordered_{map,set} member
                       produces platform-dependent order; decision paths
                       and reports iterating one must either use std::map
                       or sort first (and carry a suppression explaining
                       why order cannot leak).
  raw-new              Library code allocates through make_unique /
                       make_shared / containers; raw `new`/`delete`
                       invites leaks on the exception paths the contract
                       layer introduces.
  printf-family        Direct printf/fprintf/sprintf/snprintf in library
                       code bypasses sim::strformat (the bounds-checked
                       formatting wrapper) and writes to streams the
                       determinism harness cannot capture.
  metric-name          Instrument names registered on MetricsRegistry
                       must be dotted lower-case with at least three
                       components ("sub.system.metric"), so OpenMetrics /
                       report exports group deterministically and rename
                       collisions stay visible. Checked for literal names
                       in .counter("...")/.gauge("...")/.histogram("...")
                       calls in library code.
  include-layering     src/ is a DAG of layers (sim -> hw -> {optics, net,
                       memsys} / {os, hyp} -> orch -> core -> workload,
                       with tco off sim); a file under src/<layer>/ may
                       #include "other/..." only when <layer> is allowed
                       to depend on `other`. Keeps the simulation kernel
                       reusable and upward dependencies (the cycles that
                       break incremental testing) out.
  mutable-global       `static`/`inline` non-const data (namespace-scope
                       globals, class statics, function-local statics) is
                       shared mutable state: it leaks simulation results
                       across runs within one process and races under the
                       parallel sweep runner. State belongs in objects
                       owned by a Datacenter; genuinely immutable tables
                       must be `static const`/`static constexpr`.
                       (Heuristic skips declarations whose first
                       punctuation is `(` — i.e. functions.)

  hot-path-alloc       The op datapath is allocation-free in steady state
                       (the BM_*SteadyStateAllocs benches pin it at 0
                       allocs/op); code between
                       `// dredbox-lint: hot-path-begin` and
                       `// dredbox-lint: hot-path-end` markers must not
                       reach for heap-allocating constructs: make_unique /
                       make_shared, std::function (type-erased heap
                       fallback; use sim::InplaceFunction), or std::string
                       temporaries (std::string{...}, std::to_string).
                       Cold branches inside a hot region (error-string
                       assembly, tracing-gated telemetry) carry a
                       suppression with the reason.

Suppress a finding with:  // dredbox-lint: ignore[<rule>]
(with a reason after the closing bracket, by convention). On a line of its
own the suppression applies to the next line; trailing a statement it
applies to that line.

Usage: dredbox_lint.py [--root DIR] [PATHS...]
Exits 0 when clean, 1 when any violation is found. Output is sorted by
(file, line) so runs are diffable.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Library code held to the strictest standard. examples/ and bench/ are
# CLI programs where printf-to-stdout is the product; tests may exercise
# banned constructs on purpose.
LIB_DIRS = ("src",)
ALL_DIRS = ("src", "tests", "examples", "bench")
EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".h"}

SUPPRESS_RE = re.compile(r"//\s*dredbox-lint:\s*ignore\[([a-z-]+(?:\s*,\s*[a-z-]+)*)\]")

# Hot-datapath region markers (matched on RAW lines, so they read as plain
# comments to the compiler). Between a begin and its end, heap-allocating
# constructs are findings under `hot-path-alloc`.
HOT_PATH_BEGIN_RE = re.compile(r"//\s*dredbox-lint:\s*hot-path-begin\b")
HOT_PATH_END_RE = re.compile(r"//\s*dredbox-lint:\s*hot-path-end\b")
HOT_ALLOC_RE = re.compile(
    r"\bstd::make_unique\s*<"
    r"|\bstd::make_shared\s*<"
    r"|\bstd::function\s*<"
    r"|\bstd::string\s*[({]"
    r"|\bstd::to_string\s*\("
)

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\b(?:std::)?(?:time|clock|gettimeofday|clock_gettime|localtime|gmtime)\s*\("
)
RNG_RE = re.compile(r"\bstd::(rand|srand|random_device)\b|\brandom_device\b")
RAW_NEW_RE = re.compile(r"(?<![:\w])new\s+(?:\(|[A-Za-z_:])")
RAW_DELETE_RE = re.compile(r"(?<![:\w])delete(?:\[\])?\s+[A-Za-z_:(]")
PRINTF_RE = re.compile(r"\b(?:std::)?(printf|fprintf|sprintf|snprintf|vsprintf|vsnprintf|vprintf|vfprintf|puts|fputs|putchar)\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*(?:\[[^\]]*\]|\w+)\s*:\s*([A-Za-z_][\w.:\->]*)\s*\)")
# Literal instrument registrations; the name itself lives in the raw line
# because strip_comments_and_strings blanks string contents.
METRIC_REG_CALL_RE = re.compile(r"\.(?:counter|gauge|histogram)\s*\(")
METRIC_REG_NAME_RE = re.compile(r"\.(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+){2,}$")

# Declarations allowed to use banned constructs because they ARE the
# sanctioned wrapper (relative to repo root).
RNG_ALLOWED = {"src/sim/random.hpp", "src/sim/random.cpp"}

# The architecture DAG: src/<layer>/ may include headers only from these
# layers. sim is the dependency-free kernel; hw models sit on it; the
# fabric stack (optics -> net -> memsys) and the software stack (os ->
# hyp) build on hw; orch coordinates both; tco is an independent model off
# sim; core composes everything; workload drives core.
LAYER_DEPS: dict[str, set[str]] = {
    "sim": {"sim"},
    "hw": {"sim", "hw"},
    "optics": {"sim", "hw", "optics"},
    "net": {"sim", "hw", "optics", "net"},
    "memsys": {"sim", "hw", "optics", "net", "memsys"},
    "os": {"sim", "hw", "os"},
    "hyp": {"sim", "hw", "os", "hyp"},
    "orch": {"sim", "hw", "optics", "net", "memsys", "os", "hyp", "orch"},
    "tco": {"sim", "tco"},
    "core": {"sim", "hw", "optics", "net", "memsys", "os", "hyp", "orch", "tco", "core"},
    "workload": {"sim", "hw", "optics", "net", "memsys", "os", "hyp", "orch", "tco",
                 "core", "workload"},
}
# Quoted project include whose first path component is a known layer.
# Matched on the RAW line: string stripping blanks the path out.
PROJECT_INCLUDE_RE = re.compile(r'#include\s+"([a-z]+)/')

# `static`/`inline` data declarations that are not immutable. The first
# punctuation after the declarator decides: `(` is a function (skipped),
# `; = {` is data (flagged). Misses pathological cases like
# `static std::function<void()> f;` (a `(` inside template args), which a
# review catches; the rule exists to stop the easy 95%.
MUTABLE_GLOBAL_RE = re.compile(
    r"^\s*(?:(?:inline|static)\s+){1,2}"
    r"(?!(?:const|constexpr|constinit|consteval|thread_local|struct|class|enum|union)\b)"
)
MUTABLE_GLOBAL_KEYWORD_RE = re.compile(r"\b(?:static|inline)\s")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str) -> None:
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line layout.

    Suppression comments are consumed separately before this runs.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 1) + (text[j] if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_unordered_members(stripped_files: dict[str, str]) -> set[str]:
    """Names declared anywhere as unordered containers (cross-file, by name).

    Name-based matching is deliberately coarse: a name that is unordered
    in one translation unit flags range-fors over the same name anywhere,
    which errs toward review rather than silence.
    """
    names: set[str] = set()
    for text in stripped_files.values():
        for m in UNORDERED_DECL_RE.finditer(text):
            names.add(m.group(1))
    return names


def lint_file(
    rel: str,
    raw: str,
    stripped: str,
    unordered_names: set[str],
    in_lib: bool,
) -> list[Finding]:
    findings: list[Finding] = []
    raw_lines = raw.splitlines()
    stripped_lines = stripped.splitlines()

    suppressions: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            suppressions.setdefault(idx, set()).update(rules)
            # A comment-only suppression line also covers the next line.
            if line.lstrip().startswith("//"):
                suppressions.setdefault(idx + 1, set()).update(rules)

    def suppressed(lineno: int, rule: str) -> bool:
        rules = suppressions.get(lineno)
        return rules is not None and (rule in rules or "all" in rules)

    def add(lineno: int, rule: str, message: str) -> None:
        if not suppressed(lineno, rule):
            findings.append(Finding(rel, lineno, rule, message))

    # Layer of a src/<layer>/... file, for include-layering.
    parts = rel.split("/")
    layer = parts[1] if len(parts) >= 3 and parts[0] == "src" and parts[1] in LAYER_DEPS else None

    # Hot-datapath regions: lines between begin/end markers (raw lines —
    # the markers are comments, which stripping blanks out).
    hot_lines: set[int] = set()
    in_hot = False
    for idx, line in enumerate(raw_lines, start=1):
        if HOT_PATH_END_RE.search(line):
            in_hot = False
        elif HOT_PATH_BEGIN_RE.search(line):
            in_hot = True
        elif in_hot:
            hot_lines.add(idx)
    if in_hot:
        add(len(raw_lines), "hot-path-alloc",
            "unterminated hot-path-begin marker (missing hot-path-end)")

    for idx, line in enumerate(stripped_lines, start=1):
        if idx in hot_lines and HOT_ALLOC_RE.search(line):
            add(idx, "hot-path-alloc",
                "heap-allocating construct inside a hot-path region; the op "
                "datapath is allocation-free in steady state — use "
                "sim::InplaceFunction, sim::component() ids, or pooled storage "
                "(or suppress with the reason this branch is cold)")
        if layer is not None:
            raw_line = raw_lines[idx - 1] if idx - 1 < len(raw_lines) else ""
            for m in PROJECT_INCLUDE_RE.finditer(raw_line):
                included = m.group(1)
                if included in LAYER_DEPS and included not in LAYER_DEPS[layer]:
                    add(idx, "include-layering",
                        f"src/{layer}/ must not include \"{included}/...\": the layer DAG "
                        f"allows {layer} -> {{{', '.join(sorted(LAYER_DEPS[layer]))}}}")
        if in_lib and MUTABLE_GLOBAL_RE.match(line):
            decl = MUTABLE_GLOBAL_KEYWORD_RE.sub("", line, count=2)
            first_punct = next((c for c in decl if c in "(;={"), None)
            if first_punct in {";", "=", "{"}:
                add(idx, "mutable-global",
                    "static/inline non-const data is shared mutable state (races under "
                    "the parallel sweep, leaks across runs); move it into an object or "
                    "declare it static const/constexpr")
        if WALL_CLOCK_RE.search(line):
            add(idx, "wall-clock",
                "host clock source in simulation code; use sim::Time / Simulator::now()")
        if rel not in RNG_ALLOWED and RNG_RE.search(line):
            add(idx, "nondeterministic-rng",
                "unseeded randomness; draw from the simulation's sim::Rng instead")
        if in_lib:
            if RAW_NEW_RE.search(line):
                add(idx, "raw-new",
                    "raw `new` in library code; use std::make_unique/make_shared or a container")
            if RAW_DELETE_RE.search(line):
                add(idx, "raw-new",
                    "raw `delete` in library code; ownership belongs in smart pointers")
            if PRINTF_RE.search(line):
                add(idx, "printf-family",
                    "printf-family call in library code; use sim::strformat / iostreams")
            for m in RANGE_FOR_RE.finditer(line):
                target = m.group(1)
                base = target.split(".")[-1].split("->")[-1]
                if base in unordered_names:
                    add(idx, "unordered-iteration",
                        f"range-for over unordered container '{base}': iteration order is "
                        "implementation-defined; use std::map, sort first, or suppress with "
                        "a reason if order provably cannot leak into simulation state")
            if METRIC_REG_CALL_RE.search(line):
                raw_line = raw_lines[idx - 1] if idx - 1 < len(raw_lines) else ""
                for m in METRIC_REG_NAME_RE.finditer(raw_line):
                    name = m.group(1)
                    if not METRIC_NAME_RE.match(name):
                        add(idx, "metric-name",
                            f"instrument name '{name}' must be dotted lower-case with >= 3 "
                            "components, e.g. 'memsys.fabric.retries'")
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: src/ tests/ examples/ bench/)")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
    else:
        files = []
        for d in ALL_DIRS:
            base = root / d
            if base.is_dir():
                files.extend(p for p in sorted(base.rglob("*")) if p.suffix in EXTENSIONS)

    raw_texts: dict[str, str] = {}
    stripped_texts: dict[str, str] = {}
    for path in files:
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        try:
            raw_texts[rel] = path.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            print(f"dredbox-lint: cannot read {rel}: {err}", file=sys.stderr)
            return 2
        stripped_texts[rel] = strip_comments_and_strings(raw_texts[rel])

    unordered_names = collect_unordered_members(
        {r: t for r, t in stripped_texts.items() if r.startswith(LIB_DIRS)}
    )

    findings: list[Finding] = []
    for rel in raw_texts:
        in_lib = rel.startswith(LIB_DIRS)
        findings.extend(
            lint_file(rel, raw_texts[rel], stripped_texts[rel], unordered_names, in_lib)
        )

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")

    if findings:
        print(f"\ndredbox-lint: {len(findings)} violation(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"dredbox-lint: {len(raw_texts)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

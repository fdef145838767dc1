#!/usr/bin/env bash
# Samples where the benchmark driver spends its time on one workload.
#
#   scripts/profile.sh WORKLOAD [SEED]     # e.g. scripts/profile.sh rack-dma 3
#
# Builds benchmark/dredbox_bench.cpp with scripts/sampler.cpp linked in
# (Release flags plus -g, against the libraries in src/, into
# build-profile/, the way the benchmark_driver ctests build the driver),
# runs three full windows of WORKLOAD with SEED (default 1) and prints two
# tables of the 50 us wall-clock samples: by function (the outermost,
# non-inlined frame of each sample) and by source line (the innermost
# inlined frame), both resolved with `addr2line -i`. Samples in shared
# libraries are listed by library and symbol. Pin it (taskset -c N) for
# steadier shares. Edits nothing under benchmark/.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/profile.sh WORKLOAD [SEED]" >&2
  exit 2
fi
workload="$1"
seed="${2:-1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-profile"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

mkdir -p "$build/project"
cat > "$build/project/CMakeLists.txt" <<EOF
cmake_minimum_required(VERSION 3.20)
project(dredbox_profile LANGUAGES CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
find_package(Threads REQUIRED)
include_directories($root/src)
add_subdirectory($root/src \${CMAKE_BINARY_DIR}/dredbox)
add_executable(dredbox_bench_sampled $root/benchmark/dredbox_bench.cpp $root/scripts/sampler.cpp)
target_link_libraries(dredbox_bench_sampled PRIVATE dredbox_workload \${CMAKE_DL_LIBS})
EOF
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$build/project" -B "$build" -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-g >&2
fi
cmake --build "$build" -j "$jobs" --target dredbox_bench_sampled >&2

cd "$build"
rm -f profile.samples
for _ in 1 2 3; do
  ./dredbox_bench_sampled --workload "$workload" --seed "$seed" --out run.json
done

python3 - "$build/dredbox_bench_sampled" profile.samples "$workload" "$seed" <<'EOF'
import collections
import re
import subprocess
import sys

exe, samples_path, workload, seed = sys.argv[1:]
exe_addrs = collections.Counter()
by_function = collections.Counter()
by_line = collections.Counter()
total = 0
with open(samples_path) as f:
    for line in f:
        kind, rest = line.rstrip("\n").split(" ", 1)
        total += 1
        if kind == "exe":
            exe_addrs[rest] += 1
        else:
            lib, symbol = rest.split(" ", 1)
            by_function[f"{symbol} [{lib}]"] += 1
            by_line[f"{lib}: {symbol}"] += 1
if total == 0:
    sys.exit("profile.sh: no samples were recorded")

# `addr2line -a -f -i` prints each address, then a (function, file:line)
# pair per frame from the innermost inlined frame out to the real function.
addrs = list(exe_addrs)
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe], input="\n".join(addrs),
                     capture_output=True, text=True, check=True).stdout.splitlines()
frames = {}
i = 0
while i < len(out):
    if re.fullmatch(r"0x[0-9a-f]+", out[i]):
        current = frames.setdefault(int(out[i], 16), [])
        i += 1
    else:
        current.append((out[i], out[i + 1] if i + 1 < len(out) else "??:0"))
        i += 2
for addr, count in exe_addrs.items():
    stack = frames.get(int(addr, 16)) or [("??", "??:0")]
    by_function[stack[-1][0]] += count
    function, location = stack[0]
    location = location.split(" (discriminator")[0]
    for prefix in ("/src/", "/benchmark/", "/scripts/"):
        cut = location.find(prefix)
        if cut >= 0:
            location = location[cut + 1:]
            break
    by_line[f"{location}  {function}"] += count

def table(title, counter, rows=30):
    print(f"\n{title}")
    print(f"{'share':>7} {'samples':>8}  where")
    for name, count in counter.most_common(rows):
        print(f"{100.0 * count / total:6.1f}% {count:8d}  {name[:150]}")

print(f"{workload} seed {seed}: {total} samples at 50 us over 3 runs")
table("By function (outermost frame)", by_function)
table("By source line (innermost frame)", by_line)
EOF

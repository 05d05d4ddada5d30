#!/usr/bin/env bash
# Build the benchmark harness together with xbar_serve and xbar_router from
# this checkout, then run it:
#
#   benchmark/run.sh [--workload NAME]... [--seed N] [--trace 0|1|PATH]
#                    [--smoke] [--json]
#
# Flags take "--flag value" or "--flag=value"; a later flag overrides an
# earlier one.  Without --workload every workload runs.  The build lands in .bench_build/ at the checkout root and
# its log in .bench_build/build.log; stdout carries only the harness's own
# lines, the last of which is the JSON result.  See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: no xbar sources at $root/src; nothing to benchmark" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4
mkdir -p "$build"
if ! {
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --parallel "$jobs" --target xbar_bench
} >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 2
fi

cd "$root"
exec "$build/xbar_bench" "$@"

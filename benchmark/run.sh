#!/usr/bin/env bash
# Build and run the repository benchmark (see benchmark/README.md).
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds N]
#                         [--trace 0|1 | --traced] [--repeat N] [--smoke]
#
# Configures and builds benchmark/ as its own Release CMake project in
# build-benchmark/, then runs each workload in its own process. Without
# --workload it runs all four; --repeat N runs the list N times, reversing
# the order on every other pass. Each run prints its metrics by name and
# unit, and as its last line one JSON object with its contract metrics.
# Exits non-zero when a build or a correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd -P)"
cd "$root"
# The library reads these; the benchmark pins them to their defaults.
unset CHATFUZZ_ML_THREADS CHATFUZZ_WORKERS CHATFUZZ_SMOKE

all_workloads=(chatfuzz thehuzz thehuzz_procs2 thehuzz_2dut)
workloads=()
seed=1
seconds=10
trace=0
repeat=1
smoke=()

die() {
  echo "run.sh: $*" >&2
  exit 2
}
number() {
  [[ "$2" =~ ^[0-9]+$ ]] || die "$1 needs a whole number, got '$2'"
}

while (($#)); do
  case "$1" in
    --workload) (($# >= 2)) || die "missing value for $1"; workloads+=("$2"); shift 2 ;;
    --seed) (($# >= 2)) || die "missing value for $1"; number "$1" "$2"; seed="$2"; shift 2 ;;
    --seconds) (($# >= 2)) || die "missing value for $1"; number "$1" "$2"; seconds="$2"; shift 2 ;;
    --trace) (($# >= 2)) || die "missing value for $1"; [[ "$2" == 0 || "$2" == 1 ]] || die "--trace takes 0 or 1"; trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --repeat) (($# >= 2)) || die "missing value for $1"; number "$1" "$2"; repeat="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    -h|--help) sed -n '2,12p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) die "unknown argument '$1'" ;;
  esac
done
((${#workloads[@]})) || workloads=("${all_workloads[@]}")
for w in "${workloads[@]}"; do
  [[ " ${all_workloads[*]} " == *" $w "* ]] || die "unknown workload '$w'"
done

# The benchmark builds the library from the checkout's own sources.
[[ -f CMakeLists.txt && -d src ]] || die "no chatfuzz sources in $root (CMakeLists.txt and src/ are missing)"

build="$root/build-benchmark"
jobs="$(nproc)"
((jobs <= 4)) || jobs=4
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2
grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "$build/CMakeCache.txt" ||
  die "refusing to measure a non-Release build in $build"

commit=unknown
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [[ "$top" == "$root" ]]; then
  commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
  git diff --quiet HEAD -- 2>/dev/null || commit+="-dirty"
fi

status=0
for ((pass = 0; pass < repeat; pass++)); do
  order=("${workloads[@]}")
  if ((pass % 2 == 1)); then
    for ((i = 0, j = ${#order[@]} - 1; i < j; i++, j--)); do
      tmp="${order[i]}"; order[i]="${order[j]}"; order[j]="$tmp"
    done
  fi
  for w in "${order[@]}"; do
    "$build/chatfuzz_benchmark" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" "${smoke[@]}" \
      --out-dir "$build/artifacts" --commit "$commit" || status=1
  done
done
exit "$status"

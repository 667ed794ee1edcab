#!/usr/bin/env bash
# Profiles a bench binary and prints the hot-function table.
#
#   ./scripts/profile.sh [bench] [args...]
#
# Defaults to `selfperf` (the wall-clock suite behind results/BENCH_simperf.json).
# `perfbench` resolves to the repository benchmark's binary
# (.bench_build/perfbench, built by `python3 perfbench/run.py`).
# Examples:
#   ./scripts/profile.sh                      # selfperf, full suite
#   ./scripts/profile.sh fig07_overall        # under MUTPS_QUICK=1 if you set it
#   ./scripts/profile.sh selfperf --only=mutps_tree
#   ./scripts/profile.sh perfbench --workload hash-ycsbc --seed 1 --seconds 0 \
#       --trace 0 --trace-out /dev/null
#
# Prefers perf(1) when it is present AND usable (kernel.perf_event_paranoid
# permitting). Otherwise it preloads the in-tree SIGPROF sampler
# (scripts/sampler.c, ~1 kHz of CPU time) into the unmodified binary and
# symbolizes the samples with scripts/symbolize.py: tables by innermost
# inlined function, by source line and by caller, plus the share of samples
# inside the cache model, the engine and the NIC. Containers in this project
# typically lack perf, so the sampler path is the one exercised day to day.
# Binaries need debug info (the default preset's RelWithDebInfo has it) and
# frame pointers (on globally) for the caller table.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
bench="${1:-selfperf}"
shift || true

find_bin() {
  for cand in "$repo/build/bench/$bench" "$repo/build/tests/$bench" \
              "$repo/build/$bench" "$repo/.bench_build/perfbench/$bench"; do
    if [[ -x "$cand" ]]; then
      echo "$cand"
      return 0
    fi
  done
  return 1
}

perf_usable() {
  command -v perf >/dev/null 2>&1 || return 1
  # perf exists but may be blocked (no kernel support in container, or
  # perf_event_paranoid too strict). A 1-instruction probe settles it.
  perf stat -e task-clock true >/dev/null 2>&1
}

if ! bin="$(find_bin)"; then
  echo "building $bench (default preset)..."
  cmake --build "$repo/build" -j"$(nproc)" --target "$bench" >/dev/null
  bin="$(find_bin)"
fi

if perf_usable; then
  echo "== perf path (build/ preset binaries have frame pointers) =="
  data="$(mktemp /tmp/utps-perf-XXXX.data)"
  perf record --call-graph fp -o "$data" -- "$bin" "$@"
  perf report -i "$data" --stdio --percent-limit 0.5 | head -80
  echo "full report: perf report -i $data"
  exit 0
fi

echo "== sampler path (perf unavailable; SIGPROF sampler via LD_PRELOAD) =="
# The sample file lands in the working directory; run from a scratch dir so
# repeated profiles do not clobber each other or litter the repo root.
run="$(mktemp -d /tmp/utps-sampler-XXXX)"
cc -O2 -shared -fPIC -o "$run/sampler.so" "$repo/scripts/sampler.c"
(cd "$run" && LD_PRELOAD="$run/sampler.so" "$bin" "$@")
samples="$(ls "$run"/sampler.*.txt)"
python3 "$repo/scripts/symbolize.py" "$samples" --top 30 \
  --match 'MemoryModel::' --match 'Engine::' --match 'Nic::'
echo
echo "samples: $samples (re-run scripts/symbolize.py on it for other views)"

#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json N times, alternating the workload
# order between rounds, and keeps each run's result file for compare.py.
#
#   bench/e2e/run.sh OUT_DIR [RUNS=5] [SECONDS=10] [FIRST_SEED=1] [--traced]
#
# Round i uses seed FIRST_SEED+i for every workload, so two calls with the
# same FIRST_SEED run the same streams (compare.py then also checks that
# equal seeds repeat their stream hash and churn's counts exactly).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,9p' "$0" >&2
  exit 2
fi
out=$1
runs=${2:-5}
seconds=${3:-10}
first_seed=${4:-1}
traced=${5:-}
if [[ -n "$traced" && "$traced" != "--traced" ]]; then
  echo "fifth argument must be --traced" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/../.." && pwd)
build=$root/.bench_build/e2e
mkdir -p "$out" "$build/tmp"
TMPDIR=$build/tmp cmake -S "$root/bench/e2e" -B "$build" \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
TMPDIR=$build/tmp cmake --build "$build" --target bench_e2e -j4 >/dev/null

mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")

status=0
for ((i = 0; i < runs; i++)); do
  seed=$((first_seed + i))
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do
      order+=("${workloads[k]}")
    done
  fi
  for w in "${order[@]}"; do
    name=$w-s$seed${traced:+-traced}
    if ! "$build/bench_e2e" --workload="$w" --seed="$seed" \
        --seconds="$seconds" $traced --out="$out/$name.json" \
        >"$out/$name.log"; then
      echo "$name: a check failed (see $out/$name.log)" >&2
      status=1
    fi
    echo "$name done" >&2
  done
done
exit $status

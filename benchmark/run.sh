#!/usr/bin/env bash
# run.sh builds the benchmark once and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process: the command BENCHMARK.json names.
#   bash benchmark/run.sh [-seed N] [-runs K]
#       every workload, one process each, untraced then traced; writes
#       benchmark/out/results.json and benchmark/out/trace/<workload>.json.
#   bash benchmark/run.sh -compare a.json b.json | -list | -spec
#
# The build, Go's build cache included, stays inside the checkout, in
# .bench_build/ at its root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/rcmbench" .)

mode=all
for arg in "$@"; do
  case "$arg" in
    -workload|--workload|-workload=*|--workload=*|-compare|--compare|-list|--list|-spec|--spec|-all|--all|-h|--help) mode=asis ;;
  esac
done
if [ "$mode" = all ]; then
  set -- -all -out "$here/out" "$@"
fi
exec "$build/rcmbench" "$@"

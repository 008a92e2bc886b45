#!/usr/bin/env bash
# bench.sh produces the benchmark artifacts in one command:
#
#   BENCH_exp.json       — experiment-runner benchmarks (ns/op, allocs/op)
#   BENCH_eventsim.json  — event-engine benchmarks (events/s, allocs/event,
#                          plus ns/op and allocs/op)
#   BENCH_node.json      — live-node benchmarks (ns/op, allocs/op): wire
#                          codec, one loop trip, one hop on mem and UDP, store
#
# Usage: scripts/bench.sh [exp-benchtime] [eventsim-benchtime] [node-benchtime]
# Defaults: 100x for the (cheap) runner benchmarks, 5x for the (whole-run)
# event-engine benchmarks, 1s for the (nanosecond to microsecond) node
# benchmarks; CI uses the defaults. Also exposed as `make bench`.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-100x}"
eventtime="${2:-5x}"
nodetime="${3:-1s}"

# extract_json turns `go test -bench` output into a JSON array of
# {name, ns_per_op, allocs_per_op, events_per_s, allocs_per_event}
# objects, null where a benchmark does not report the metric.
extract_json() {
  awk 'BEGIN { print "[" ; first=1 }
       /^Benchmark/ {
         name=$1; ns=""; allocs=""; evps=""; apev=""
         for (i=2; i<=NF; i++) {
           if ($(i+1) == "ns/op") ns=$i
           if ($(i+1) == "allocs/op") allocs=$i
           if ($(i+1) == "events/s") evps=$i
           if ($(i+1) == "allocs/event") apev=$i
         }
         if (!first) printf ",\n"
         first=0
         printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"events_per_s\": %s, \"allocs_per_event\": %s}", \
           name, (ns==""?"null":ns), (allocs==""?"null":allocs), (evps==""?"null":evps), (apev==""?"null":apev)
       }
       END { print "\n]" }'
}

echo "== experiment runner (BENCH_exp.json) =="
go test -bench 'BenchmarkStreamSweep|BenchmarkExpSweep' -benchmem -benchtime "$benchtime" -run '^$' . ./exp | tee bench_exp.txt
extract_json < bench_exp.txt > BENCH_exp.json
cat BENCH_exp.json

echo "== event engine (BENCH_eventsim.json) =="
# Two invocations share one artifact: the mid-size benchmarks (including
# the {1,2,4,8} shard sweep) at the configured benchtime, and the 2^20-node
# macro-benchmark shard sweep at 2x — one million-node run per shard count
# is plenty, and the shared prebuilt overlay amortizes construction.
go test -bench 'BenchmarkEventSim$|BenchmarkEventSimShards|BenchmarkEventSimScheduler|BenchmarkEventSimFault' \
  -benchmem -benchtime "$eventtime" -run '^$' ./eventsim | tee bench_eventsim.txt
go test -bench 'BenchmarkEventSimLarge' \
  -benchmem -benchtime 2x -run '^$' ./eventsim | tee -a bench_eventsim.txt
extract_json < bench_eventsim.txt > BENCH_eventsim.json
cat BENCH_eventsim.json

echo "== live node (BENCH_node.json) =="
go test -bench . -benchmem -benchtime "$nodetime" -run '^$' ./node | tee bench_node.txt
extract_json < bench_node.txt > BENCH_node.json
cat BENCH_node.json

# No gate on the live layer: its claims are made end to end, through
# benchmark/run.sh. The diff against the committed snapshot is the
# trajectory (bench/README.md holds the snapshot of its parent as well).
echo "== live node vs committed snapshot (cmd/benchcmp, informational) =="
go run ./cmd/benchcmp -file BENCH_node.json -baseline bench/BENCH_node.baseline.json

# Scheduler gate: on the churn workload the timing-wheel queue must
# sustain at least 1.5x the events/s of the binary-heap reference measured
# in the same run (same machine, same binary — immune to host-speed
# variation; both sides process the identical event sequence). Measured
# 2.0x on 2 cores when the bar was set; 1.4x was the linked-list wheel this
# one replaced. Plus an informational benchstat-style diff against the
# committed baseline snapshot.
echo "== scheduler gate: wheel vs heap (cmd/benchcmp) =="
go run ./cmd/benchcmp -file BENCH_eventsim.json \
  -base BenchmarkEventSimScheduler/heap -new BenchmarkEventSimScheduler/wheel \
  -metric events_per_s -min-ratio 1.5 \
  -baseline bench/BENCH_eventsim.baseline.json

# Fault-middleware gate: a bound fault plan whose clauses never fire on
# the benchmark workload (a partition window after the run ends) must
# cost under 2% events/s versus the bare transport (same machine, same
# binary) — fault injection is pay-for-what-you-use.
echo "== fault-middleware gate: noop plan vs off (cmd/benchcmp) =="
go run ./cmd/benchcmp -file BENCH_eventsim.json \
  -base BenchmarkEventSimFault/off -new BenchmarkEventSimFault/noop \
  -metric events_per_s -tolerance 0.02

# Shard-scaling gate: four shards must beat one shard's events/s by a
# factor that depends on what the host can physically deliver — parallel
# speedup needs parallel hardware. On >= 4 cores the persistent-worker
# engine owes a real scaling win (1.3x); on 2-3 cores a modest one; on a
# serial host no speedup is possible, so the gate instead pins the
# sharding tax near zero (the pre-rework engine was ~20% *slower* at 4
# shards even serially). The 1.30 multi-core bar is the scaling target,
# set from the serial measurements (1.06x on ONE core with the barrier
# reduced to 2xShards channel ops per epoch); if a particular runner's
# first multi-core run lands under it, recalibrate with one line here or
# override ad hoc with SHARD_GATE_FACTOR.
cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ -n "${SHARD_GATE_FACTOR:-}" ]; then
  factor="$SHARD_GATE_FACTOR"
elif [ "$cores" -ge 4 ]; then
  factor=1.30
elif [ "$cores" -ge 2 ]; then
  factor=1.05
else
  factor=0.95
fi
echo "== shard-scaling gate: Shards/4 vs Shards/1, factor $factor on $cores core(s) (cmd/benchcmp) =="
go run ./cmd/benchcmp -file BENCH_eventsim.json \
  -base BenchmarkEventSimShards/1 -new BenchmarkEventSimShards/4 \
  -metric events_per_s -min-ratio "$factor"

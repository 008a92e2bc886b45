# Developer entry points; CI calls the same targets so local runs and the
# pipeline cannot drift.

.PHONY: build test race cpu-sweep bench lines profile fmt vet lint fuzz-smoke cluster-smoke chaos-smoke examples

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# cpu-sweep runs the golden-bearing packages at two core counts. Every
# number they pin is a function of (plan, seed) alone; a sample that
# starts to depend on the host fails a golden under one of the two
# instead of waiting for someone to compare two machines. The root
# package is not in the list: it pins no golden, and its registry tests
# register process-global names, so they cannot run twice in one process.
# eventsim's pinned digests run at both counts too: one core drains the
# shards inline, four drain them on worker goroutines, and the two must
# reproduce the same recorded results.
cpu-sweep:
	go test -cpu 1,4 ./exp ./internal/sim ./internal/figures ./cmd/dhtsim ./cmd/figures
	go test -cpu 1,4 -run TestResultsPinned ./eventsim

# bench runs the repository benchmark (BENCHMARK.json; benchmark/README.md)
# once over all seven workloads, untraced then traced, and writes
# benchmark/out/results.json and benchmark/out/trace/. It is the only
# source of a performance number; hold two result sets against each
# other with `bash benchmark/run.sh -compare a.json b.json`.
bench:
	bash benchmark/run.sh -runs 1

# lines prints the two line counts ROADMAP.md and CHANGES.md quote —
# non-test Go and test Go, benchmark/ and examples/ excluded — so the
# north-star number is a command, not a transcription.
lines:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/\|^examples/' | xargs wc -l | tail -1 | awk '{print $$1, "non-test Go lines"}'
	@git ls-files '*.go' | grep '_test.go$$' | grep -v '^benchmark/\|^examples/' | xargs wc -l | tail -1 | awk '{print $$1, "test Go lines"}'

# profile runs a 2^12 massfail-with-maintenance workload through cmd/eventsim
# with pprof enabled, so perf investigations start from cpu.prof/mem.prof
# (go tool pprof cpu.prof) instead of guesses. BITS, RATE and DURATION
# resize it: `make profile BITS=20 RATE=200000` is the
# million-node run.
BITS ?= 12
RATE ?= 20000
DURATION ?= 2
profile:
	go run ./cmd/eventsim -bits $(BITS) -scenario massfail -fail 0.3 -fail-time 1 \
	  -rate $(RATE) -duration $(DURATION) -maintain -mode event \
	  -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof — inspect with: go tool pprof cpu.prof"

# cluster-smoke boots a live in-process 64-node DHT cluster on virtual
# time ("sim") and replays an eventsim massfail schedule against it — the
# quick end-to-end check that the live-node layer (wire protocol, RTO
# failover, kill/restart) still routes. Virtual time makes it a
# sub-second run; -timeout is the backstop against a hang. Set
# CLUSTER_METRICS_OUT=<file> to also write the cluster-wide
# metrics/histogram snapshot (CI uploads it as an artifact).
cluster-smoke:
	go test -run TestClusterSmoke -count=1 -timeout 60s -v ./node/cluster/

# chaos-smoke runs the conformance grid under the race detector: the six
# forwarders × q × k × every fault clause (rcm/fault), alone and
# together, at 128 nodes, one
# fault-free 4096-node cell per forwarder and one retransmitting corrupt
# cell, each replayed on a live "sim" cluster and held to eventsim per
# lookup (outcome and hops) and per cell (fault tallies).
chaos-smoke:
	go test -race -run TestConformanceLiveVsEventsim -count=1 -timeout 60s ./node/cluster/

fmt:
	gofmt -l .

vet:
	go vet ./...

# examples runs the two examples that cross the eventsim boundary
# (./... already builds and vets examples/, part of the root module; nothing
# else executes them).
examples:
	go run ./examples/churn
	go run ./examples/randchord > /dev/null

# lint runs rcmlint, the in-repo analysis suite enforcing the
# determinism, loop-ownership, registry and import-boundary invariants
# (see internal/lint). Exit 0 means the module is clean.
lint:
	go run ./cmd/rcmlint ./...

# fuzz-smoke gives each fuzz target (wire codec; request table against
# its map oracle; closed-form forwarding against its scan oracle; the
# shared q-powers walk of internal/core against each geometry's own
# PhaseFailure) a short budget; the targets are build-tagged so they stay
# out of ordinary test runs.
fuzz-smoke:
	go test -tags fuzz -fuzz FuzzParseMessage -fuzztime 10s -run '^$$' ./node
	go test -tags fuzz -fuzz FuzzRequestTable -fuzztime 10s -run '^$$' ./node
	go test -tags fuzz -fuzz FuzzForwarderOracle -fuzztime 10s -run '^$$' ./internal/dht
	go test -tags fuzz -fuzz FuzzPhaseWalk -fuzztime 10s -run '^$$' ./internal/core

GO ?= go

.PHONY: build bench-module test race vet fmt-check lint-docs fuzz bench race-fault race-cpu flake clean

build:
	$(GO) build ./...

# benchmark/ is a Go module of its own (the driver's benchmark, see
# BENCHMARK.json), invisible to the root module's ./... patterns yet
# importing this module's internal packages: vet and smoke-test it so a
# deleted or renamed identifier it uses fails here, not at the driver.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fault-injection gate: every suite of the one placement machine —
# topology transitions, the epoch drain barrier, moves, replica adds
# and drops (worker kills mid-burst, mid-copy and mid-drain, interrupted
# drains), the rebalancer's hysteresis, the replicated fan-out
# differential — under the race detector, three times, because the
# failures they hunt are interleaving-dependent.
race-fault:
	$(GO) test ./internal/shard -race -count=3 -run 'Replica|Rebalancer|Migrate|Topology|EpochTracker'

# Streaming-pipeline gate: everything a live ingest's sub-muxes cut
# across — the stream hub (its batch fan-out, sub-mux placement,
# cancellation, detach and joins while batches are in flight), the
# root-level hub vs batch-scan differential, the shard workers' ingest
# and subscribe endpoints, which host hubs, and the slow-reader stall
# tests, whose write deadline detaches a client from a shared scan — at
# GOMAXPROCS 1 and 4, under the race detector. 1 pins the one inline
# sub-mux; 4 runs four sub-muxes on their own goroutines even on a
# smaller CI machine. The root pattern also takes the Executor's
# batching, dispatch and admission tests: its dispatch rule reads
# GOMAXPROCS, so 1 and 4 run it in both regimes.
race-cpu:
	$(GO) test -race -cpu 1,4 ./internal/stream
	$(GO) test -race -cpu 1,4 -run 'Parallel|Streaming|Admit|Admission|Batch|Dispatch|Budget|Charge' .
	$(GO) test -race -cpu 1,4 -run 'Stream|Ingest|Subscribe|Stall' ./internal/shard

# Flake audit: the shared-scan multiplexer and the stream hub twenty
# times under the race detector, then the root differential suites
# (automaton dispatch, hub vs batch scan, RunAll, routing) ten times.
# Their failures depend on goroutine interleaving and batch timing, so
# one green run proves little; about 2 minutes on 2 vCPUs.
flake:
	$(GO) test -race -count=20 ./internal/mux ./internal/stream
	$(GO) test -race -count=10 -run 'Automaton|Parallel|RunAll|Selective' .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Documentation gate: every exported identifier in the public (root)
# package, the sharded-tier package, and the hot-path packages (the
# sax batch/arena API, the mux fan-out API, and the merged path
# automaton) needs a doc comment, every Go package in the repository
# needs a package-level doc comment, and every relative link in the
# top-level markdown documents must resolve. go vet's comment checks
# run as part of `make vet`; doclint covers what vet does not.
lint-docs:
	$(GO) run ./cmd/doclint -pkg . -pkg ./internal/shard -pkg ./internal/sax -pkg ./internal/mux -pkg ./internal/stream -pkg ./internal/autom -pkgtree . -md README.md -md ARCHITECTURE.md

# Short-mode fuzz smoke: the native scanner targets (pull round trip,
# batched ≡ per-event delivery, chunked push mode), the XQuery⁻
# print → parse round trip, the automaton-dispatch equivalence target,
# the stream hub's sub-muxes against the batch scan, and generated
# queries against the scheduler (every one must prepare and match the
# naive oracle), each for a few seconds on top of their checked-in seeds.
fuzz:
	$(GO) test ./internal/sax -run='^FuzzScan$$' -fuzz='^FuzzScan$$' -fuzztime=10s
	$(GO) test ./internal/sax -run='^FuzzScanBatched$$' -fuzz='^FuzzScanBatched$$' -fuzztime=10s
	$(GO) test ./internal/sax -run='^FuzzScanChunked$$' -fuzz='^FuzzScanChunked$$' -fuzztime=10s
	$(GO) test ./internal/xq -run='^FuzzParsePrint$$' -fuzz='^FuzzParsePrint$$' -fuzztime=10s
	$(GO) test . -run='^FuzzAutomatonDispatch$$' -fuzz='^FuzzAutomatonDispatch$$' -fuzztime=10s
	$(GO) test . -run='^FuzzParallelDispatch$$' -fuzz='^FuzzParallelDispatch$$' -fuzztime=10s
	$(GO) test . -run='^FuzzSchedule$$' -fuzz='^FuzzSchedule$$' -fuzztime=10s

# Benchmark smoke: the paper's Figure 4 at 1 MB (five queries × flux,
# naive, projection, each cell the fastest of three runs), failing when
# a flux cell is slower than a baseline, then one pass over every Go
# benchmark (compile + correctness of the measurement loops). The sweep
# runs FIRST: the Go benchmark pass saturates the machine, and the
# flux-fastest gate compares wall times. Performance claims go through
# benchmark/ (BENCHMARK.json), and the exact workload invariants are
# TestWorkloadInvariants in tier-1. The checked-in BENCH_1.json ...
# BENCH_15.json are frozen history.
bench:
	$(GO) run ./cmd/fluxbench -sizes 1
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

clean:
	$(GO) clean ./...

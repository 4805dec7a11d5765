GO ?= go

BENCH_OUT ?= BENCH_9.json
# the hot-path serial benchmarks tracked in BENCH_*.json snapshots
BENCH_PAT ?= BenchmarkSProxySend$$|BenchmarkShmPool$$|BenchmarkEBPFInterpreter$$|BenchmarkJIT_vs_Interp/|BenchmarkE2E_SSpright|BenchmarkE2E_DSpright|BenchmarkE2E_CrossNode|BenchmarkE2E_GRPCBaseline|BenchmarkE2E_LargePayload$$|BenchmarkTraceUnsampled$$|BenchmarkTraceSampled$$|BenchmarkColdStartResume$$|BenchmarkColdStartPrewarmed$$|BenchmarkOverloadShed$$|BenchmarkObjStorePut10MB$$|BenchmarkObjStoreOpenRead10MB$$|BenchmarkObjStoreSpillReload1MB$$|BenchmarkFlightEmit/
# the multicore RPS harness, swept across BENCH_CPUS
BENCH_PAR_PAT ?= BenchmarkE2E_Parallel_
# benchmark knobs: time per benchmark, samples per serial benchmark
# (benchjson keeps the fastest — the noise floor on a shared host), and
# the GOMAXPROCS sweep for the parallel suite
BENCH_TIME ?= 1s
BENCH_COUNT ?= 3
BENCH_CPUS ?= 1,2,4,8
# regression gate inputs for bench-compare; BENCH_GAIN lists benchmarks
# that must have IMPROVED between the snapshots (empty: regressions only —
# the object-store PR must leave the pre-existing serial benches unchanged).
# BENCH_7R.json re-records the BENCH_7 code on the current host: its speed
# still oscillates in multi-minute windows (a first single-pass record
# flagged BenchmarkE2E_GRPCBaseline, untouched by the PR, among the
# "regressions"), so — as for BENCH_6R — both snapshots' serial suites
# were recorded in interleaved rounds (old tree / new tree alternating,
# best-of-3 via benchjson's min-dedupe) to keep the diff measuring the PR.
# BENCH_7.json stays PR 8's record. The observability PR adds only
# passive instrumentation (flight recorder hooks, SLO window snapshots on
# the metrics agent), so the pre-existing serial suite must be unchanged —
# but this host still drifts in multi-minute windows (a single-pass record
# flagged BenchmarkE2E_GRPCBaseline and BenchmarkE2E_CrossNode, untouched
# by the PR), so as for BENCH_6R/BENCH_7R both snapshots' serial suites
# were recorded in interleaved rounds (old tree / new tree alternating,
# best-of-3 via benchjson's min-dedupe): BENCH_8R.json re-records the
# BENCH_8 code, BENCH_8.json stays PR 9's record. Both trees' benchChain
# pins ScrapeInterval -1 for the recording: the serial E2E benches measure
# the dataplane, and this PR extends the metrics agent to polling-mode
# chains (SLO windowing), whose 500ms goroutine otherwise skews the
# spin-polling D-SPRIGHT loop at GOMAXPROCS=1.
OLD ?= BENCH_8R.json
NEW ?= BENCH_9.json
BENCH_GAIN ?=

.PHONY: build test race race-stress alloc-gate bench-check vet fmt-check verify bench bench-compare clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# -p 1 runs one package's race binary at a time: the control-plane scenarios
# (burst capacity, autoscaler evaluate) assert replica growth under a timed
# load window and get starved when other packages' race tests share the host.
race:
	$(GO) test -race -p 1 ./...

# race-stress repeats the tests of the dataplane's lock-free protocols —
# workers parked in a plain receive (stop flag, retire tokens), concurrency
# slots claimed by forwarding workers, in ModeEvent and ModePolling alike (the
# bound, the parked worker's wake, shutdown waiting for claimed slots, the
# routing cycle, backlog and fan-out), the bound itself as per-stripe
# sub-budgets against a model under claimers, a resizer and a shutdown at once
# (TestHandoffSlotBudgetModel), both instance queues — channel and ring — to
# one contract through their socket (TestHandoffQueueContract: order, the
# retire token, Close reclaiming every queued descriptor once, pushes and
# a worker racing it), D-SPRIGHT workers polling their own ring
# one at a time (TestHandoffPolling…: the flag given up before the first
# handler and the worker away for the whole chain, the length re-read after it,
# the producer's wake when nobody polls, a retire token refusing a claim, stop
# waking every parked worker, one spinner per live instance socket and none for
# the gateway), the reply into a closed gateway socket
# (TestHandoffReplyInto…), requests finished by whoever takes their pending
# entry (Gateway.Close, abandonment racing completion, the remote Deadline
# armed inside the table's lock), every gateway door through the one start
# (TestGatewayStart…), the copy-on-write routing/filter/topic/ring
# tables, a per-CPU array's copies under runs on their own stripes and on a
# shared one (TestPerCPUArray…), the pool's bulk get/put, the mesh peer's
# outbox (the flushed buffer reused; every frame Send accepts written or
# dropped once while Close races it: TestPeerSendRacingClose) and its receive
# framing — ten times under the race detector: one pass of `race` can miss
# the interleavings these protocols exist for.
race-stress:
	$(GO) test -race -count=10 -run 'TestHandoff|TestForwardTo|TestRemoteDeadlineFiresBeforeRegistration|TestGatewayStart|TestHashMapSnapshotSemantics|TestPerCPUArray|TestPoolTopicLifetime|TestPoolBulk|TestPeerReusesFlushedBuffer|TestPeerSendRacingClose|TestServeConnAdversarialStream' ./internal/core/ ./internal/ebpf/ ./internal/shm/ ./internal/transport/

# alloc-gate runs the count gates — the cross-node round trip's allocations,
# and the twelve-hop local chain that in both modes must also stay on one
# worker and in ModePolling wake no parked one — without the race detector,
# under which they skip their allocation counting (sync.Pool drops Puts at
# random there).
alloc-gate:
	$(GO) test -count=1 -run 'TestCrossNodeRoundTripAllocations|TestChainRunsOnOneWorkerAllocations' ./internal/orchestrator/

# bench-check vets and tests the repository benchmark, a nested module that
# `go build ./...` and `go test ./...` at the root never see, against the
# code it links from this tree.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# verify is the gate for every change: formatting, static analysis, the full
# test suite (chaos tests included) under the race detector, the repeated
# stress of the lock-free protocol tests, the allocation gate, and the
# benchmark module's own checks.
verify: fmt-check vet race race-stress alloc-gate bench-check

# bench runs the tracked serial benchmarks, then the parallel RPS harness
# across the BENCH_CPUS sweep, and writes one machine-readable snapshot
# (ns/op, B/op, allocs/op, derived RPS, p50/p99) to $(BENCH_OUT) via
# cmd/benchjson. Raw output stays in bench.out until the JSON is written.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) . | tee bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_PAR_PAT)' -benchmem -benchtime $(BENCH_TIME) -cpu $(BENCH_CPUS) . | tee -a bench.out
	$(GO) run ./cmd/benchjson < bench.out > $(BENCH_OUT)
	@rm -f bench.out
	@echo "wrote $(BENCH_OUT)"

# bench-compare diffs two snapshots: it fails on >10% ns/op regression in
# any tracked serial benchmark, and on any BENCH_GAIN benchmark that did
# not improve by its required fraction:
#   make bench-compare OLD=BENCH_5.json NEW=BENCH_6.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare -mingain '$(BENCH_GAIN)' $(OLD) $(NEW)

clean:
	$(GO) clean ./...
	rm -f bench.out

GO ?= go

.PHONY: build test race race-stress alloc-gate bench-check vet cross-vet fmt-check verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cross-vet type-checks the tree for two other platforms: the pool's slab is a
# mapping on unix and heap memory elsewhere (shm/slab_heap.go), and nothing
# else compiles the non-unix case.
cross-vet:
	GOOS=windows $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...

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
# the interleavings these protocols exist for. The pool's Close racing its
# getters (TestPoolMappingCloseRace: no get succeeds once the slab's mapping
# can be returned) rides along.
race-stress:
	$(GO) test -race -count=10 -run 'TestHandoff|TestForwardTo|TestRemoteDeadlineFiresBeforeRegistration|TestGatewayStart|TestHashMapSnapshotSemantics|TestPerCPUArray|TestPoolTopicLifetime|TestPoolBulk|TestPoolMappingCloseRace|TestPeerReusesFlushedBuffer|TestPeerSendRacingClose|TestServeConnAdversarialStream' ./internal/core/ ./internal/ebpf/ ./internal/shm/ ./internal/transport/

# alloc-gate runs the count gates — the cross-node round trip's allocations,
# the twelve-hop local chain that in both modes must also stay on one worker
# and in ModePolling wake no parked one, and a three-way fan-out in both modes —
# without the race detector, under which they skip their allocation counting
# (sync.Pool drops Puts at random there).
alloc-gate:
	$(GO) test -count=1 -run 'TestCrossNodeRoundTripAllocations|TestChainRunsOnOneWorkerAllocations|TestFanOutAllocations' ./internal/orchestrator/ ./internal/core/

# bench-check vets and tests the repository benchmark, a nested module that
# `go build ./...` and `go test ./...` at the root never see, against the
# code it links from this tree.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# verify is the gate for every change: formatting, static analysis (here and
# for windows and darwin), the full test suite (chaos tests included) under the
# race detector, the repeated stress of the lock-free protocol tests, the
# allocation gate, and the benchmark module's own checks.
verify: fmt-check vet cross-vet race race-stress alloc-gate bench-check

clean:
	$(GO) clean ./...

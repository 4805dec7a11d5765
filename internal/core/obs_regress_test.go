package core

// Regression tests for the observability-layer counter bugs: the
// ScrapeRate unsigned-wrap bug, the DeliverBatch partial-drop leak, the
// Socket.Close busy-wait, and the sampled tracer's zero-allocation
// guarantee on unsampled requests.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/shm"
)

// TestScrapeRateCounterRegression: the packet counter lives in an eBPF map
// that can be recreated or reset between scrapes. The old code computed
// the delta as uint64(pkts - lastPkts), which wraps to ~1.8e19 pps on any
// regression — an absurd rate that would instantly trip an autoscaler.
// A regression must clamp to zero.
func TestScrapeRateCounterRegression(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	ep := g.EProxy()
	if ep == nil {
		t.Fatal("event-mode gateway has no EPROXY")
	}
	for i := 0; i < 10; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if rate := ep.ScrapeRate(); rate <= 0 {
		t.Fatalf("scrape after traffic: rate %v, want > 0", rate)
	}
	// Simulate the counter regressing (map reset / EPROXY reload).
	if err := ep.l3map.Update(ebpf.U32Key(l3SlotPackets), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // dt > 0 for the rate computation
	if rate := ep.ScrapeRate(); rate != 0 {
		t.Fatalf("scrape across counter regression: rate %v, want 0 (uint64 wrap)", rate)
	}
	// The regressed value must become the new baseline: further traffic
	// yields a sane rate again.
	for i := 0; i < 5; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if rate := ep.ScrapeRate(); rate <= 0 || rate > 1e12 {
		t.Fatalf("scrape after recovery: rate %v, want sane positive value", rate)
	}
}

// TestDeliverBatchPartialDropNoLeak: a burst of events behind one slow
// worker in ModePolling. When a poller relayed the ring into the socket's
// queue, its bursts hit a full socket mid-batch, and the old transport treated
// the whole burst as sent — every refused descriptor leaked its shared-memory
// buffer. The instance's worker now polls the ring itself (SocketDepth no
// longer applies) and the backlog waits there; either way the pool must drain
// to zero.
func TestDeliverBatchPartialDropNoLeak(t *testing.T) {
	const events = 64
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:        "slow",
			Concurrency: 1,
			ServiceTime: 200 * time.Microsecond,
			Handler:     func(ctx *Ctx) error { ctx.Drop(); return nil },
		}},
		Routes:      []RouteSpec{{From: "", To: []string{"slow"}}},
		PoolBuffers: events,
		SocketDepth: 1, // every burst overflowed the queue the ring once fed
	}
	c, g := testChain(t, ModePolling, spec)
	for i := 0; i < events; i++ {
		if err := g.InvokeAsync("", []byte("e")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Pool().InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := c.Pool().InUse(); n != 0 {
		t.Fatalf("%d buffers still in use: partial batch drops leaked pool slabs", n)
	}
	if err := c.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSocketCloseWaitsForStalledSender: Close must block until in-flight
// Deliver calls drain, without pinning a core — the old unbounded
// Gosched loop burned 100% CPU for as long as a sender was descheduled.
// The behavioural contract testable here: Close still waits out a sender
// stalled far past the spin budget, and still closes promptly after.
func TestSocketCloseWaitsForStalledSender(t *testing.T) {
	s := NewSocket(1, 4)
	senders := &s.stripes[5].senders // not the first stripe Close looks at
	senders.Add(1)                   // simulate a Deliver descheduled mid-call
	released := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond) // well past the spin budget
		senders.Add(-1)
		close(released)
	}()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
		select {
		case <-released:
		default:
			t.Fatal("Close returned while a sender was still registered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the stalled sender drained")
	}
}

// TestSocketCloseConcurrentDeliver: closing under a storm of concurrent
// Deliver calls must never panic (send on closed channel) and must leave
// the socket cleanly closed. Run with -race.
func TestSocketCloseConcurrentDeliver(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := NewSocket(1, 2)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d := shm.Descriptor{Buf: 1}
				for s.Deliver(d) != ErrSocketClosed {
				}
			}()
		}
		// Drain so senders make progress, then close mid-storm.
		go func() {
			for range s.Recv() {
			}
		}()
		time.Sleep(100 * time.Microsecond)
		s.Close()
		wg.Wait()
		if err := s.Deliver(shm.Descriptor{}); err != ErrSocketClosed {
			t.Fatalf("deliver after close: %v, want ErrSocketClosed", err)
		}
	}
}

// TestSampledTracerZeroAllocUnsampled: the always-on tracer's contract is
// that an unsampled request costs zero heap allocations across
// BeginRequest/FinishRequest — otherwise it could not stay enabled in
// production.
func TestSampledTracerZeroAllocUnsampled(t *testing.T) {
	tr := NewSampledTracer(1<<30, 8) // effectively never samples
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		tc := tr.BeginRequest(7, shm.TraceContext{}, start)
		tr.FinishRequest(7, tc.Sampled(), nil, start, time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("unsampled begin/finish allocated %v per op, want 0", allocs)
	}
}

// TestSampledTracerSamples1InN verifies the sampling arithmetic and that
// sampled traces feed the hop histograms and the bounded ring.
func TestSampledTracerSamples1InN(t *testing.T) {
	tr := NewSampledTracer(4, 2)
	start := time.Now()
	for caller := uint32(1); caller <= 8; caller++ {
		tc := tr.BeginRequest(caller, shm.TraceContext{}, start)
		if tc.Sampled() {
			tr.RecordSpan(caller, Span{
				Parent: tc.Span, Stage: StageHandler, Function: "fn",
				Instance: 1, Start: start, End: start.Add(time.Millisecond),
			})
		}
		tr.FinishRequest(caller, tc.Sampled(), nil, start, time.Millisecond)
	}
	if got := tr.TotalSampled(); got != 2 {
		t.Fatalf("sampled %d of 8 at 1-in-4, want 2", got)
	}
	if got := len(tr.Retained()); got != 2 {
		t.Fatalf("retained %d traces, want 2", got)
	}
	hists := tr.HopDurations()
	h, ok := hists["fn"]
	if !ok || h.Count() != 2 {
		t.Fatalf("hop histogram: %+v, want 2 observations for fn", hists)
	}
}

// TestDefaultSampledTracerInstalled: chains come up with the always-on
// sampled tracer unless the spec opts out.
func TestDefaultSampledTracerInstalled(t *testing.T) {
	c, _ := testChain(t, ModeEvent, echoSpec())
	tr := c.Tracer()
	if tr == nil {
		t.Fatal("no default tracer installed")
	}
	if tr.SampleEvery() != defaultTraceSampleEvery {
		t.Fatalf("default sample period %d, want %d", tr.SampleEvery(), defaultTraceSampleEvery)
	}

	spec := echoSpec()
	spec.TraceSampleEvery = -1
	c2, _ := testChain(t, ModeEvent, spec)
	if c2.Tracer() != nil {
		t.Fatal("TraceSampleEvery < 0 must disable the default tracer")
	}
}

// TestMetricsAgentRefreshesScrapeRate: Stats() reads the chain's failure
// counters as they stand, and the per-chain metrics agent refreshes the
// packet-rate sample (ScrapeRate) on its own tick.
func TestMetricsAgentRefreshesScrapeRate(t *testing.T) {
	spec := echoSpec()
	spec.ScrapeInterval = 5 * time.Millisecond
	c, g := testChain(t, ModeEvent, spec)
	c.failures.crashes.Add(3)
	for i := 0; i < 20; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := g.Stats(); s.Crashes == 3 && s.ScrapeRate > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("agent never refreshed ScrapeRate: %+v", g.Stats())
}

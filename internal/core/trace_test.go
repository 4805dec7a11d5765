package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/shm"
)

// spansByStage indexes a trace's spans per stage name.
func spansByStage(t *Trace) map[string][]Span {
	out := make(map[string][]Span)
	for _, s := range t.Spans {
		out[s.Stage] = append(out[s.Stage], s)
	}
	return out
}

// handlerPath renders a trace's handler spans as "fn1->fn2->fn3" (branch
// order under fan-out follows completion order).
func handlerPath(t *Trace) string {
	var parts []string
	for _, s := range t.Spans {
		if s.Stage == StageHandler {
			parts = append(parts, s.Function)
		}
	}
	return strings.Join(parts, "->")
}

// tailRetained keeps the traces tail sampling retained.
func tailRetained(ts []*Trace) []*Trace {
	var out []*Trace
	for _, t := range ts {
		if t.Tail {
			out = append(out, t)
		}
	}
	return out
}

// assertParented checks that every non-root span's parent resolves to
// another span of the trace.
func assertParented(t *testing.T, tr *Trace) {
	t.Helper()
	ids := make(map[uint64]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		if s.ID == 0 {
			t.Fatalf("span with zero ID: %+v", s)
		}
		ids[s.ID] = true
	}
	for i, s := range tr.Spans {
		if i == 0 {
			continue // the root's parent is external (0 or upstream)
		}
		if s.Parent == 0 || !ids[s.Parent] {
			t.Fatalf("span %s/%s parent %016x not in trace", s.Stage, s.Function, s.Parent)
		}
	}
}

// traceAll replaces a chain's tracer with one that traces every request and
// retains up to limit traces.
func traceAll(c *Chain, limit int) *Tracer {
	tr := NewSampledTracer(1, limit)
	c.tracer.Store(tr)
	return tr
}

func TestTracingRecordsDFRPath(t *testing.T) {
	c, g := testChain(t, ModeEvent, seqSpec())
	tr := traceAll(c, 16)
	if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	done := tr.Retained()
	if len(done) != 1 {
		t.Fatalf("traces %d want 1", len(done))
	}
	if p := handlerPath(done[0]); p != "f1->f2->f3" {
		t.Fatalf("path %q", p)
	}
	if done[0].Elapsed() <= 0 {
		t.Fatal("elapsed must be positive")
	}
	if done[0].ID == (TraceID{}) {
		t.Fatal("trace must carry a non-zero trace ID")
	}
	for _, s := range spansByStage(done[0])[StageHandler] {
		if s.Instance == 0 || s.Function == "" {
			t.Fatalf("incomplete handler span %+v", s)
		}
	}
	assertParented(t, done[0])
	if h, ok := tr.StageDurations()[StageHandler]; !ok || h.Count() != 3 {
		t.Fatal("stage histogram for handler must hold the three handler spans")
	}
}

// TestTracingStageCoverage: a sampled request decomposes into the full
// stage set of the one-copy pipeline in both transport modes.
func TestTracingStageCoverage(t *testing.T) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			c, g := testChain(t, mode, seqSpec())
			tr := traceAll(c, 16)
			if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, tr)
			done := tr.Retained()
			if len(done) != 1 {
				t.Fatalf("traces %d want 1", len(done))
			}
			st := spansByStage(done[0])
			if len(st[StageRequest]) != 1 {
				t.Fatalf("want exactly one root request span, got %d", len(st[StageRequest]))
			}
			if len(st[StageShmAlloc]) != 1 {
				t.Fatalf("want one shm.alloc span, got %d", len(st[StageShmAlloc]))
			}
			// 3 handler hops, each preceded by a send (3 forwards + 1 reply).
			if len(st[StageHandler]) != 3 {
				t.Fatalf("handler spans %d want 3", len(st[StageHandler]))
			}
			// A send is a redirect unless it crossed a ring, which in
			// ModePolling the gateway's dispatch does and an uncontended
			// function hop or the reply does not. Waiting is queue.wait on a
			// socket queue, ring.wait in a ring — a polled instance has no
			// socket queue.
			redirects, enqueues := 4, 0
			if mode == ModePolling {
				redirects, enqueues = 3, 1
			}
			if len(st[StageRedirect]) != redirects || len(st[StageEnqueue]) != enqueues || len(st[StageRingWait]) != enqueues {
				t.Fatalf("%d %s, %d %s and %d %s spans; want %d, %d and %d", len(st[StageRedirect]), StageRedirect,
					len(st[StageEnqueue]), StageEnqueue, len(st[StageRingWait]), StageRingWait, redirects, enqueues, enqueues)
			}
			if (len(st[StageQueueWait]) == 0) != (mode == ModePolling) {
				t.Fatalf("%d %s spans in %v", len(st[StageQueueWait]), StageQueueWait, mode)
			}
			if len(st[StageDrain]) != 1 {
				t.Fatalf("want one gateway.drain span, got %d", len(st[StageDrain]))
			}
			assertParented(t, done[0])
			if tr.InFlight() != 0 {
				t.Fatalf("in-flight after completion: %d", tr.InFlight())
			}
		})
	}
}

func TestTracingDisable(t *testing.T) {
	c, g := testChain(t, ModeEvent, echoSpec())
	tr := traceAll(c, 4)
	g.Invoke(context.Background(), "", []byte("a"))
	c.tracer.Store(nil)
	g.Invoke(context.Background(), "", []byte("b"))
	if got := len(tr.Retained()); got != 1 {
		t.Fatalf("traces after disable: %d want 1", got)
	}
}

func TestTracingRetentionLimit(t *testing.T) {
	c, g := testChain(t, ModeEvent, echoSpec())
	tr := traceAll(c, 2)
	for i := 0; i < 5; i++ {
		g.Invoke(context.Background(), "", []byte("x"))
	}
	if got := len(tr.Retained()); got != 2 {
		t.Fatalf("retained %d traces, want limit 2", got)
	}
}

func TestTracerHopDurationCapturesServiceTime(t *testing.T) {
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:        "slow",
			ServiceTime: 20 * time.Millisecond,
			Handler:     func(ctx *Ctx) error { return nil },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"slow"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	tr := traceAll(c, 4)
	if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	done := tr.Retained()
	if len(done) != 1 {
		t.Fatalf("trace incomplete: %+v", done)
	}
	hops := spansByStage(done[0])[StageHandler]
	if len(hops) != 1 {
		t.Fatalf("handler spans %d want 1", len(hops))
	}
	if d := hops[0].Duration(); d < 15*time.Millisecond {
		t.Fatalf("handler span %v must include the 20ms service time", d)
	}
}

func TestTracerDirectAPI(t *testing.T) {
	tr := NewSampledTracer(1, 0) // default limit
	start := time.Now()
	tc := tr.BeginRequest(1, shm.TraceContext{}, start)
	if !tc.Sampled() {
		t.Fatal("full tracer must sample every request")
	}
	tr.RecordSpan(1, Span{Parent: tc.Span, Stage: StageHandler, Function: "a",
		Instance: 1, Start: start, End: start.Add(time.Millisecond)})
	if id := tr.RecordSpan(99, Span{Stage: StageHandler, Function: "ghost"}); id != 0 {
		t.Fatal("unknown caller must be a no-op")
	}
	if tr.FinishRequest(1, true, nil, start, 2*time.Millisecond) == nil {
		t.Fatal("finish of a sampled request must return the trace")
	}
	if tr.FinishRequest(1, true, nil, start, 2*time.Millisecond) != nil {
		t.Fatal("double finish must return nil")
	}
	done := tr.Retained()
	if len(done) != 1 || handlerPath(done[0]) != "a" {
		t.Fatalf("retained traces wrong: %+v", done)
	}
	if tr.InFlight() != 0 {
		t.Fatalf("in-flight %d want 0", tr.InFlight())
	}
}

// TestTracerCallerSlotReuse is the regression test for the begin-overwrite
// bug: re-beginning an abandoned caller slot must not double-increment the
// in-flight count, which would permanently force the mutex slow path.
func TestTracerCallerSlotReuse(t *testing.T) {
	tr := NewSampledTracer(1, 8)
	start := time.Now()
	// First request on caller 7 is abandoned (no finish) and its slot
	// reused by a later request with the same caller ID.
	tr.BeginRequest(7, shm.TraceContext{}, start)
	tr.BeginRequest(7, shm.TraceContext{}, start)
	if got := tr.InFlight(); got != 1 {
		t.Fatalf("in-flight after slot reuse: %d want 1", got)
	}
	tr.FinishRequest(7, true, nil, start, time.Millisecond)
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("in-flight must return to 0, got %d", got)
	}
}

// TestTracerAdoptsInboundContext: an inbound sampled context keeps its
// trace ID and parents the root span onto the upstream span.
func TestTracerAdoptsInboundContext(t *testing.T) {
	tr := NewSampledTracer(1<<30, 8) // head sampling effectively off
	start := time.Now()
	inbound := shm.TraceContext{TraceHi: 0xaaaa, TraceLo: 0xbbbb, Span: 0xcccc, Flags: shm.TraceSampled}
	tc := tr.BeginRequest(3, inbound, start)
	if !tc.Sampled() {
		t.Fatal("inbound sampled context must be adopted")
	}
	if tc.TraceHi != 0xaaaa || tc.TraceLo != 0xbbbb {
		t.Fatalf("trace ID not adopted: %+v", tc)
	}
	traced := tr.FinishRequest(3, true, nil, start, time.Millisecond)
	if traced == nil || traced.ID != (TraceID{Hi: 0xaaaa, Lo: 0xbbbb}) {
		t.Fatalf("adopted trace wrong: %+v", traced)
	}
	if traced.Spans[0].Parent != 0xcccc {
		t.Fatalf("root span parent %016x want 000000000000cccc", traced.Spans[0].Parent)
	}
}

// TestTailSamplingRetainsErrors: an unsampled request that fails is
// retained by the tail sampler with a skeleton trace.
func TestTailSamplingRetainsErrors(t *testing.T) {
	tr := NewSampledTracer(1<<30, 8)
	start := time.Now()
	tc := tr.BeginRequest(1, shm.TraceContext{}, start)
	if tc.Sampled() {
		t.Fatal("request must not be head-sampled at period 1<<30")
	}
	boom := errors.New("boom")
	got := tr.FinishRequest(1, false, boom, start, time.Millisecond)
	if got == nil || !got.Tail || got.Err != "boom" {
		t.Fatalf("errored request must be tail-retained: %+v", got)
	}
	tail := tailRetained(tr.Retained())
	if len(tail) != 1 || tail[0].ID == (TraceID{}) {
		t.Fatalf("tail ring: %+v", tail)
	}
	if tr.TotalTailRetained() != 1 {
		t.Fatalf("tail total %d want 1", tr.TotalTailRetained())
	}
}

// TestTailSamplingRetainsSlowRequests: over-threshold latency retains the
// trace; under-threshold does not.
func TestTailSamplingRetainsSlowRequests(t *testing.T) {
	tr := NewSampledTracer(1<<30, 8)
	tr.SetTailSampling(10*time.Millisecond, 4)
	start := time.Now()
	tr.BeginRequest(1, shm.TraceContext{}, start)
	if tr.FinishRequest(1, false, nil, start, time.Millisecond) != nil {
		t.Fatal("fast success must not be retained")
	}
	tr.BeginRequest(2, shm.TraceContext{}, start)
	slow := tr.FinishRequest(2, false, nil, start, 50*time.Millisecond)
	if slow == nil || !slow.Tail {
		t.Fatalf("slow request must be tail-retained: %+v", slow)
	}
	// A sampled slow request is marked Tail and appears in both rings,
	// deduplicated by Retained.
	tc := tr.BeginRequest(3, shm.TraceContext{TraceHi: 1, TraceLo: 2, Span: 3, Flags: shm.TraceSampled}, start)
	tr.FinishRequest(3, tc.Sampled(), nil, start, 50*time.Millisecond)
	all := tr.Retained()
	if len(all) != 2 {
		t.Fatalf("retained %d want 2 (dedup across rings)", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatal("Retained must be ordered by Seq")
		}
	}
}

// TestTailSamplingBounded: the tail ring never exceeds its limit.
func TestTailSamplingBounded(t *testing.T) {
	tr := NewSampledTracer(1<<30, 8)
	tr.SetTailSampling(-1, 2) // errors only, tiny ring
	start := time.Now()
	for caller := uint32(1); caller <= 6; caller++ {
		tr.BeginRequest(caller, shm.TraceContext{}, start)
		tr.FinishRequest(caller, false, errors.New("x"), start, time.Microsecond)
	}
	if got := len(tailRetained(tr.Retained())); got != 2 {
		t.Fatalf("tail ring %d want limit 2", got)
	}
	if tr.TotalTailRetained() != 6 {
		t.Fatalf("tail total %d want 6", tr.TotalTailRetained())
	}
	// Latency retention disabled: a slow success is not retained.
	tr.BeginRequest(9, shm.TraceContext{}, start)
	if tr.FinishRequest(9, false, nil, start, time.Hour) != nil {
		t.Fatal("negative threshold must disable latency retention")
	}
}

// TestTracerExemplars: the slowest retained traces surface as exemplars.
func TestTracerExemplars(t *testing.T) {
	tr := NewSampledTracer(1, 8)
	start := time.Now()
	for caller := uint32(1); caller <= 3; caller++ {
		tr.BeginRequest(caller, shm.TraceContext{}, start)
		tr.FinishRequest(caller, true, nil, start, time.Duration(caller)*time.Millisecond)
	}
	exs := tr.Exemplars(2)
	if len(exs) != 2 {
		t.Fatalf("exemplars %d want 2", len(exs))
	}
	if exs[0].Seconds < exs[1].Seconds {
		t.Fatal("exemplars must be slowest-first")
	}
	if exs[0].TraceID == "" || len(exs[0].TraceID) != 32 {
		t.Fatalf("exemplar trace ID %q", exs[0].TraceID)
	}
}

func TestTraceparentParse(t *testing.T) {
	tc := shm.TraceContext{TraceHi: 0x0102030405060708, TraceLo: 0x090a0b0c0d0e0f10,
		Span: 0x1112131415161718, Flags: shm.TraceSampled}
	const s = "00-0102030405060708090a0b0c0d0e0f10-1112131415161718-01"
	got, ok := shm.ParseTraceparent(s)
	if !ok || got != tc {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	for _, bad := range []string{
		"", "00-zz", s[:54], "01" + s[2:], // short / wrong version
		"00-00000000000000000000000000000000-1112131415161718-01", // zero trace ID
		"00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01", // zero span
	} {
		if _, ok := shm.ParseTraceparent(bad); ok {
			t.Fatalf("accepted malformed traceparent %q", bad)
		}
	}
}

// waitIdle waits for in-flight traces to drain (asynchronous stage spans —
// the drain span races the waiter's return).
func waitIdle(t *testing.T, tr *Tracer) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for tr.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tracer still has %d in-flight traces", tr.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracerRetainedRacingFinish: readers of the one retained-trace read
// (Retained, and Exemplars over it) race writers finishing requests, spans
// landing after completion, and both rings evicting. Every read is ordered
// by Seq with no duplicate, and the spans it returns are the reader's own.
func TestTracerRetainedRacingFinish(t *testing.T) {
	tr := NewSampledTracer(2, 8)
	tr.SetTailSampling(-1, 4) // errors only, a small ring that keeps evicting
	const writers, readers, perWriter = 4, 2, 2000
	var wg, rwg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			boom := errors.New("boom")
			for i := 0; i < perWriter; i++ {
				caller := uint32(w*perWriter + i + 1)
				start := time.Now()
				tc := tr.BeginRequest(caller, shm.TraceContext{}, start)
				span := Span{Parent: tc.Span, Stage: StageHandler, Function: "fn",
					Instance: 1, Start: start, End: start.Add(time.Microsecond)}
				if tc.Sampled() {
					tr.RecordSpan(caller, span)
				}
				var err error
				if i%3 == 0 {
					err = boom
				}
				tr.FinishRequest(caller, tc.Sampled(), err, start, time.Microsecond)
				tr.RecordSpan(caller, span) // late: after completion
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ts := tr.Retained()
				for i, x := range ts {
					if i > 0 && x.Seq <= ts[i-1].Seq {
						t.Errorf("Seq %d after %d: duplicate or out of order", x.Seq, ts[i-1].Seq)
						return
					}
					for j := range x.Spans {
						if x.Spans[j].Function == "mine" {
							t.Errorf("trace %d: a span written by a reader came back", x.Seq)
							return
						}
						x.Spans[j].Function = "mine"
					}
				}
				tr.Exemplars(4)
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("in-flight %d after every request finished", got)
	}
}

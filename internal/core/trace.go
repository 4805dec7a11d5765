package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/shm"
)

// Distributed tracing through the zero-copy path. Each sampled request
// carries a shm.TraceContext in its buffer's trace header (128-bit trace
// ID, parent span, flags), so identity propagates across every SPROXY/DFR
// hop, every fan-out branch, and — via Ctx.TraceContext /
// WithTraceContext — across chain boundaries at the gateway, without
// widening the 16-byte descriptor. Stages record spans: gateway admission
// (the root), shm alloc, the SPROXY redirect or ring enqueue, ring and
// socket queue wait, the function handler, and the response drain — the
// decomposition that answers "where did the microseconds go" in §3.1's
// one-copy pipeline.
//
// Sampling is two-level:
//
//   - head: 1-in-N requests record full span trees
//     (ChainSpec.TraceSampleEvery); an inbound sampled context is always
//     adopted so cross-chain traces stay whole.
//   - tail: error traces and traces slower than the tail-latency threshold
//     are always retained in a separate bounded ring, never evicted by
//     head traffic. An unsampled request that fails or runs slow gets a
//     skeleton trace (root span only) allocated at completion — the
//     unsampled fast path itself never allocates and never reads the
//     clock.

// Stage names of the spans a traced request records.
const (
	// StageRequest is the root span: gateway admission + protocol
	// processing, covering the whole synchronous invocation.
	StageRequest = "request"
	// StageShmAlloc covers pool Get plus the single payload copy in.
	StageShmAlloc = "shm.alloc"
	// StageRedirect is one hop handed straight to who runs it: S-SPRIGHT's
	// SPROXY sockmap redirect and, in D-SPRIGHT, a hop the sender claimed or
	// the reply delivered into the gateway's sink — no ring was crossed.
	StageRedirect = "sproxy.redirect"
	// StageEnqueue is one D-SPRIGHT hop's rte_ring insert.
	StageEnqueue = "ring.enqueue"
	// StageRingWait is D-SPRIGHT ring residency: enqueue → the polling
	// worker's dequeue.
	StageRingWait = "ring.wait"
	// StageQueueWait is socket-queue residency (S-SPRIGHT): enqueue → worker
	// pickup.
	StageQueueWait = "queue.wait"
	// StageHandler is the user function execution (service time included).
	StageHandler = "handler"
	// StageDrain is the response copy out of shared memory at the gateway.
	StageDrain = "gateway.drain"
	// StageXNodeForward is one cross-node hop: the stub handler's wire
	// forward to the peer node's gateway. Its children on the remote
	// tracer parent under the same trace ID (the context rides the frame).
	StageXNodeForward = "xnode.forward"
)

// TraceID is a 128-bit trace identity.
type TraceID struct{ Hi, Lo uint64 }

// String renders the ID as 32 hex digits (the OTLP/W3C wire form).
func (id TraceID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// Span is one completed stage of a traced request.
type Span struct {
	ID       uint64
	Parent   uint64 // 0 only for the root span
	Stage    string // one of the Stage* constants
	Function string // function involved ("gateway" for gateway stages)
	Instance uint32
	Start    time.Time
	End      time.Time
	Err      string // non-empty when the stage failed
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is the recorded span tree of one request.
type Trace struct {
	ID     TraceID
	Caller uint32
	// Seq is the monotone retention sequence number — the cursor exporters
	// use to drain only traces they have not yet shipped.
	Seq   uint64
	Spans []Span // Spans[0] is the root request span
	Start time.Time
	End   time.Time
	Err   string
	// Tail marks a trace retained by tail sampling (error or
	// over-threshold latency) — kept regardless of head-sampling.
	Tail bool
}

// Elapsed is the chain-level execution time (gateway in to gateway out).
func (t *Trace) Elapsed() time.Duration {
	if t.End.IsZero() {
		return 0
	}
	return t.End.Sub(t.Start)
}

// splitmix64 is the finalizer of the splitmix64 PRNG: a bijection on
// uint64, so distinct counter values yield distinct IDs without a lock.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Defaults for the tail sampler.
const (
	defaultTraceTailLatency = 250 * time.Millisecond
)

// Tracer collects distributed traces for a chain.
type Tracer struct {
	every   uint64        // head-sample 1 in every requests (1 = trace all)
	tailLat time.Duration // tail-retain traces slower than this (<=0: off)
	seq     atomic.Uint64 // request counter driving the sampling decision
	idSeq   atomic.Uint64 // counter behind splitmix64 trace/span IDs

	// nactive counts sampled traces in flight; it must return to zero when
	// the chain drains (the regression guard for caller-slot reuse).
	nactive atomic.Int64

	mu        sync.Mutex
	limit     int
	tailLimit int
	active    map[uint32]*Trace
	// late keeps finished traces addressable by caller while they remain
	// in the done ring: a stage span recorded concurrently with request
	// completion (a reply redirect returning after the waiter woke) still
	// attaches instead of being dropped. Entries die with ring eviction.
	late      map[uint32]*Trace
	done      []*Trace                      // ring of recent head-sampled completed traces
	next      int                           // head ring cursor
	tail      []*Trace                      // ring of tail-retained traces (errors / slow)
	tailNext  int                           // tail ring cursor
	total     uint64                        // head-sampled completions ever
	tailTotal uint64                        // tail retentions ever
	retainSeq uint64                        // monotone Seq source for retained traces
	hopHist   map[string]*metrics.Histogram // per-function handler durations
	stageHist map[string]*metrics.Histogram // per-stage durations
}

// NewSampledTracer creates a tracer recording one in every `every`
// requests (every <= 1 records all), retaining up to limit recent traces.
// Tail sampling starts at the default latency threshold with a tail buffer
// of the same size; SetTailSampling overrides both.
func NewSampledTracer(every, limit int) *Tracer {
	if limit <= 0 {
		limit = 256
	}
	if every < 1 {
		every = 1
	}
	tr := &Tracer{
		every:     uint64(every),
		tailLat:   defaultTraceTailLatency,
		limit:     limit,
		tailLimit: limit,
		active:    make(map[uint32]*Trace),
		late:      make(map[uint32]*Trace),
		hopHist:   make(map[string]*metrics.Histogram),
		stageHist: make(map[string]*metrics.Histogram),
	}
	tr.idSeq.Store(uint64(time.Now().UnixNano()))
	return tr
}

// SetTailSampling configures tail retention: traces slower than threshold
// (or completing with an error — always) are kept in a bounded buffer of
// tailLimit traces regardless of head sampling. threshold 0 keeps the
// default, negative disables latency-based retention (errors are still
// retained); tailLimit <= 0 keeps the current limit. Configure before
// traffic starts.
func (tr *Tracer) SetTailSampling(threshold time.Duration, tailLimit int) {
	if threshold != 0 {
		tr.tailLat = threshold
	}
	if tailLimit > 0 {
		tr.tailLimit = tailLimit
	}
}

// SampleEvery returns the head-sampling period (1 = every request).
func (tr *Tracer) SampleEvery() int { return int(tr.every) }

// InFlight returns the number of sampled traces currently active; it must
// be zero when the chain is idle.
func (tr *Tracer) InFlight() int64 { return tr.nactive.Load() }

// nextID draws a non-zero trace/span ID.
func (tr *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(tr.idSeq.Add(1)); id != 0 {
			return id
		}
	}
}

// NextSpanID pre-assigns a span ID (the handler installs its span's ID in
// the buffer header before running, so downstream hops parent onto it).
func (tr *Tracer) NextSpanID() uint64 { return tr.nextID() }

// BeginRequest makes the head-sampling decision for one request and, when
// sampled, opens its trace with the root request span. An inbound sampled
// context (cross-chain propagation, or a W3C traceparent parsed by the
// gateway) is always adopted: the trace keeps the upstream ID and the root
// span parents onto the upstream span. The returned context carries the
// identity the caller must install in the buffer header; its zero value
// means "unsampled" and the request pays nothing further.
func (tr *Tracer) BeginRequest(caller uint32, inbound shm.TraceContext, start time.Time) shm.TraceContext {
	var id TraceID
	var parent uint64
	switch {
	case inbound.Sampled():
		id = TraceID{Hi: inbound.TraceHi, Lo: inbound.TraceLo}
		parent = inbound.Span
	case tr.every <= 1 || tr.seq.Add(1)%tr.every == 0:
		id = TraceID{Hi: tr.nextID(), Lo: tr.nextID()}
	default:
		return shm.TraceContext{} // unsampled: no allocation, no lock
	}
	t := &Trace{ID: id, Caller: caller, Start: start}
	root := Span{ID: tr.nextID(), Parent: parent, Stage: StageRequest, Function: "gateway", Start: start}
	t.Spans = append(t.Spans, root)
	tr.mu.Lock()
	// Caller-slot reuse (an abandoned request whose caller ID came around
	// again) replaces the stale in-flight trace; it must not count twice —
	// a double increment here would never be balanced and would pin
	// nactive above zero forever.
	if tr.active[caller] == nil {
		tr.nactive.Add(1)
	}
	tr.active[caller] = t
	tr.mu.Unlock()
	return shm.TraceContext{TraceHi: id.Hi, TraceLo: id.Lo, Span: root.ID, Flags: shm.TraceSampled}
}

// RecordSpan appends one completed stage span to caller's active trace and
// feeds the stage-duration histograms (handler spans additionally feed the
// per-function hop histogram). A zero s.ID is assigned; the span's ID is
// returned, 0 when no trace is active for caller (the span is dropped —
// e.g. a stage outliving an abandoned request).
func (tr *Tracer) RecordSpan(caller uint32, s Span) uint64 {
	tr.mu.Lock()
	t := tr.active[caller]
	if t == nil {
		t = tr.late[caller] // span landing after completion, trace retained
	}
	if t == nil {
		tr.mu.Unlock()
		return 0
	}
	if s.ID == 0 {
		s.ID = tr.nextID()
	}
	t.Spans = append(t.Spans, s)
	tr.observeLocked(s)
	tr.mu.Unlock()
	return s.ID
}

// observeLocked feeds a span into the duration histograms. Callers hold mu.
func (tr *Tracer) observeLocked(s Span) {
	h, ok := tr.stageHist[s.Stage]
	if !ok {
		h = metrics.NewHistogram()
		tr.stageHist[s.Stage] = h
	}
	h.Observe(s.Duration().Seconds())
	if s.Stage == StageHandler {
		fh, ok := tr.hopHist[s.Function]
		if !ok {
			fh = metrics.NewHistogram()
			tr.hopHist[s.Function] = fh
		}
		fh.Observe(s.Duration().Seconds())
	}
}

// FinishRequest completes caller's request. sampled is the caller's record
// of whether BeginRequest sampled it (the returned context's Sampled bit):
// unsampled requests take only the tail check — no atomics, no allocation,
// no clock read unless the request erred or ran past the tail threshold,
// in which case a skeleton trace (root span only, fresh ID) is built and
// tail-retained so failures stay observable at any head-sampling period.
func (tr *Tracer) FinishRequest(caller uint32, sampled bool, reqErr error, start time.Time, elapsed time.Duration) *Trace {
	if !sampled {
		if reqErr == nil && (tr.tailLat <= 0 || elapsed < tr.tailLat) {
			return nil // the unsampled fast path
		}
		t := &Trace{
			ID:     TraceID{Hi: tr.nextID(), Lo: tr.nextID()},
			Caller: caller,
			Start:  start,
			End:    start.Add(elapsed),
			Tail:   true,
		}
		if reqErr != nil {
			t.Err = reqErr.Error()
		}
		t.Spans = append(t.Spans, Span{
			ID: tr.nextID(), Stage: StageRequest, Function: "gateway",
			Start: start, End: t.End, Err: t.Err,
		})
		tr.mu.Lock()
		tr.retainTailLocked(t)
		tr.mu.Unlock()
		return t
	}
	end := start.Add(elapsed)
	tr.mu.Lock()
	t := tr.active[caller]
	if t == nil {
		tr.mu.Unlock()
		return nil
	}
	delete(tr.active, caller)
	tr.nactive.Add(-1)
	t.End = end
	if reqErr != nil {
		t.Err = reqErr.Error()
	}
	t.Spans[0].End = end
	t.Spans[0].Err = t.Err
	t.Tail = reqErr != nil || (tr.tailLat > 0 && elapsed >= tr.tailLat)
	t.Seq = tr.nextRetainSeqLocked()
	if len(tr.done) < tr.limit {
		tr.done = append(tr.done, t)
	} else {
		if old := tr.done[tr.next]; tr.late[old.Caller] == old {
			delete(tr.late, old.Caller)
		}
		tr.done[tr.next] = t
		tr.next = (tr.next + 1) % tr.limit
	}
	tr.late[caller] = t
	tr.total++
	if t.Tail {
		tr.retainTailLocked(t)
	}
	tr.mu.Unlock()
	return t
}

// nextRetainSeqLocked assigns the next retention sequence number. Callers
// hold mu.
func (tr *Tracer) nextRetainSeqLocked() uint64 {
	tr.retainSeq++
	return tr.retainSeq
}

// retainTailLocked places t in the tail ring (errors and slow traces;
// never evicted by head-sampled traffic). Callers hold mu.
func (tr *Tracer) retainTailLocked(t *Trace) {
	if t.Seq == 0 {
		t.Seq = tr.nextRetainSeqLocked()
	}
	if len(tr.tail) < tr.tailLimit {
		tr.tail = append(tr.tail, t)
	} else {
		tr.tail[tr.tailNext] = t
		tr.tailNext = (tr.tailNext + 1) % tr.tailLimit
	}
	tr.tailTotal++
}

// cloneTraceLocked deep-copies one trace so readers never race a late
// span append. Callers hold mu.
func cloneTraceLocked(t *Trace) *Trace {
	cp := *t
	cp.Spans = append([]Span(nil), t.Spans...)
	return &cp
}

// Retained returns every retained trace — head-sampled and tail-retained —
// deduplicated (a slow sampled trace lives in both rings) and ordered by
// retention sequence. Each is a copy: its Spans never alias the tracer's.
func (tr *Tracer) Retained() []*Trace {
	tr.mu.Lock()
	seen := make(map[uint64]*Trace, len(tr.done)+len(tr.tail))
	for _, t := range tr.done {
		seen[t.Seq] = cloneTraceLocked(t)
	}
	for _, t := range tr.tail {
		if seen[t.Seq] == nil {
			seen[t.Seq] = cloneTraceLocked(t)
		}
	}
	tr.mu.Unlock()
	out := make([]*Trace, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TotalSampled returns how many head-sampled traces have completed since
// the tracer started (not bounded by the retention limit).
func (tr *Tracer) TotalSampled() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// TotalTailRetained returns how many traces tail sampling has retained.
func (tr *Tracer) TotalTailRetained() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.tailTotal
}

// HopDurations returns a merged copy of the per-function sampled handler
// duration histograms — the per-hop latency signal the exporter renders.
func (tr *Tracer) HopDurations() map[string]*metrics.Histogram {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return copyHists(tr.hopHist)
}

// StageDurations returns a merged copy of the per-stage duration
// histograms (queue wait, redirect, handler, drain, …) — the §3.1 pipeline
// decomposition as summaries.
func (tr *Tracer) StageDurations() map[string]*metrics.Histogram {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return copyHists(tr.stageHist)
}

func copyHists(in map[string]*metrics.Histogram) map[string]*metrics.Histogram {
	out := make(map[string]*metrics.Histogram, len(in))
	for k, h := range in {
		cp := metrics.NewHistogram()
		cp.Merge(h)
		out[k] = cp
	}
	return out
}

// Exemplar links a latency observation to a concrete retained trace, so a
// p99 spike in the latency summary resolves to a span tree.
type Exemplar struct {
	TraceID string
	Seconds float64
}

// Exemplars returns up to max retained traces with the highest end-to-end
// latency, slowest first.
func (tr *Tracer) Exemplars(max int) []Exemplar {
	if max <= 0 {
		return nil
	}
	ts := tr.Retained()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Elapsed() > ts[j].Elapsed() })
	if len(ts) > max {
		ts = ts[:max]
	}
	out := make([]Exemplar, 0, len(ts))
	for _, t := range ts {
		out = append(out, Exemplar{TraceID: t.ID.String(), Seconds: t.Elapsed().Seconds()})
	}
	return out
}

// traceCtxKey keys the trace context in a context.Context.
type traceCtxKey struct{}

// WithTraceContext attaches an upstream trace context to ctx. A handler
// calling into another chain's gateway passes its Ctx.TraceContext here so
// the downstream chain joins the same trace (child spans parent onto the
// calling handler's span).
func WithTraceContext(ctx context.Context, tc shm.TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom extracts the trace context attached by WithTraceContext
// (zero value when absent).
func TraceContextFrom(ctx context.Context) shm.TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(shm.TraceContext)
	return tc
}

package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
)

// Gateway is the chain's SPRIGHT gateway (§3.1): the reverse proxy that
// consolidates protocol processing, copies each admitted payload into the
// chain's shared-memory pool exactly once, invokes the head function, and
// constructs the external response when the descriptor returns.
type Gateway struct {
	chain *Chain
	sock  *Socket
	eprox *EProxy

	pending pendTable
	nextID  atomic.Uint32

	adapters *AdapterRegistry

	admitted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64

	// Deliberate-shed counters, one per Shed* reason (overload-graceful
	// admission: every refused request is attributable, never blackholed).
	admission           AdmissionPolicy
	shedOverload        atomic.Uint64
	shedParkFull        atomic.Uint64
	shedParkTimeout     atomic.Uint64
	shedPoolExhausted   atomic.Uint64
	shedPayloadTooLarge atomic.Uint64

	// parks is the bounded scale-from-zero park queue; coldStart records
	// park-to-dispatch latency (the cold-start cost the prewarm pool is
	// there to shrink).
	parks       parkTable
	parkedTotal atomic.Uint64
	resumed     atomic.Uint64
	coldStart   *metrics.StripedHistogram

	// parkCb notifies the control plane that a request parked for fn and
	// capacity must be resumed (the autoscaler's kick).
	parkCbMu sync.RWMutex
	parkCb   func(fn string)

	lat *metrics.StripedHistogram

	// lastRate is the most recent ScrapeRate (float64 bits), maintained by
	// the metrics-agent goroutine so readers never contend on the EPROXY
	// scrape lock.
	lastRate atomic.Uint64

	bufPool    sync.Pool // *gwBuf response payload staging
	waiterPool sync.Pool // chan gwResult, capacity 1

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once

	// agentTick rides the metrics-agent cadence: the SLO watchdog hangs its
	// evaluation off the same per-chain goroutine instead of adding one.
	// (Kept at the struct tail so the hot fields above keep their layout.)
	agentTickMu sync.RWMutex
	agentTick   func()
}

// gwBuf is a pooled response-payload staging buffer. Pooling pointers (not
// bare []byte) keeps sync.Pool from boxing the slice header on every Put.
type gwBuf struct{ b []byte }

type gwResult struct {
	gb  *gwBuf // response bytes (nil when err is set)
	n   int    // valid length within gb.b
	err error
}

// Gateway errors.
var (
	ErrGatewayClosed = errors.New("core: gateway closed")
	ErrNoWaiter      = errors.New("core: response for unknown caller")
	ErrShortBuffer   = errors.New("core: response buffer too small")
)

// pendShardCount shards the pending-request table. Every request touches
// the table twice (register at invoke, claim at completion), from different
// goroutines; a single mutex there is the gateway's first scalability wall
// under parallel load. Caller IDs are sequential, so consecutive requests
// hash to distinct shards and contention drops by ~the shard count.
const pendShardCount = 64

type pendShard struct {
	mu sync.Mutex
	m  map[uint32]chan gwResult
	_  [6]uint64 // pad: neighbouring shard locks must not share a cache line
}

// pendTable is the sharded caller→waiter map. count mirrors the table size
// so the admission path reads the inflight gauge in one atomic load instead
// of sweeping 64 shard locks per request.
type pendTable struct {
	shards [pendShardCount]pendShard
	count  atomic.Int64
}

func (t *pendTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[uint32]chan gwResult)
	}
}

func (t *pendTable) shard(caller uint32) *pendShard {
	return &t.shards[caller&(pendShardCount-1)]
}

func (t *pendTable) put(caller uint32, ch chan gwResult) {
	s := t.shard(caller)
	s.mu.Lock()
	s.m[caller] = ch
	s.mu.Unlock()
	t.count.Add(1)
}

// size counts registered waiters across all shards (tests, introspection).
func (t *pendTable) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// take removes and returns the waiter registered for caller; exactly one of
// the racing claimants (completion, failure, abandonment) wins it.
func (t *pendTable) take(caller uint32) (chan gwResult, bool) {
	s := t.shard(caller)
	s.mu.Lock()
	ch, ok := s.m[caller]
	if ok {
		delete(s.m, caller)
	}
	s.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
	return ch, ok
}

// takeAll removes and returns every registered waiter (Gateway.Close). Each
// entry leaves its shard under the shard lock, exactly as in take, so a
// completion or failure racing the sweep still has exactly one winner.
func (t *pendTable) takeAll() []chan gwResult {
	var out []chan gwResult
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for caller, ch := range s.m {
			delete(s.m, caller)
			out = append(out, ch)
		}
		s.mu.Unlock()
	}
	t.count.Add(-int64(len(out)))
	return out
}

func (g *Gateway) getBuf(n int) *gwBuf {
	gb, _ := g.bufPool.Get().(*gwBuf)
	if gb == nil {
		gb = &gwBuf{}
	}
	if cap(gb.b) < n {
		gb.b = make([]byte, n)
	}
	return gb
}

func (g *Gateway) putBuf(gb *gwBuf) {
	if gb != nil {
		g.bufPool.Put(gb)
	}
}

func (g *Gateway) getWaiter() chan gwResult {
	ch, _ := g.waiterPool.Get().(chan gwResult)
	if ch == nil {
		ch = make(chan gwResult, 1)
	}
	return ch
}

// NewGateway creates and starts the gateway for a chain, registering its
// socket (instance ID 0) with the chain's transport and attaching the
// EPROXY monitor programs.
func NewGateway(c *Chain) (*Gateway, error) {
	g := &Gateway{
		chain:     c,
		sock:      NewSocket(GatewayID, c.pool.Capacity()),
		adapters:  NewAdapterRegistry(),
		lat:       metrics.NewStripedHistogram(),
		coldStart: metrics.NewStripedHistogram(),
		admission: c.admission,
		stop:      make(chan struct{}),
	}
	if g.admission.ParkCapacity > 0 && g.admission.ParkTimeout <= 0 {
		g.admission.ParkTimeout = defaultParkTimeout
	}
	if g.admission.RetryAfter <= 0 {
		g.admission.RetryAfter = defaultRetryAfter
	}
	g.parks.init(g.admission.ParkCapacity)
	g.pending.init()
	if err := c.transport.Register(g.sock); err != nil {
		return nil, err
	}
	if c.sproxy != nil {
		ep, err := NewEProxy(c.sproxy.kernel, c.name)
		if err != nil {
			return nil, err
		}
		g.eprox = ep
	}
	// Terminal dataplane failures (panics, exhausted retries, dead
	// instances) complete the waiting caller with an error instead of
	// letting it block until its deadline.
	c.setFailureNotifier(g.fail)
	// New routable capacity (scale-up, restart, prewarm activation) wakes
	// requests parked on a zero-replica function.
	c.setScaleNotifier(g.wakeParked)
	// One completion consumer per P: response descriptors from different
	// requests complete independently (the pending table is sharded), so a
	// single consumer goroutine would serialize the whole response path
	// under parallel load.
	consumers := runtime.GOMAXPROCS(0)
	g.wg.Add(consumers)
	for i := 0; i < consumers; i++ {
		go g.run()
	}
	// The metrics agent (§3.3): a per-chain goroutine that periodically
	// publishes failure counters into the EPROXY map, refreshes the
	// packet-rate sample the metrics server scrapes for autoscaling, and
	// fires the agent-tick hook (SLO watchdog). Polling-mode chains have no
	// EPROXY but still run the agent for the hook.
	if c.scrapeEvery > 0 {
		g.wg.Add(1)
		go g.metricsAgent(c.scrapeEvery)
	}
	return g, nil
}

// metricsAgent drives EProxy.PublishFailures and ScrapeRate on a ticker
// until the gateway closes, then fires the agent-tick hook.
func (g *Gateway) metricsAgent(every time.Duration) {
	defer g.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			if g.eprox != nil {
				g.eprox.PublishFailures(g.chain.Failures())
				g.lastRate.Store(math.Float64bits(g.eprox.ScrapeRate()))
			}
			g.agentTickMu.RLock()
			fn := g.agentTick
			g.agentTickMu.RUnlock()
			if fn != nil {
				fn()
			}
		}
	}
}

// SetAgentTick registers a callback invoked on every metrics-agent tick
// (the chain's scrape interval) — the SLO watchdog's evaluation cadence.
// The callback must not block; long work belongs on its own goroutine.
func (g *Gateway) SetAgentTick(fn func()) {
	g.agentTickMu.Lock()
	g.agentTick = fn
	g.agentTickMu.Unlock()
}

// shed counts one deliberate admission refusal — the reason counter plus
// the aggregate rejected counter — and journals it on the chain's flight
// sink. Emission is sampled: the first shed per reason and then every
// 64th, with the cumulative per-reason count riding in the event value —
// a shed storm must neither slow the refusal fast path (the suppressed
// case costs one branch beyond the counters it already pays) nor scroll
// rarer events (circuit flips, scale decisions) out of the bounded ring.
func (g *Gateway) shed(counter *atomic.Uint64, reason, fn string) {
	g.rejected.Add(1)
	if n := counter.Add(1); n == 1 || n%64 == 0 {
		g.chain.emitFlight(FlightShed, fn, reason, int64(n))
	}
}

// LastScrapeRate returns the packet rate measured by the metrics agent's
// most recent scrape (0 until the first tick, or when the agent is off).
func (g *Gateway) LastScrapeRate() float64 {
	return math.Float64frombits(g.lastRate.Load())
}

// Pending returns the number of requests currently awaiting a response —
// registered waiters across the pending table.
func (g *Gateway) Pending() int { return int(g.pending.count.Load()) }

// Admitted returns the all-time count of admitted requests (a cheap
// atomic read for control loops that poll it every tick).
func (g *Gateway) Admitted() uint64 { return g.admitted.Load() }

// Completed returns the all-time count of requests completed with a
// response descriptor (cheap atomic read, unlike the full Stats snapshot).
func (g *Gateway) Completed() uint64 { return g.completed.Load() }

// Failed returns the all-time count of requests terminated by a dataplane
// error.
func (g *Gateway) Failed() uint64 { return g.failed.Load() }

// Parked returns the number of requests currently parked awaiting
// scale-from-zero capacity.
func (g *Gateway) Parked() int { return g.parks.parked() }

// ParkedFor returns the number of requests parked on fn specifically —
// the autoscaler's resume signal.
func (g *Gateway) ParkedFor(fn string) int { return g.parks.parkedFor(fn) }

// SetParkNotifier registers the control-plane callback invoked (once per
// parked request) when a request parks because fn has no routable
// instance. The callback must not block: it runs on the request path.
func (g *Gateway) SetParkNotifier(fn func(function string)) {
	g.parkCbMu.Lock()
	g.parkCb = fn
	g.parkCbMu.Unlock()
}

func (g *Gateway) notifyParked(fn string) {
	g.parkCbMu.RLock()
	cb := g.parkCb
	g.parkCbMu.RUnlock()
	if cb != nil {
		cb(fn)
	}
}

// wakeParked releases every parked request to re-attempt dispatch; the
// chain calls it whenever an instance becomes routable.
func (g *Gateway) wakeParked() { g.parks.wakeAll() }

// ColdStartLatency returns a merged copy of the cold-start histogram:
// park-to-successful-dispatch latency of requests that arrived while their
// function was at zero replicas.
func (g *Gateway) ColdStartLatency() *metrics.Histogram {
	return g.coldStart.Snapshot()
}

// SocketStats reports the gateway socket's delivered/dropped descriptor
// counters (the response path).
func (g *Gateway) SocketStats() (delivered, dropped uint64) {
	return g.sock.Stats()
}

// fail completes a pending request with a terminal error: the dataplane
// has determined no response descriptor will ever arrive.
func (g *Gateway) fail(caller uint32, err error) {
	ch, ok := g.pending.take(caller)
	if !ok {
		return
	}
	g.failed.Add(1)
	ch <- gwResult{err: err}
}

// isClosed reports whether Close has begun.
func (g *Gateway) isClosed() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

// run consumes response descriptors returning to the gateway, parked in a
// plain receive on the gateway socket until Close closes it. Close fails
// every pending caller itself, so a reply still queued behind it is only a
// buffer to give back.
func (g *Gateway) run() {
	defer g.wg.Done()
	for d := range g.sock.Recv() {
		if g.isClosed() {
			g.chain.failures.reclaimed.Add(1)
			g.chain.releaseBuffer(d.Buf)
			continue
		}
		g.complete(d)
	}
}

func (g *Gateway) complete(d shm.Descriptor) {
	ch, ok := g.pending.take(d.Caller)
	if !ok {
		// late response after a cancelled or timed-out request: reclaim
		// the orphaned buffer (the abandoning waiter could not — the
		// descriptor was still travelling the chain).
		g.chain.failures.reclaimed.Add(1)
		g.chain.releaseBuffer(d.Buf)
		g.chain.noteError("gateway", fmt.Errorf("%w: %d", ErrNoWaiter, d.Caller))
		return
	}
	// Response drain span: the final hop's send stamp → gateway pickup.
	// Recorded before the result is sent so it always lands ahead of the
	// waiter's FinishRequest.
	if tr := g.chain.currentTracer(); tr != nil && g.chain.pool.TraceSampled(d.Buf) {
		now := time.Now()
		drainStart := now
		if ns := g.chain.pool.TraceStamp(d.Buf); ns > 0 {
			drainStart = time.Unix(0, ns)
		}
		tr.RecordSpan(d.Caller, Span{
			Parent: g.chain.pool.TraceContext(d.Buf).Span, Stage: StageDrain,
			Function: "gateway", Start: drainStart, End: now,
		})
	}
	// The single response copy out of shared memory: the gateway owns
	// constructing the external HTTP response (§3.1). The copy lands in a
	// pooled staging buffer the waiter returns after consuming it.
	res := g.assemble(d)
	g.chain.releaseBuffer(d.Buf)
	g.completed.Add(1)
	ch <- res
}

// assemble builds one response: from the reply's attached object when the
// buffer's carrier bit marks that object as the message body (the >BufSize
// response path — Ctx.ReplyObject, or a large request passed through
// untouched and echoed back), otherwise the usual copy out of the reply
// buffer. The explicit bit — set by admission and ReplyObject, cleared by
// any payload write — means a handler that replies with a deliberately
// empty body never has the request object echoed at it just because the
// request was large.
func (g *Gateway) assemble(d shm.Descriptor) gwResult {
	if st := g.chain.store; st != nil && g.chain.pool.ObjCarrier(d.Buf) {
		if h := objstore.Handle(g.chain.pool.ObjHandle(d.Buf)); h.Valid() {
			r, err := st.Open(h)
			if err != nil {
				return gwResult{err: err}
			}
			n := int(r.Size())
			gb := g.getBuf(n)
			if n > 0 {
				if _, err := r.ReadAt(gb.b[:n], 0); err != nil {
					_ = r.Close()
					g.putBuf(gb)
					return gwResult{err: err}
				}
			}
			_ = r.Close()
			return gwResult{gb: gb, n: n}
		}
	}
	payload, err := g.chain.pool.Payload(d.Buf)
	if err != nil {
		return gwResult{err: err}
	}
	n := min(int(d.Len), len(payload))
	gb := g.getBuf(n)
	return gwResult{gb: gb, n: copy(gb.b[:n], payload)}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// admit writes the payload into the pool and builds the descriptor. It is
// the backpressure point: pool exhaustion rejects the request. Payloads
// one buffer cannot hold take the object path (admitLarge).
func (g *Gateway) admit(topic string, payload []byte, caller uint32) (shm.Descriptor, error) {
	if len(payload) > g.chain.pool.BufSize() {
		return g.admitLarge(topic, payload, caller)
	}
	h, err := g.chain.pool.Get()
	if err != nil {
		g.shed(&g.shedPoolExhausted, ShedPoolExhausted, "")
		return shm.Descriptor{}, fmt.Errorf("%w: %v", ErrBackpressure, err)
	}
	n, err := g.chain.pool.Write(h, payload)
	if err != nil {
		g.chain.releaseBuffer(h)
		g.rejected.Add(1)
		return shm.Descriptor{}, err
	}
	d := shm.Descriptor{Buf: h, Len: uint32(n), Caller: caller}
	g.chain.pool.SetTopic(d.Buf, topic)
	if g.eprox != nil {
		g.eprox.OnIngress(len(payload))
	}
	g.admitted.Add(1)
	return d, nil
}

// admitLarge admits a >BufSize payload via the object tier: one chunked
// write assembles the payload into a multi-slab object, whose handle rides
// an otherwise-empty descriptor buffer downstream — handlers read it in
// place through Ctx.OpenObject. A chain without an object store (or a
// payload over its per-object cap) is shed with a distinct reason, which
// ServeHTTP maps to HTTP 413.
func (g *Gateway) admitLarge(topic string, payload []byte, caller uint32) (shm.Descriptor, error) {
	st := g.chain.store
	if st == nil {
		g.shed(&g.shedPayloadTooLarge, ShedPayloadTooLarge, "")
		return shm.Descriptor{}, fmt.Errorf("%w: %d bytes > %d-byte buffer (object store disabled)",
			shm.ErrPayloadTooLarge, len(payload), g.chain.pool.BufSize())
	}
	h, err := st.Put("", payload)
	if err != nil {
		if errors.Is(err, shm.ErrPayloadTooLarge) {
			g.shed(&g.shedPayloadTooLarge, ShedPayloadTooLarge, "")
			return shm.Descriptor{}, err
		}
		if errors.Is(err, shm.ErrPoolExhausted) {
			g.shed(&g.shedPoolExhausted, ShedPoolExhausted, "")
			return shm.Descriptor{}, fmt.Errorf("%w: %v", ErrBackpressure, err)
		}
		g.rejected.Add(1)
		return shm.Descriptor{}, err
	}
	buf, err := g.chain.pool.Get()
	if err != nil {
		_ = st.Release(h)
		g.shed(&g.shedPoolExhausted, ShedPoolExhausted, "")
		return shm.Descriptor{}, fmt.Errorf("%w: %v", ErrBackpressure, err)
	}
	// The creator's object reference transfers to the buffer: when the
	// request's buffer dies, the pool hook releases the object, so request
	// completion is object completion.
	if prev := g.chain.pool.SetObjHandle(buf, uint64(h)); prev != 0 {
		_ = st.Release(objstore.Handle(prev))
	}
	// The object IS the payload: downstream stages and the response path
	// treat it as the message body until a handler writes its own.
	g.chain.pool.SetObjCarrier(buf, true)
	d := shm.Descriptor{Buf: buf, Len: 0, Caller: caller}
	g.chain.pool.SetTopic(d.Buf, topic)
	if g.eprox != nil {
		g.eprox.OnIngress(len(payload))
	}
	g.admitted.Add(1)
	return d, nil
}

// dispatch resolves the head function via DFR and sends the descriptor.
// When the head function has no routable instance (scale-to-zero) and
// parking is enabled, the request parks until the control plane resumes
// capacity instead of failing.
func (g *Gateway) dispatch(ctx context.Context, topic string, d shm.Descriptor) error {
	next, ok := g.chain.router.Next(topic, "")
	if !ok || len(next) == 0 {
		g.chain.releaseBuffer(d.Buf)
		return ErrNoHead
	}
	// The gateway invokes only the head function (① in Fig. 4); the rest
	// of the chain routes function-to-function.
	return g.dispatchAt(ctx, next[0], d)
}

// dispatchAt sends d directly to fn, parking on scale-to-zero when parking
// is enabled. On error the buffer has been released. It is dispatch minus
// the ingress DFR lookup — the entry point for requests whose routing was
// already resolved, such as frames arriving from a peer node.
func (g *Gateway) dispatchAt(ctx context.Context, fn string, d shm.Descriptor) error {
	err := g.dispatchTo(fn, d)
	if err != nil && errors.Is(err, ErrNoInstance) && g.admission.ParkCapacity > 0 {
		err = g.parkAndDispatch(ctx, fn, d)
	}
	if err != nil {
		g.chain.releaseBuffer(d.Buf)
		return err
	}
	return nil
}

// dispatchTo picks a routable instance of fn and sends d to it.
func (g *Gateway) dispatchTo(fn string, d shm.Descriptor) error {
	inst, err := g.chain.router.PickInstance(fn)
	if err != nil {
		return err
	}
	d.NextFn = inst.ID()
	return g.chain.send(GatewayID, "gateway", fn, d)
}

// parkAndDispatch parks one admitted request whose head function is at
// zero replicas, kicks the control plane, and re-attempts dispatch on
// every capacity wakeup until success, timeout, or cancellation. The
// caller owns d's buffer on error. The park wait is deadline-aware: it
// never outlives the request's own context deadline, and a shed parked
// request is an explicit ShedParkTimeout — not a deadline blackhole.
func (g *Gateway) parkAndDispatch(ctx context.Context, fn string, d shm.Descriptor) error {
	if !g.parks.tryAdd(fn) {
		g.shed(&g.shedParkFull, ShedParkFull, fn)
		return &OverloadError{Reason: ShedParkFull, RetryAfter: g.admission.RetryAfter}
	}
	defer g.parks.remove(fn)
	g.parkedTotal.Add(1)
	start := time.Now()
	g.notifyParked(fn)

	wait := g.admission.ParkTimeout
	if dl, ok := ctx.Deadline(); ok {
		if r := time.Until(dl); r < wait {
			wait = r
		}
	}
	if wait <= 0 {
		g.shed(&g.shedParkTimeout, ShedParkTimeout, fn)
		return &OverloadError{Reason: ShedParkTimeout, RetryAfter: g.admission.RetryAfter}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		// Fetch the wake generation before attempting: capacity that
		// arrives after a failed attempt still closes this generation.
		wake := g.parks.waitCh()
		err := g.dispatchTo(fn, d)
		if err == nil {
			waited := time.Since(start)
			g.resumed.Add(1)
			g.coldStart.Observe(uint64(d.Caller), waited.Seconds())
			g.chain.emitFlight(FlightColdStartResume, fn, "", waited.Nanoseconds())
			return nil
		}
		if !errors.Is(err, ErrNoInstance) {
			return err
		}
		select {
		case <-wake:
		case <-timer.C:
			g.shed(&g.shedParkTimeout, ShedParkTimeout, fn)
			return &OverloadError{Reason: ShedParkTimeout, RetryAfter: g.admission.RetryAfter}
		case <-ctx.Done():
			return ctx.Err()
		case <-g.stop:
			return ErrGatewayClosed
		}
	}
}

// invoke drives one request through the chain and returns the raw result.
// The caller owns res.gb (when set) and must return it to the buffer pool.
func (g *Gateway) invoke(ctx context.Context, topic string, payload []byte) (gwResult, error) {
	start := time.Now()
	// Overload shed point: beyond MaxPending the gateway refuses load
	// deliberately (explicit reason + retry-after) instead of letting the
	// burst blackhole into pool exhaustion mid-scale-up.
	if mp := g.admission.MaxPending; mp > 0 && int(g.pending.count.Load()) >= mp {
		g.shed(&g.shedOverload, ShedOverload, "")
		return gwResult{}, &OverloadError{Reason: ShedOverload, RetryAfter: g.admission.RetryAfter}
	}
	if dl := g.chain.deadline; dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}
	caller := g.nextID.Add(1)
	if caller == NoReply {
		caller = g.nextID.Add(1)
	}
	ch := g.getWaiter()
	g.pending.put(caller, ch)
	// Registered first, checked second: Close sets the flag and then sweeps
	// the pending table, so this request is either swept or sees the flag.
	if g.isClosed() {
		g.recycleWaiter(caller, ch)
		return gwResult{}, ErrGatewayClosed
	}
	// Head-sampling decision (or adoption of an inbound sampled context
	// propagated via WithTraceContext / a parsed traceparent header). The
	// unsampled path gets a zero context back and pays nothing further:
	// FinishRequest reuses the elapsed time the latency histogram already
	// needed, so no extra clock reads either.
	tr := g.chain.currentTracer()
	var tc shm.TraceContext
	if tr != nil {
		tc = tr.BeginRequest(caller, TraceContextFrom(ctx), start)
	}
	sampled := tc.Sampled()

	var allocStart time.Time
	if sampled {
		allocStart = time.Now()
	}
	d, err := g.admit(topic, payload, caller)
	if err != nil {
		g.recycleWaiter(caller, ch)
		if tr != nil {
			tr.FinishRequest(caller, sampled, err, start, time.Since(start))
		}
		return gwResult{}, err
	}
	if sampled {
		tr.RecordSpan(caller, Span{
			Parent: tc.Span, Stage: StageShmAlloc, Function: "gateway",
			Start: allocStart, End: time.Now(),
		})
		// Install the trace identity in the buffer header before dispatch:
		// every downstream stage keys off it.
		g.chain.pool.SetTraceContext(d.Buf, tc)
	}
	if err := g.dispatch(ctx, topic, d); err != nil {
		g.recycleWaiter(caller, ch)
		if tr != nil {
			tr.FinishRequest(caller, sampled, err, start, time.Since(start))
		}
		return gwResult{}, err
	}

	res, err := g.await(ctx, caller, ch)
	el := time.Since(start)
	if err != nil {
		if tr != nil {
			tr.FinishRequest(caller, sampled, err, start, el)
		}
		return gwResult{}, err
	}
	g.lat.Observe(uint64(caller), el.Seconds())
	if tr != nil {
		tr.FinishRequest(caller, sampled, res.err, start, el)
	}
	return res, nil
}

// await parks a dispatched request's caller until its one outcome arrives
// on ch — a response, a terminal dataplane failure or Gateway.Close, sent by
// whoever took the pending entry — or until ctx gives up first, in which
// case the pending entry is withdrawn and ctx's error returned. A context
// that cannot be cancelled makes the wait a plain channel receive.
func (g *Gateway) await(ctx context.Context, caller uint32, ch chan gwResult) (gwResult, error) {
	if done := ctx.Done(); done != nil {
		select {
		case res := <-ch:
			g.waiterPool.Put(ch)
			return res, nil
		case <-done:
			g.recycleWaiter(caller, ch)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				g.chain.failures.deadlines.Add(1)
			}
			return gwResult{}, ctx.Err()
		}
	}
	res := <-ch
	g.waiterPool.Put(ch)
	return res, nil
}

// recycleWaiter abandons a pending request. If the pending entry was still
// registered, no sender can hold the channel and it is returned to the
// pool. Otherwise a completion already claimed it: drain the (possibly
// in-flight) result so a stale response can never surface on a future
// request that reuses the channel.
func (g *Gateway) recycleWaiter(caller uint32, ch chan gwResult) {
	if g.forget(caller) {
		g.waiterPool.Put(ch)
		return
	}
	select {
	case res := <-ch:
		g.putBuf(res.gb)
		g.waiterPool.Put(ch)
	default:
		// The sender is between the pending-map delete and the send:
		// abandon the channel rather than risk reuse.
	}
}

// Invoke synchronously processes one request through the chain and returns
// the response payload. When the chain declares a Deadline, it bounds the
// invocation even if the caller's context is unbounded: a hung or crashed
// chain fails the request instead of pinning the caller (and its buffer
// is reclaimed when the late response surfaces).
func (g *Gateway) Invoke(ctx context.Context, topic string, payload []byte) ([]byte, error) {
	res, err := g.invoke(ctx, topic, payload)
	if err != nil {
		return nil, err
	}
	if res.err != nil || res.gb == nil {
		return nil, res.err
	}
	out := append([]byte(nil), res.gb.b[:res.n]...)
	g.putBuf(res.gb)
	return out, nil
}

// InvokeInto is the allocation-free variant of Invoke: the response payload
// is copied into dst and its length returned. If dst is too small the
// response is discarded and ErrShortBuffer returned. Callers that reuse dst
// across requests observe zero per-invocation heap allocation in steady
// state.
func (g *Gateway) InvokeInto(ctx context.Context, topic string, payload, dst []byte) (int, error) {
	res, err := g.invoke(ctx, topic, payload)
	if err != nil {
		return 0, err
	}
	if res.err != nil || res.gb == nil {
		return 0, res.err
	}
	if len(dst) < res.n {
		g.putBuf(res.gb)
		return 0, ErrShortBuffer
	}
	n := copy(dst, res.gb.b[:res.n])
	g.putBuf(res.gb)
	return n, nil
}

// InvokeAsync fires an event into the chain with no response expected
// (the IoT pattern of §4.2.2).
func (g *Gateway) InvokeAsync(topic string, payload []byte) error {
	d, err := g.admit(topic, payload, NoReply)
	if err != nil {
		return err
	}
	return g.dispatch(context.Background(), topic, d)
}

// attachRemoteObject re-materializes an attached object that crossed the
// wire alongside a frame's in-buffer payload (wire.FlagObject): the bytes
// become a local store object whose reference transfers to the admitted
// buffer, so the remote request observes the same Ctx.OpenObject view the
// origin's did. The payload stays authoritative (no carrier bit) — exactly
// the rider semantics the origin buffer had.
func (g *Gateway) attachRemoteObject(buf uint32, obj []byte) error {
	st := g.chain.store
	if st == nil {
		return fmt.Errorf("%w: remote frame carries an attached object", ErrObjectsDisabled)
	}
	h, err := st.Put("", obj)
	if err != nil {
		return err
	}
	if prev := g.chain.pool.SetObjHandle(buf, uint64(h)); prev != 0 {
		_ = st.Release(objstore.Handle(prev))
	}
	return nil
}

// InvokeRemote admits a payload that arrived from a peer node's gateway and
// dispatches it directly to fn (the sending node's DFR already resolved the
// hop — no ingress route lookup here). The payload — and obj, the origin
// message's attached-object bytes (nil when none rode the frame) — are
// copied into the local shm pool and object store before InvokeRemote
// returns, so the caller may recycle them immediately. tc is the trace
// context carried on the wire frame: when sampled, the local tracer adopts
// it, so both nodes' spans share one trace ID and the remote spans parent
// under the forwarding stub's span.
//
// For noReply requests done must be nil: the frame is fire-and-forget.
// Otherwise done is called exactly once, from a gateway goroutine, with the
// response payload or a terminal error; the payload is only valid for the
// duration of the call (it is returned to a pool after).
func (g *Gateway) InvokeRemote(fn, topic string, payload, obj []byte, tc shm.TraceContext, noReply bool, done func([]byte, error)) error {
	if noReply {
		if g.isClosed() {
			return ErrGatewayClosed
		}
		d, err := g.admit(topic, payload, NoReply)
		if err != nil {
			return err
		}
		if obj != nil {
			if aerr := g.attachRemoteObject(d.Buf, obj); aerr != nil {
				g.chain.releaseBuffer(d.Buf)
				return aerr
			}
		}
		if tc.Sampled() {
			g.chain.pool.SetTraceContext(d.Buf, tc)
		}
		return g.dispatchAt(context.Background(), fn, d)
	}
	// Same overload shed point as local ingress: a remote hop must not
	// bypass admission control.
	if mp := g.admission.MaxPending; mp > 0 && int(g.pending.count.Load()) >= mp {
		g.shed(&g.shedOverload, ShedOverload, "")
		return &OverloadError{Reason: ShedOverload, RetryAfter: g.admission.RetryAfter}
	}
	start := time.Now()
	caller := g.nextID.Add(1)
	if caller == NoReply {
		caller = g.nextID.Add(1)
	}
	ch := g.getWaiter()
	g.pending.put(caller, ch)
	if g.isClosed() { // after put, as in invoke
		g.recycleWaiter(caller, ch)
		return ErrGatewayClosed
	}
	tr := g.chain.currentTracer()
	var ltc shm.TraceContext
	if tr != nil {
		// Adopt the inbound sampled context: same trace ID, and this
		// node's request span parents under the remote stub's span.
		ltc = tr.BeginRequest(caller, tc, start)
	}
	sampled := ltc.Sampled()
	d, err := g.admit(topic, payload, caller)
	if err == nil && obj != nil {
		if aerr := g.attachRemoteObject(d.Buf, obj); aerr != nil {
			g.chain.releaseBuffer(d.Buf)
			err = aerr
		}
	}
	if err != nil {
		g.recycleWaiter(caller, ch)
		if tr != nil {
			tr.FinishRequest(caller, sampled, err, start, time.Since(start))
		}
		return err
	}
	if sampled {
		g.chain.pool.SetTraceContext(d.Buf, ltc)
	}
	// The payload now lives in the local pool; dispatch and the response
	// wait move off the transport's receive loop.
	go g.remoteWait(fn, d, caller, ch, tr, sampled, start, done)
	return nil
}

// remoteWait drives one remote-originated request from dispatch to
// completion and hands the outcome to done.
func (g *Gateway) remoteWait(fn string, d shm.Descriptor, caller uint32, ch chan gwResult,
	tr *Tracer, sampled bool, start time.Time, done func([]byte, error)) {
	ctx := context.Background()
	if dl := g.chain.deadline; dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}
	if err := g.dispatchAt(ctx, fn, d); err != nil {
		g.recycleWaiter(caller, ch)
		if tr != nil {
			tr.FinishRequest(caller, sampled, err, start, time.Since(start))
		}
		done(nil, err)
		return
	}
	res, err := g.await(ctx, caller, ch)
	el := time.Since(start)
	if err == nil {
		g.lat.Observe(uint64(caller), el.Seconds())
		err = res.err
	}
	if tr != nil {
		tr.FinishRequest(caller, sampled, err, start, el)
	}
	if err != nil || res.gb == nil {
		done(nil, err)
		return
	}
	done(res.gb.b[:res.n], nil)
	g.putBuf(res.gb)
}

// CompleteRemote finishes a pending request with a response (or transport
// failure) that arrived from a peer node: the cross-node analogue of the
// response descriptor returning to the gateway socket. The payload is
// copied before CompleteRemote returns. false means no waiter was
// registered for caller (late, duplicate, or already-failed request).
func (g *Gateway) CompleteRemote(caller uint32, payload []byte, err error) bool {
	ch, ok := g.pending.take(caller)
	if !ok {
		g.chain.noteError("gateway", fmt.Errorf("%w: remote %d", ErrNoWaiter, caller))
		return false
	}
	if err != nil {
		g.failed.Add(1)
		ch <- gwResult{err: err}
		return true
	}
	gb := g.getBuf(len(payload))
	n := copy(gb.b[:len(payload)], payload)
	g.completed.Add(1)
	ch <- gwResult{gb: gb, n: n}
	return true
}

// forget removes a pending entry, reporting whether it was still present
// (false means a completion already claimed the waiter).
func (g *Gateway) forget(caller uint32) bool {
	_, ok := g.pending.take(caller)
	return ok
}

// Adapters exposes the protocol-adaptation hook registry (§3.6).
func (g *Gateway) Adapters() *AdapterRegistry { return g.adapters }

// IngestRaw runs protocol adaptation on raw bytes arriving for the named
// protocol and injects the normalized message into the chain. The reply
// bytes (if the protocol is request/response) are returned re-encoded.
func (g *Gateway) IngestRaw(ctx context.Context, protocol string, raw []byte) ([]byte, error) {
	ad, err := g.adapters.Get(protocol)
	if err != nil {
		return nil, err
	}
	msg, reply, err := ad.Decode(raw)
	if err != nil {
		return nil, err
	}
	if reply != nil {
		// stateful L7 handshake (e.g. MQTT CONNECT) terminated by the
		// gateway itself per §3.6 — no function invocation.
		return reply, nil
	}
	if msg.NoResponse {
		if err := g.InvokeAsync(msg.Topic, msg.Payload); err != nil {
			return nil, err
		}
		return ad.EncodeAck(msg)
	}
	out, err := g.Invoke(ctx, msg.Topic, msg.Payload)
	if err != nil {
		return nil, err
	}
	return ad.EncodeResponse(msg, out)
}

// bodyLimit returns the largest request body admission could possibly
// accept: the object-store per-object cap, or one pool buffer when the
// object tier is disabled. 0 means unbounded (a store configured with no
// cap).
func (g *Gateway) bodyLimit() int64 {
	if st := g.chain.store; st != nil {
		return st.MaxObjectBytes()
	}
	return int64(g.chain.pool.BufSize())
}

// ServeHTTP exposes the chain over real HTTP (net/http): the external
// interface of the SPRIGHT gateway. The message topic is taken from the
// X-Topic header, defaulting to the URL path.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Enforce the admission size cap while the body streams in, so an
	// oversized request is refused after at most limit+1 buffered bytes —
	// never heap-buffered whole just to be rejected by admitLarge.
	limit := g.bodyLimit()
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			g.shed(&g.shedPayloadTooLarge, ShedPayloadTooLarge, "")
			http.Error(w, fmt.Sprintf("%v: body exceeds %d bytes", shm.ErrPayloadTooLarge, limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	topic := r.Header.Get("X-Topic")
	if topic == "" {
		topic = r.URL.Path
	}
	rctx := r.Context()
	// W3C trace-context ingestion: an external caller's sampled traceparent
	// joins its request to the caller's trace.
	if tc, ok := shm.ParseTraceparent(r.Header.Get("traceparent")); ok {
		rctx = WithTraceContext(rctx, tc)
	}
	out, err := g.Invoke(rctx, topic, body)
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		// Deliberate shed: 503 with an honest Retry-After so well-behaved
		// clients back off for the scale-up window instead of hammering.
		secs := int(oe.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, shm.ErrPayloadTooLarge):
		// Distinct refusal, not a generic failure: the payload exceeds what
		// this chain will store (no object tier, or over its per-object
		// cap). Retrying the same body cannot succeed, so no Retry-After.
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	case errors.Is(err, ErrBackpressure):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(out); err != nil {
			g.chain.noteError("gateway", err)
		}
	}
}

// Stats summarizes gateway activity, including the failure-recovery
// counters of the chain behind it.
type GatewayStats struct {
	Admitted  uint64
	Rejected  uint64
	Completed uint64
	// Failed counts requests terminated with a dataplane error (handler
	// panic/error, exhausted retries, dead instance) instead of a reply.
	Failed uint64
	// Crashes is the number of handler panics absorbed by isolation.
	Crashes uint64
	// Retries is the number of descriptor re-sends on transient errors.
	Retries uint64
	// CircuitOpens counts instance breaker closed→open transitions.
	CircuitOpens uint64
	// Reclaimed counts orphaned shared-memory buffers recovered from
	// abandoned requests and dead instances' queues.
	Reclaimed uint64
	// DeadlinesExceeded counts invocations failed by the chain deadline.
	DeadlinesExceeded uint64
	// FaultsInjected counts faults fired by the chain's injector.
	FaultsInjected uint64
	// Shed* break Rejected down by admission-control reason; a request
	// refused for any reason increments Rejected plus exactly one of
	// these.
	ShedOverload        uint64
	ShedParkFull        uint64
	ShedParkTimeout     uint64
	ShedPoolExhausted   uint64
	ShedPayloadTooLarge uint64
	// Parked is the current scale-from-zero park-queue depth;
	// ParkedTotal counts every request that ever parked, and Resumed the
	// parked requests that went on to dispatch successfully.
	Parked      int
	ParkedTotal uint64
	Resumed     uint64
	// ColdStartP99 is the 99th-percentile park-to-dispatch latency.
	ColdStartP99 float64
	P95          float64
	Mean         float64
}

// Stats returns a snapshot and publishes the failure counters to the
// EPROXY metrics map, so kernel-side observability follows the failure
// paths (the metrics agent's scrape also serves as the publish tick).
func (g *Gateway) Stats() GatewayStats {
	fs := g.chain.Failures()
	if g.eprox != nil {
		g.eprox.PublishFailures(fs)
	}
	lat := g.lat.Snapshot()
	return GatewayStats{
		Admitted:            g.admitted.Load(),
		Rejected:            g.rejected.Load(),
		Completed:           g.completed.Load(),
		Failed:              g.failed.Load(),
		Crashes:             fs.Crashes,
		Retries:             fs.Retries,
		CircuitOpens:        fs.CircuitOpens,
		Reclaimed:           fs.Reclaimed,
		DeadlinesExceeded:   fs.DeadlinesExceeded,
		FaultsInjected:      fs.FaultsInjected,
		ShedOverload:        g.shedOverload.Load(),
		ShedParkFull:        g.shedParkFull.Load(),
		ShedParkTimeout:     g.shedParkTimeout.Load(),
		ShedPoolExhausted:   g.shedPoolExhausted.Load(),
		ShedPayloadTooLarge: g.shedPayloadTooLarge.Load(),
		Parked:              g.parks.parked(),
		ParkedTotal:         g.parkedTotal.Load(),
		Resumed:             g.resumed.Load(),
		ColdStartP99:        g.coldStart.Snapshot().Quantile(0.99),
		P95:                 lat.Quantile(0.95),
		Mean:                lat.Mean(),
	}
}

// Latency returns a merged copy of the gateway's striped latency histogram.
func (g *Gateway) Latency() *metrics.Histogram {
	return g.lat.Snapshot()
}

// EProxy returns the gateway's EPROXY (nil in polling mode).
func (g *Gateway) EProxy() *EProxy { return g.eprox }

// Close stops the gateway. Every request still waiting for its response
// completes with ErrGatewayClosed — Close takes each pending entry exactly
// as a completion would, so a caller gets one outcome, never two and never
// none — and response descriptors still queued on the socket are reclaimed
// by the consumers on their way out.
func (g *Gateway) Close() {
	g.once.Do(func() {
		close(g.stop)
		g.sock.Close()
		for _, ch := range g.pending.takeAll() {
			ch <- gwResult{err: ErrGatewayClosed}
		}
	})
	g.wg.Wait()
}

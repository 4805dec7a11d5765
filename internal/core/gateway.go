package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
)

// Gateway is the chain's SPRIGHT gateway (§3.1): the reverse proxy that
// consolidates protocol processing, copies each admitted payload into the
// chain's shared-memory pool exactly once, invokes the head function, and
// constructs the external response when the descriptor returns.
type Gateway struct {
	// What every request writes, striped (gwStripe). First in the struct,
	// each stripe 64 bytes with its words in the first 24, so that wherever
	// within a line the allocation starts no two stripes' words share one
	// (TestStripeLayout).
	stripes [ebpf.Stripes]gwStripe

	chain *Chain
	sock  *Socket
	eprox *EProxy

	pending pendTable

	adapters *AdapterRegistry

	rejected atomic.Uint64
	failed   atomic.Uint64

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

	waiterPool sync.Pool // *waiter
	bodyPool   sync.Pool // *[]byte ServeHTTP request bodies

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once

	// agentTick rides the metrics-agent cadence: the SLO watchdog hangs its
	// evaluation off the same per-chain goroutine instead of adding one.
	// (Kept at the struct tail so the hot fields above keep their layout.)
	agentTickMu sync.RWMutex
	agentTick   func()
}

// gwStripe is one stripe (ebpf.Stripes) of the words the gateway writes for
// every request, a cache line to itself: the caller IDs it deals and the
// counts of requests admitted and completed. A request's words are those of
// the stripe its pending entry was dealt (waiter.stripe), which is also the
// low bits of its caller ID — so the worker that completes it, on whatever
// goroutine, counts it where it was admitted.
type gwStripe struct {
	seq       atomic.Uint32 // caller IDs dealt: ID = seq*ebpf.Stripes + stripe
	admitted  atomic.Uint64
	completed atomic.Uint64
	_         [5]uint64
}

// Gateway errors.
var (
	ErrGatewayClosed = errors.New("core: gateway closed")
	ErrNoWaiter      = errors.New("core: response for unknown caller")
	ErrShortBuffer   = errors.New("core: response buffer too small")
)

// NewGateway creates and starts the gateway for a chain, registering its
// socket (instance ID 0) with the chain's transport and attaching the
// EPROXY monitor programs.
func NewGateway(c *Chain) (*Gateway, error) {
	g := &Gateway{
		chain:     c,
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
	g.pending.init(g.expire)
	// The reply socket has no queue, no ring and no consumer goroutines in
	// either mode: a reply descriptor's delivery runs complete on the goroutine
	// that delivered it, the last function's worker.
	g.sock = newSinkSocket(GatewayID, g.complete)
	if err := c.transport.RegisterSocket(g.sock); err != nil {
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
	// The metrics agent (§3.3): a per-chain goroutine that periodically
	// refreshes the packet-rate sample the metrics server scrapes for
	// autoscaling and fires the agent-tick hook (SLO watchdog). Polling-mode
	// chains have no EPROXY but still run the agent for the hook.
	if c.scrapeEvery > 0 {
		g.wg.Add(1)
		go g.metricsAgent(c.scrapeEvery)
	}
	return g, nil
}

// metricsAgent drives EProxy.ScrapeRate and the agent-tick hook on a ticker
// until the gateway closes.
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
	w, ok := g.pending.take(caller)
	if !ok {
		return
	}
	g.failed.Add(1)
	g.settle(w, nil, err)
}

// expire is a remote-originated request's chain Deadline firing: nobody is
// parked in await to notice, so a timer on the entry takes it.
func (g *Gateway) expire(caller uint32) {
	w, ok := g.pending.take(caller)
	if !ok {
		return
	}
	g.chain.failures.deadlines.Add(1)
	g.settle(w, nil, context.DeadlineExceeded)
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

// complete is the reply socket's sink: it finishes the request a reply
// descriptor answers, on the goroutine that delivered the descriptor and
// inside Socket.Deliver's sender registration — so Close, which closes the
// socket first, returns only after every completion already under way.
func (g *Gateway) complete(d shm.Descriptor) {
	w, ok := g.pending.take(d.Caller)
	if !ok {
		// late response after a cancelled or timed-out request: reclaim
		// the orphaned buffer (the abandoning waiter could not — the
		// descriptor was still travelling the chain).
		g.chain.failures.reclaimed.Add(1)
		g.chain.releaseBuffer(d.Buf)
		g.chain.noteError("gateway", fmt.Errorf("%w: %d", ErrNoWaiter, d.Caller))
		return
	}
	// The reply's redirect span (Chain.sendObserved leaves it here) and the
	// drain span: the final hop's send stamp → gateway pickup. Recorded
	// before the request is settled, so a trace is whole when its caller
	// returns.
	if tr := g.chain.Tracer(); tr != nil && g.chain.pool.TraceSampled(d.Buf) {
		s := Span{Parent: g.chain.pool.TraceContext(d.Buf).Span, Stage: StageRedirect, Function: "gateway", End: time.Now()}
		s.Start = s.End
		if ns := g.chain.pool.TraceStamp(d.Buf); ns > 0 {
			s.Start = time.Unix(0, ns)
		}
		tr.RecordSpan(d.Caller, s)
		s.Stage = StageDrain
		tr.RecordSpan(d.Caller, s)
	}
	// The single response copy out of shared memory: the gateway owns
	// constructing the external response (§3.1), straight into the caller's
	// destination or the peer's wire slot.
	body, err := g.replyBody(w, d)
	g.stripes[w.stripe].completed.Add(1)
	if w.responder != nil {
		// Answered from the pool buffer, so the buffer goes back after.
		g.settle(w, body, err)
		g.chain.releaseBuffer(d.Buf)
		return
	}
	// A local caller is woken last, so it finds its buffer already back.
	g.chain.releaseBuffer(d.Buf)
	g.settle(w, body, err)
}

// replyBody puts a reply's body where w wants it and returns it there: in
// the caller's destination for a local request; for a remote-originated one
// still in the pool buffer, from which the Responder encodes it. When the
// buffer's carrier bit marks its attached object as the message body (the
// >BufSize response path: Ctx.ReplyObject, or a large request passed through
// untouched and echoed back) the object is read instead, once, into the
// destination. The explicit bit — set by admission and ReplyObject, cleared
// by any payload write — means a handler that replies with a deliberately
// empty body never has the request object echoed at it just because the
// request was large.
func (g *Gateway) replyBody(w *waiter, d shm.Descriptor) ([]byte, error) {
	if st := g.chain.store; st != nil && g.chain.pool.ObjCarrier(d.Buf) {
		if h := objstore.Handle(g.chain.pool.ObjHandle(d.Buf)); h.Valid() {
			r, err := st.Open(h)
			if err != nil {
				return nil, err
			}
			defer r.Close()
			body, err := w.dest(int(r.Size()))
			if err == nil && len(body) > 0 {
				_, err = r.ReadAt(body, 0)
			}
			return body, err
		}
	}
	payload, err := g.chain.pool.Payload(d.Buf)
	if err != nil {
		return nil, err
	}
	payload = payload[:min(int(d.Len), len(payload))]
	if w.responder != nil {
		return payload, nil
	}
	body, err := w.dest(len(payload))
	copy(body, payload)
	return body, err
}

// settle gives a taken entry its one outcome. A local request's caller is
// parked on w.ch and owns w again once it has received. A remote-originated
// request has no caller here: its books are closed and its peer answered on
// this goroutine, and w is recycled. body must already be where a local
// caller wants it; a Responder only reads it during the call.
func (g *Gateway) settle(w *waiter, body []byte, err error) {
	if w.responder == nil {
		w.ch <- gwResult{body: body, err: err}
		return
	}
	r, origin := w.responder, w.origin
	g.lat.Observe(uint64(w.caller), time.Since(w.start).Seconds())
	g.retire(w, err)
	r.Respond(origin, body, err)
}

// retire closes the books of a request that ended with err (nil: with a
// reply) without a caller parked in await — a remote-originated one, or one
// start turned away — and recycles w, which nobody else holds.
func (g *Gateway) retire(w *waiter, err error) {
	if w.timer != nil {
		w.timer.Stop()
	}
	if w.tr != nil {
		w.tr.FinishRequest(w.caller, w.sampled, err, w.start, time.Since(w.start))
	}
	g.putWaiter(w)
}

// request is what a gateway door hands to start. Nothing keeps it: it lives
// on the door's stack.
type request struct {
	topic   string
	payload []byte
	fn      string           // the first function, if a peer's DFR chose it; else by topic
	obj     []byte           // the attached object that rode a peer's frame, or nil
	tc      shm.TraceContext // the trace context the request arrived with
	lent    bool             // the caller's goroutine may block while the request parks
}

// start is how every request begins, whichever door it came through: shed or
// admit it, register w, dispatch to the first function. w is the request's
// pending entry, nil for a fire-and-forget request. A nil return means the
// request is under way — or was already given its one outcome by whoever took
// its entry (Close, the deadline timer), by the normal path: await for a
// local caller, the Responder for a peer. An error means nothing is left of
// it — no buffer, no entry — and w is the caller's again.
func (g *Gateway) start(ctx context.Context, rq *request, w *waiter) error {
	caller, tc := uint32(NoReply), rq.tc
	var stripe uint32 // a fire-and-forget request has no pooled entry to be dealt one
	var allocStart time.Time
	if w == nil && g.isClosed() {
		return ErrGatewayClosed // no entry for Close to sweep: the flag is read up front
	}
	if w != nil {
		// Overload shed point: beyond MaxPending the gateway refuses load
		// deliberately (explicit reason + retry-after) instead of letting the
		// burst blackhole into pool exhaustion mid-scale-up. A remote hop
		// does not bypass it.
		if mp := g.admission.MaxPending; mp > 0 && g.pending.registered() >= mp {
			g.shed(&g.shedOverload, ShedOverload, "")
			return &OverloadError{Reason: ShedOverload, RetryAfter: g.admission.RetryAfter}
		}
		// Head-sampling decision, or adoption of a sampled inbound context (a
		// peer's frame, WithTraceContext, a parsed traceparent header): same
		// trace ID, this request's span parented under the upstream one. The
		// unsampled path gets a zero context back and pays nothing further:
		// FinishRequest reuses the elapsed time the latency histogram already
		// needed, so no extra clock reads either.
		caller, tc, stripe = w.caller, shm.TraceContext{}, w.stripe
		if w.tr = g.chain.Tracer(); w.tr != nil {
			tc = w.tr.BeginRequest(caller, rq.tc, w.start)
			if w.sampled = tc.Sampled(); w.sampled {
				allocStart = time.Now()
			}
		}
	}
	d, err := g.admit(rq, caller, stripe)
	if err != nil {
		return err
	}
	if tc.Sampled() {
		if w != nil {
			w.tr.RecordSpan(caller, Span{
				Parent: tc.Span, Stage: StageShmAlloc, Function: "gateway",
				Start: allocStart, End: time.Now(),
			})
		}
		// Install the trace identity in the buffer header before dispatch:
		// every downstream stage keys off it.
		g.chain.pool.SetTraceContext(d.Buf, tc)
	}
	if w != nil {
		// From here w belongs to whoever takes the entry. Only a
		// remote-originated request's chain Deadline is a timer on the entry
		// (put arms it): nobody waits in await to notice it. Registered
		// first, closed flag checked second: Close sets the flag and then
		// sweeps the table, so this request is either swept or sees the flag.
		var deadline time.Duration
		if w.responder != nil {
			deadline = g.chain.deadline
		}
		g.pending.put(w, deadline)
		if g.isClosed() {
			err = ErrGatewayClosed
		}
	}
	if err == nil {
		if err = g.dispatch(ctx, rq, d, stripe); err == nil {
			return nil
		}
	}
	g.chain.releaseBuffer(d.Buf)
	if w != nil {
		if _, ok := g.pending.take(caller); !ok {
			return nil // its taker has given, or is giving, the request its outcome
		}
	}
	return err
}

// admit moves a request into the chain's pool — the one copy in (§3.1) — and
// builds its descriptor. A payload that fits is written into one buffer. A
// larger one becomes a multi-slab object in one chunked write, whose handle
// rides an otherwise empty buffer with the carrier bit set: the object IS the
// payload, handlers read it in place through Ctx.OpenObject, and downstream
// stages and the response path treat it as the message body until a handler
// writes its own. A peer's attached object (rq.obj) is re-materialized as a
// local object beside an authoritative payload (no carrier bit) — the rider
// semantics the origin buffer had. Nothing is counted admitted until nothing
// can refuse any more; every refusal is counted by refuse.
func (g *Gateway) admit(rq *request, caller, stripe uint32) (shm.Descriptor, error) {
	pool := g.chain.pool
	body, obj, carrier := rq.payload, rq.obj, false
	if len(body) > pool.BufSize() {
		if obj != nil { // a buffer carries one object handle
			return g.refuse(fmt.Errorf("%w: %d bytes beside an attached object", shm.ErrPayloadTooLarge, len(body)))
		}
		body, obj, carrier = nil, body, true
	}
	if obj != nil && g.chain.store == nil {
		return g.refuse(fmt.Errorf("%w: %d-byte object, %d-byte buffer (%w)",
			shm.ErrPayloadTooLarge, len(obj), pool.BufSize(), ErrObjectsDisabled))
	}
	buf, err := pool.GetOn(stripe)
	if err != nil {
		// Backpressure whatever the cause: there is no buffer to be had.
		return g.refuse(fmt.Errorf("%w: %v", ErrBackpressure, err))
	}
	n, err := pool.Write(buf, body)
	if err == nil && obj != nil {
		var h objstore.Handle
		if h, err = g.chain.store.Put("", obj); err == nil {
			// The creator's object reference transfers to the buffer: when
			// the request's buffer dies, the pool hook releases the object,
			// so request completion is object completion.
			if prev := pool.SetObjHandle(buf, uint64(h)); prev != 0 {
				_ = g.chain.store.Release(objstore.Handle(prev))
			}
			pool.SetObjCarrier(buf, carrier)
		}
	}
	if err != nil {
		g.chain.releaseBuffer(buf)
		return g.refuse(err)
	}
	pool.SetTopic(buf, rq.topic)
	if g.eprox != nil {
		g.eprox.onIngress(len(rq.payload), stripe)
	}
	g.stripes[stripe].admitted.Add(1)
	return shm.Descriptor{Buf: buf, Len: uint32(n), Caller: caller}, nil
}

// refuse counts one request admission turned away — Rejected plus the one
// reason its cause names — and returns what the caller is told: pool
// exhaustion is ErrBackpressure, an object the store will not hold keeps
// shm.ErrPayloadTooLarge, which ServeHTTP maps to HTTP 413.
func (g *Gateway) refuse(err error) (shm.Descriptor, error) {
	if errors.Is(err, shm.ErrPoolExhausted) {
		err = fmt.Errorf("%w: %v", ErrBackpressure, err)
	}
	switch {
	case errors.Is(err, ErrBackpressure):
		g.shed(&g.shedPoolExhausted, ShedPoolExhausted, "")
	case errors.Is(err, shm.ErrPayloadTooLarge):
		g.shed(&g.shedPayloadTooLarge, ShedPayloadTooLarge, "")
	default:
		g.rejected.Add(1)
	}
	return shm.Descriptor{}, err
}

// dispatch invokes the request's first function with d: the head the ingress
// route names for its topic (① in Fig. 4; the rest of the chain routes
// function to function), or the one a peer's DFR already resolved. When that
// function has no routable instance (scale-to-zero) and parking is enabled,
// the request parks until the control plane resumes capacity instead of
// failing — on the caller's goroutine if it lent one, else on a goroutine of
// its own, so a door that must not block never does. The caller owns d's
// buffer on error.
func (g *Gateway) dispatch(ctx context.Context, rq *request, d shm.Descriptor, stripe uint32) error {
	fn := rq.fn
	if fn == "" {
		next, ok := g.chain.router.Next(rq.topic, "")
		if !ok || len(next) == 0 {
			return ErrNoHead
		}
		fn = next[0]
	}
	err := g.dispatchTo(fn, d, stripe)
	if err == nil || !errors.Is(err, ErrNoInstance) || g.admission.ParkCapacity <= 0 {
		return err
	}
	if rq.lent {
		return g.park(ctx, fn, d)
	}
	go g.parkDetached(fn, d)
	return nil
}

// dispatchTo picks a routable instance of fn and sends d to it, on stripe.
func (g *Gateway) dispatchTo(fn string, d shm.Descriptor, stripe uint32) error {
	inst, err := g.chain.router.PickInstance(fn)
	if err != nil {
		return err
	}
	d.NextFn = inst.ID()
	_, err = g.chain.sendOrClaim(GatewayID, "gateway", fn, d, sender{stripe: stripe})
	return err
}

// park parks one admitted request whose first function is at zero replicas,
// kicks the control plane, and re-attempts dispatch on every capacity wakeup
// until success, timeout, or cancellation. The caller owns d's buffer on
// error. The park wait is deadline-aware: it never outlives the request's own
// context deadline, and a shed parked request is an explicit ShedParkTimeout —
// not a deadline blackhole.
func (g *Gateway) park(ctx context.Context, fn string, d shm.Descriptor) error {
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
		err := g.dispatchTo(fn, d, 0) // woken on some other goroutine, long after its stripe meant anything
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

// parkDetached is the one goroutine a request may get of its own: it parks a
// request whose door lent no goroutine, within the chain Deadline. It owns
// d's buffer until the dispatch succeeds; the request's entry, if it has one,
// it settles like anyone else, by taking it.
func (g *Gateway) parkDetached(fn string, d shm.Descriptor) {
	ctx := context.Background()
	if dl := g.chain.deadline; dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}
	if err := g.park(ctx, fn, d); err != nil {
		g.chain.releaseBuffer(d.Buf)
		if w, ok := g.pending.take(d.Caller); ok {
			g.settle(w, nil, err)
		}
	}
}

// invoke drives one request through the chain and returns its response:
// in dst when into is set (InvokeInto), in a slice of exactly the response's
// length otherwise. Either way whoever completed the request wrote it there.
func (g *Gateway) invoke(ctx context.Context, topic string, payload, dst []byte, into bool) ([]byte, error) {
	w := g.newWaiter()
	w.dst, w.into, w.start = dst, into, time.Now()
	rq := request{topic: topic, payload: payload, tc: TraceContextFrom(ctx), lent: true}
	if dl := g.chain.deadline; dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}
	if err := g.start(ctx, &rq, w); err != nil {
		g.retire(w, err)
		return nil, err
	}
	caller, start, tr, sampled := w.caller, w.start, w.tr, w.sampled
	res, err := g.await(ctx, w) // the zero result, if ctx gave up first
	el := time.Since(start)
	if err == nil {
		g.lat.Observe(uint64(caller), el.Seconds())
		err = res.err
	}
	if tr != nil {
		tr.FinishRequest(caller, sampled, err, start, el)
	}
	return res.body, err
}

// await parks a dispatched request's caller until its one outcome arrives
// on w.ch — a response, a terminal dataplane failure or Gateway.Close, sent
// by whoever took the pending entry — or until ctx gives up first, in which
// case the pending entry is withdrawn and ctx's error returned. A context
// that cannot be cancelled makes the wait a plain channel receive.
func (g *Gateway) await(ctx context.Context, w *waiter) (gwResult, error) {
	if done := ctx.Done(); done != nil {
		select {
		case res := <-w.ch:
			g.putWaiter(w)
			return res, nil
		case <-done:
			g.recycleWaiter(w)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				g.chain.failures.deadlines.Add(1)
			}
			return gwResult{}, ctx.Err()
		}
	}
	res := <-w.ch
	g.putWaiter(w)
	return res, nil
}

// recycleWaiter abandons a local request. If its entry was still registered
// nobody else can reach w. Otherwise a completion has taken the entry, and a
// completion that has taken an entry always sends exactly once — possibly
// after writing the response into w.dst, which the caller must not get back
// while that write is in progress. So wait for the outcome, discard it (the
// request is already being reported as abandoned), and only then recycle.
func (g *Gateway) recycleWaiter(w *waiter) {
	if _, ok := g.pending.take(w.caller); !ok {
		<-w.ch
	}
	g.putWaiter(w)
}

// Invoke synchronously processes one request through the chain and returns
// the response payload. When the chain declares a Deadline, it bounds the
// invocation even if the caller's context is unbounded: a hung or crashed
// chain fails the request instead of pinning the caller (and its buffer
// is reclaimed when the late response surfaces).
func (g *Gateway) Invoke(ctx context.Context, topic string, payload []byte) ([]byte, error) {
	return g.invoke(ctx, topic, payload, nil, false)
}

// InvokeInto is the allocation-free variant of Invoke: the response payload
// is copied into dst and its length returned. If dst is too small the
// response is discarded and ErrShortBuffer returned. Callers that reuse dst
// across requests observe zero per-invocation heap allocation in steady
// state. dst belongs to the gateway until InvokeInto returns, whatever the
// outcome.
func (g *Gateway) InvokeInto(ctx context.Context, topic string, payload, dst []byte) (int, error) {
	body, err := g.invoke(ctx, topic, payload, dst, true)
	return len(body), err
}

// InvokeAsync fires an event into the chain with no response expected
// (the IoT pattern of §4.2.2). It parks, if it must, on the caller's
// goroutine.
func (g *Gateway) InvokeAsync(topic string, payload []byte) error {
	return g.start(context.Background(), &request{topic: topic, payload: payload, lent: true}, nil)
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
// It runs on the mesh's receive loop and never blocks it: admission and the
// dispatch are synchronous, and nothing waits for the reply — the request's
// pending entry carries origin and r, and whoever takes the entry answers
// the peer through r (see Responder). Only a request that must park on a
// zero-replica function gets a goroutine. An error return means no entry is
// left and r was not called: the caller answers the peer itself.
//
// A nil r marks a fire-and-forget request (origin is then unused): it has no
// entry, and an error return only says it was dropped.
func (g *Gateway) InvokeRemote(fn, topic string, payload, obj []byte, tc shm.TraceContext, origin RemoteOrigin, r Responder) error {
	rq := request{topic: topic, payload: payload, fn: fn, obj: obj, tc: tc}
	if r == nil {
		return g.start(context.Background(), &rq, nil)
	}
	w := g.newWaiter()
	w.responder, w.origin, w.start = r, origin, time.Now()
	err := g.start(context.Background(), &rq, w)
	if err != nil {
		g.retire(w, err) // InvokeRemote's caller answers the peer
	}
	return err
}

// CompleteRemote finishes a pending request with a response (or transport
// failure) that arrived from a peer node: the cross-node analogue of the
// response descriptor returning to the gateway socket. The payload goes
// from the wire straight to where the request's caller wants it, before
// CompleteRemote returns. false means no waiter was registered for caller
// (late, duplicate, or already-failed request).
func (g *Gateway) CompleteRemote(caller uint32, payload []byte, err error) bool {
	w, ok := g.pending.take(caller)
	if !ok {
		g.chain.noteError("gateway", fmt.Errorf("%w: remote %d", ErrNoWaiter, caller))
		return false
	}
	if err != nil {
		g.failed.Add(1)
		g.settle(w, nil, err)
		return true
	}
	body := payload // a Responder relays it as it is
	if w.responder == nil {
		if body, err = w.dest(len(payload)); err == nil {
			copy(body, payload)
		}
	}
	g.stripes[w.stripe].completed.Add(1)
	g.settle(w, body, err)
	return true
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

// readBody reads one request body. A declared Content-Length of at most one
// pool buffer is read into a pooled buffer of exactly that size — no
// doubling, no per-request allocation; the caller returns pooled to bodyPool
// when it is done with body. Any other body is read into a buffer that grows
// as its bytes arrive, so a client that declares 64 MiB and sends ten bytes
// costs ten, and is not pooled. MaxBytesReader enforces the admission size
// cap while the body arrives: an oversized request is refused after at most
// limit+1 buffered bytes — never heap-buffered whole just to be rejected by
// admitLarge. A body shorter than its declared length is an error.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) (body []byte, pooled *[]byte, err error) {
	n := r.ContentLength
	if n >= 0 && n <= int64(g.chain.pool.BufSize()) {
		pooled, _ = g.bodyPool.Get().(*[]byte)
		if pooled == nil {
			pooled = new([]byte)
		}
		if int64(cap(*pooled)) < n {
			*pooled = make([]byte, n)
		}
		body = (*pooled)[:n]
		if _, err = io.ReadFull(r.Body, body); err != nil {
			g.bodyPool.Put(pooled)
			return nil, nil, err
		}
		return body, pooled, nil
	}
	if limit := g.bodyLimit(); limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	var src io.Reader = r.Body
	if n >= 0 {
		src = io.LimitReader(src, n)
	}
	body, err = io.ReadAll(src)
	if err == nil && int64(len(body)) < n {
		err = io.ErrUnexpectedEOF
	}
	return body, nil, err
}

// ServeHTTP exposes the chain over real HTTP (net/http): the external
// interface of the SPRIGHT gateway. The message topic is taken from the
// X-Topic header, defaulting to the URL path.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, pooled, err := g.readBody(w, r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			g.shed(&g.shedPayloadTooLarge, ShedPayloadTooLarge, "")
			http.Error(w, fmt.Sprintf("%v: body exceeds %d bytes", shm.ErrPayloadTooLarge, mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if pooled != nil {
		// Admission copies the body into the shm pool, so the buffer is
		// free again as soon as Invoke has returned.
		defer g.bodyPool.Put(pooled)
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

// GatewayStats is the one snapshot of a chain's counters and gauges: the
// gateway's admission and completion counts and the chain's
// failure-recovery activity. Its distributions are read through Latency
// and ColdStartLatency.
type GatewayStats struct {
	Admitted  uint64
	Rejected  uint64
	Completed uint64
	// Failed counts requests terminated with a dataplane error (handler
	// panic/error, exhausted retries, dead instance) instead of a reply.
	Failed uint64
	// Pending is the number of requests currently awaiting a response.
	Pending int
	// Crashes is the number of handler panics absorbed by isolation.
	Crashes uint64
	// Retries is the number of descriptor re-sends on transient errors;
	// RetriesExhausted the sends that failed after every attempt.
	Retries          uint64
	RetriesExhausted uint64
	// CircuitOpens counts instance breaker closed→open transitions.
	CircuitOpens uint64
	// Reclaimed counts orphaned shared-memory buffers recovered from
	// abandoned requests and dead instances' queues.
	Reclaimed uint64
	// DeadlinesExceeded counts invocations failed by the chain deadline.
	DeadlinesExceeded uint64
	// TerminalFailures counts requests completed with a terminal error.
	TerminalFailures uint64
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
	// ScrapeRate is the packet rate measured by the metrics agent's most
	// recent scrape (0 until the first tick, or when the agent is off).
	ScrapeRate float64
}

// Stats returns a snapshot of the gateway's counters and the chain's. It
// allocates nothing, so a control loop can poll it every tick.
func (g *Gateway) Stats() GatewayStats {
	f := &g.chain.failures
	s := GatewayStats{
		Rejected:            g.rejected.Load(),
		Failed:              g.failed.Load(),
		Pending:             g.pending.registered(),
		Crashes:             f.crashes.Load(),
		Retries:             f.retries.Load(),
		RetriesExhausted:    f.retriesExhausted.Load(),
		CircuitOpens:        f.circuitOpens.Load(),
		Reclaimed:           f.reclaimed.Load(),
		DeadlinesExceeded:   f.deadlines.Load(),
		TerminalFailures:    f.terminal.Load(),
		FaultsInjected:      f.injected.Load(),
		ShedOverload:        g.shedOverload.Load(),
		ShedParkFull:        g.shedParkFull.Load(),
		ShedParkTimeout:     g.shedParkTimeout.Load(),
		ShedPoolExhausted:   g.shedPoolExhausted.Load(),
		ShedPayloadTooLarge: g.shedPayloadTooLarge.Load(),
		Parked:              g.parks.parked(),
		ParkedTotal:         g.parkedTotal.Load(),
		Resumed:             g.resumed.Load(),
		ScrapeRate:          math.Float64frombits(g.lastRate.Load()),
	}
	for i := range g.stripes {
		s.Admitted += g.stripes[i].admitted.Load()
		s.Completed += g.stripes[i].completed.Load()
	}
	return s
}

// Latency returns a merged copy of the gateway's striped latency histogram.
func (g *Gateway) Latency() *metrics.Histogram {
	return g.lat.Snapshot()
}

// EProxy returns the gateway's EPROXY (nil in polling mode).
func (g *Gateway) EProxy() *EProxy { return g.eprox }

// Close stops the gateway. Closing the reply socket waits for every
// completion already running on a delivering goroutine and turns later
// replies away (their senders release the buffer). Every request still
// pending then completes with ErrGatewayClosed — Close takes each entry
// exactly as a completion would, so a request gets one outcome, never two
// and never none. Last, Close waits for the metrics agent and releases the
// EPROXY's eBPF state; a concurrent second Close returns when the first has.
func (g *Gateway) Close() {
	g.once.Do(func() {
		close(g.stop)
		g.sock.Close()
		for _, w := range g.pending.takeAll() {
			g.settle(w, nil, ErrGatewayClosed)
		}
		g.wg.Wait()
		if g.eprox != nil {
			g.eprox.Close()
		}
	})
}

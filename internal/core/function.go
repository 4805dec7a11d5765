package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
)

// ErrObjectsDisabled marks object-tier use on a chain whose spec disabled
// the store (ObjectPolicy.Disable).
var ErrObjectsDisabled = errors.New("core: object store disabled for this chain")

// NoReply is the Caller sentinel for fire-and-forget events (asynchronous
// IoT-style invocations with no response expected).
const NoReply uint32 = 0xFFFFFFFF

// GatewayID is the reserved instance ID of the chain's SPRIGHT gateway.
const GatewayID uint32 = 0

// Handler is a user function. It runs to completion per invocation (the
// §3.8 programming model: purely event-driven, asynchronous). The handler
// reads and mutates the message payload in place through Ctx — zero-copy —
// and may override the default next hop with Ctx.ForwardTo or terminate
// the flow early with Ctx.Reply.
//
// Run to completion is load-bearing: a handler may be run by the worker that
// forwarded the message to it, one handler after another down the chain, so a
// handler that waits for another message of its own chain to be handled may
// be waiting for the goroutine it is running on. Anything else it may block
// on; it then holds one concurrency slot of its instance, as ever.
type Handler func(ctx *Ctx) error

// ctxPool recycles invocation contexts: a worker takes one per request and
// every handler the request runs on that worker is handed it, re-armed (work).
// A Ctx is only valid for the duration of its handler call and must not be
// retained after the handler returns. The pool is also where a request gets
// its stripe (ebpf.Stripes): each Ctx is dealt one when it is first made and
// keeps it, and a sync.Pool hands a P its own object back in practice, so the
// requests a core runs write that core's lines.
var ctxPool = sync.Pool{New: func() any { return &Ctx{stripe: ebpf.NextStripe()} }}

// Ctx is one invocation's view of the message and the chain.
type Ctx struct {
	inst *Instance
	desc shm.Descriptor

	// Topic is the message topic used for DFR routing.
	Topic string

	// inTopic is the topic the message arrived with: forward republishes
	// Topic to the buffer only when the handler changed it.
	inTopic string

	// fwd is the ForwardTo override, backed by fwdInline up to its capacity
	// so the usual one-to-few destinations cost no allocation.
	fwd       []string
	fwdInline [4]string
	replied   bool
	dropped   bool

	// stripe is the one this Ctx was dealt (ctxPool): where the request's
	// program runs count and whose slots its claims try first.
	stripe uint32
}

// Payload returns the message payload: a zero-copy view into the chain's
// shared-memory pool. Mutations are visible downstream without copying.
func (c *Ctx) Payload() []byte {
	b, err := c.inst.chain.pool.Payload(c.desc.Buf)
	if err != nil {
		return nil
	}
	return b
}

// SetPayload replaces the payload in place (bounded by the pool's buffer
// size). This is the idiomatic way for a function to emit a new message
// body without allocating.
func (c *Ctx) SetPayload(b []byte) error {
	if _, err := c.inst.chain.pool.Write(c.desc.Buf, b); err != nil {
		return err
	}
	c.desc.Len = uint32(len(b))
	return nil
}

// SetTopic rewrites the topic used for the next routing decision.
func (c *Ctx) SetTopic(topic string) { c.Topic = topic }

// Caller returns the request's caller ID (for the asynchronous
// request/response decomposition of §3.8).
func (c *Ctx) Caller() uint32 { return c.desc.Caller }

// Instance returns the executing instance's ID (useful for tests that
// fault a specific replica).
func (c *Ctx) Instance() uint32 { return c.inst.id }

// FunctionName returns the executing function's name.
func (c *Ctx) FunctionName() string { return c.inst.fnName }

// TraceContext returns the invocation's trace context (zero value when the
// request is unsampled). During the handler the header's span is the
// handler's own span, so a downstream chain invoked with
// WithTraceContext(ctx, c.TraceContext()) parents its spans correctly.
func (c *Ctx) TraceContext() shm.TraceContext {
	return c.inst.chain.pool.TraceContext(c.desc.Buf)
}

// Objects returns the chain's ephemeral object store (nil when the spec
// disabled it) — the tier for intermediates that exceed one pool buffer or
// must be read by many consumers without copying.
func (c *Ctx) Objects() *objstore.Store { return c.inst.chain.store }

// PutObject stores data as one multi-slab object ("" = anonymous key) and
// returns its handle, with one reference owned by the caller. Attach the
// handle to the message (AttachObject) to hand that reference to the
// request's lifetime, or release it explicitly.
func (c *Ctx) PutObject(key string, data []byte) (objstore.Handle, error) {
	st := c.inst.chain.store
	if st == nil {
		return 0, ErrObjectsDisabled
	}
	return st.Put(key, data)
}

// CreateObject starts a chunked object write (io.Writer) for payloads the
// handler produces incrementally. Commit returns the handle; Abort
// discards the staged slabs.
func (c *Ctx) CreateObject(key string) (*objstore.Writer, error) {
	st := c.inst.chain.store
	if st == nil {
		return nil, ErrObjectsDisabled
	}
	return st.Create(key), nil
}

// AttachObject rides h on the message: the handle travels in the buffer's
// descriptor-adjacent headroom across every hop and fan-out branch, and
// the caller's reference MOVES to the buffer — when the request's buffer
// dies, the reference is released, so a forgotten object surfaces in
// LeakCheck instead of lingering. A previously attached handle is
// displaced and its reference released.
//
// Contrast with Store.Attach, which BORROWS: it takes a fresh reference
// for the buffer and leaves the caller's reference untouched. AttachObject
// is implemented as that borrow followed by releasing the caller's
// reference, so the two APIs differ only in who keeps a reference — never
// in how many exist.
func (c *Ctx) AttachObject(h objstore.Handle) error {
	st := c.inst.chain.store
	if st == nil {
		return ErrObjectsDisabled
	}
	if err := st.Attach(c.desc.Buf, h); err != nil {
		return err
	}
	return st.Release(h)
}

// ObjectHandle returns the handle riding the message (0 when none).
func (c *Ctx) ObjectHandle() objstore.Handle {
	return objstore.Handle(c.inst.chain.pool.ObjHandle(c.desc.Buf))
}

// OpenObject opens the message's attached object for zero-copy reading.
// Fan-out consumers all receive the same handle on their shared buffer, so
// N branches read one set of shared-memory pages. The returned reader must
// be Closed before the handler returns.
func (c *Ctx) OpenObject() (*objstore.Object, error) {
	st := c.inst.chain.store
	if st == nil {
		return nil, ErrObjectsDisabled
	}
	return st.Open(objstore.Handle(c.inst.chain.pool.ObjHandle(c.desc.Buf)))
}

// DetachObject removes the message's attached handle and releases the
// reference the buffer carried (e.g. a head function that consumed the
// request object and replies with a small payload).
func (c *Ctx) DetachObject() {
	st := c.inst.chain.store
	if st == nil {
		return
	}
	st.Detach(c.desc.Buf)
}

// ReplyObject terminates the flow replying with object h instead of the
// in-buffer payload: the handle is attached (transferring the caller's
// reference), the buffer payload is cleared, the buffer's carrier bit is
// set so the gateway assembles the external response from the object —
// the >BufSize response path. Without the carrier bit, a handler that
// replies with an explicitly empty payload while an object is still
// attached returns an empty body, not the object.
func (c *Ctx) ReplyObject(h objstore.Handle) error {
	if err := c.AttachObject(h); err != nil {
		return err
	}
	if err := c.SetPayload(nil); err != nil {
		return err
	}
	c.inst.chain.pool.SetObjCarrier(c.desc.Buf, true)
	c.Reply()
	return nil
}

// ObjectIsPayload reports whether the message's attached object IS the
// message body (the carrier bit): set when admission spilled a >BufSize
// request into the object tier or when a handler called ReplyObject, and
// cleared by any in-buffer payload write. Cross-node forwarding uses it to
// decide whether the object travels as the frame payload or as an
// auxiliary attachment.
func (c *Ctx) ObjectIsPayload() bool {
	return c.inst.chain.pool.ObjCarrier(c.desc.Buf)
}

// ForwardTo overrides DFR's routing table for this invocation and sends
// the message to the named function(s) when the handler returns. The names
// are copied: the caller may reuse or mutate its slice afterwards.
func (c *Ctx) ForwardTo(fns ...string) { c.fwd = append(c.fwdInline[:0], fns...) }

// Reply terminates the flow here: the descriptor returns to the caller
// when the handler returns, bypassing any further routing.
func (c *Ctx) Reply() { c.replied = true }

// Drop discards the message (the buffer reference is released).
func (c *Ctx) Drop() { c.dropped = true }

// slotStripe is one stripe (ebpf.Stripes) of the words an instance has written
// on every hop through it, a cache line to itself: a sub-budget of the
// instance's concurrency slots and the count of hops that claimed one. A hop
// writes the line of the stripe its slot came from and no other line of the
// instance, so two cores crossing one instance on two stripes share nothing
// they write.
type slotStripe struct {
	// free is the slots of this stripe's sub-budget nobody holds. A slot is
	// taken by decrementing it while it is positive and goes back to the
	// stripe it came from (release), so a sub-budget only changes size in
	// setSlots, and the stripes' free slots plus the slots held always sum to
	// the bound. It dips below zero only for the moment between a taker's
	// decrement that came second and its undo.
	free      atomic.Int32
	delivered atomic.Uint64 // hops that arrived by claiming one (Chain.sendOrClaim)
	_         [6]uint64
}

// grant is a concurrency slot held for a handler about to run: the instance,
// and the stripe whose sub-budget the slot came from and goes back to.
type grant struct {
	inst *Instance
	slot uint32
}

// Instance is one running pod of a function: a socket, a persistent worker
// pool and a concurrency limit.
//
// Every handler execution holds one of the instance's concurrency slots. Two
// kinds of goroutine hold them: the instance's own workers, for descriptors
// queued on its socket (a channel, or in ModePolling a ring), and the workers of
// other instances that forwarded a message here, claimed a slot and are running
// the handler themselves (Chain.sendOrClaim).
// Together they never exceed Concurrency. A worker that dequeues a descriptor
// while claimed slots fill the bound parks until one is released.
//
// The layout is part of the design and TestStripeLayout holds it, on the
// addresses the allocator actually gives: the stripes come first, each 64
// bytes with its words in the first 16, so wherever within a line the
// allocation starts (Go puts an 8-byte header before an object this large) no
// two stripes' words share a line; and everything a hop reads and does not
// write — the bound, stopping, the handler, the socket, the breaker's words —
// follows them, on lines no hop writes.
type Instance struct {
	stripes [ebpf.Stripes]slotStripe

	chain  *Chain
	fnName string
	id     uint32
	sock   *Socket

	handler     Handler
	serviceTime time.Duration // optional simulated CPU service time

	// concurrency is the slot bound and the worker-pool size, fixed when the
	// instance is made (setSlots): capacity changes by adding and removing
	// instances. stopping is set once by shutdown; no slot is granted
	// afterwards, and a worker that receives a descriptor reclaims it instead
	// of running the handler.
	concurrency int32
	stopping    atomic.Bool

	// Who waits for a release: workers parked on a full instance, and
	// shutdown waiting for the last handler. release looks at slotWaiters, on
	// this line that no hop writes, and nothing else while it is zero. Only
	// sync/atomic's functions touch it: they keep release inlinable.
	slotWaiters int32

	health health

	slotMu    sync.Mutex
	slotFreed sync.Cond // L is &slotMu

	wg sync.WaitGroup
}

// ID returns the instance ID (its sockmap key).
func (in *Instance) ID() uint32 { return in.id }

// Function returns the function name this instance runs.
func (in *Instance) Function() string { return in.fnName }

// Inflight returns the number of requests currently being processed: the
// slots held, which is the bound less the free slots of every stripe — exact
// whenever no claim or release is under way. A claim that lost a stripe's last
// slot holds it at -1 until its undo, which would count one slot too many, so
// the count is clamped to the bound.
func (in *Instance) Inflight() int {
	n := int(in.concurrency)
	for i := range in.stripes {
		n -= int(in.stripes[i].free.Load())
	}
	return min(max(n, 0), int(in.concurrency))
}

// QueueDepth returns the number of descriptors waiting for one of this
// instance's workers in its socket's queue.
func (in *Instance) QueueDepth() int { return in.sock.QueueLen() }

// SocketStats reports the instance socket's delivered/dropped descriptor
// counters (the per-socket signal the observability exporter renders).
func (in *Instance) SocketStats() (delivered, dropped uint64) {
	return in.sock.Stats()
}

// QueuedHops returns how many function → function hops were queued on this
// instance's socket because the sending worker could not run the handler
// itself: the instance was at its concurrency bound, stopping or had queued
// work, or the sender had a backlog of its own. Its
// share of SocketStats' delivered is the share of hops that paid a queue
// crossing: a goroutine wake, or a ring enqueue and dequeue.
func (in *Instance) QueuedHops() uint64 { return in.sock.queuedHops.Load() }

// ResidualCapacity is MC_i − r_i,t with capacity measured in concurrency
// slots: the maximum service capacity is the configured concurrency and
// the current rate is the instantaneous in-flight count, both observable
// by the event-driven proxy.
func (in *Instance) ResidualCapacity() int {
	return int(in.concurrency) - in.Inflight()
}

// start launches the instance's run loop: a pool of `concurrency`
// persistent worker goroutines consuming the socket directly (the pod's
// concurrency setting in §4.1). Compared to a dispatcher spawning one
// goroutine per message, the persistent pool removes a goroutine creation,
// a semaphore handoff and a closure allocation from every delivery.
func (in *Instance) start() {
	in.wg.Add(int(in.concurrency))
	for i := int32(0); i < in.concurrency; i++ {
		go in.work()
	}
}

// work is one worker, and the only loop that runs handlers. It waits in the
// socket's receive (Socket.next) — in ModeEvent a plain channel receive, so the
// wake is one channel handoff and no select; in ModePolling spinning on the
// instance's ring, or parked while another worker of the instance does —
// takes a slot for each descriptor and runs the handler. Then it follows the
// request: while a hop hands back the next instance with a slot already
// claimed (handle), the worker runs that handler too, iteratively, so a chain
// of any length — or a routing cycle — costs no wake or ring crossing per hop
// and no stack.
// It comes home when the request replies, fans out, leaves the node, fails, or
// meets an instance that would not grant a slot, and runs until the socket
// closes.
//
// The request's Ctx is taken here, once, and with it the stripe everything the
// request writes per hop hangs on — no pool round trip per hop and none for the
// stripe.
func (in *Instance) work() {
	defer in.wg.Done()
	for {
		d, ok := in.sock.next()
		if !ok {
			return
		}
		ctx := ctxPool.Get().(*Ctx)
		if slot, ok := in.acquire(ctx.stripe); ok {
			for at := (grant{in, slot}); at.inst != nil; {
				at, d = at.inst.handle(ctx, d, at.slot, in.sock)
			}
		} else {
			// Queued before shutdown closed the socket: the handler must
			// not run any more, but the buffer and the caller must not be
			// stranded either.
			in.chain.reclaimOrphan(d, in.fnName)
		}
		ctxPool.Put(ctx)
	}
}

// claim takes one concurrency slot if the instance has one free and is not
// stopping, and says which stripe's sub-budget it came from: stripe's own
// (claimOwn), else the first stripe after it that has one (claimNext). A
// refused claim has been undone. The slot is taken first and stopping checked
// second — the order Socket.deliver uses for senders and closed — so shutdown
// either sees this slot out or is seen by it.
func (in *Instance) claim(stripe uint32) (uint32, bool) {
	slot, took, ok := in.claimOwn(stripe)
	if !ok {
		slot, ok = in.claimNext(slot, took)
	}
	return slot, ok
}

// claimOwn is claim's first step, inlined into a hop: a slot of stripe's own
// sub-budget, read before it is written, so a stripe with nothing to give is
// never seen short of a slot. When it refuses, claimNext must follow, with the
// slot it named and whether it took one (took) to give back.
func (in *Instance) claimOwn(stripe uint32) (slot uint32, took, ok bool) {
	slot = stripe % ebpf.Stripes
	if st := &in.stripes[slot]; st.free.Load() > 0 {
		return slot, true, st.free.Add(-1) >= 0 && !in.stopping.Load()
	}
	return slot, false, false
}

// claimNext is claim's second step. It gives back what claimOwn took from own,
// if it took (a slot released while that decrement stood looked taken, so the
// undo wakes as a release would), then, unless the instance is stopping, tries
// the other stripes. Each is read before it is written, so one with nothing to give
// costs a load of a line its owners are not writing either.
func (in *Instance) claimNext(own uint32, took bool) (uint32, bool) {
	if took {
		in.release(own)
	}
	for i := uint32(1); i < ebpf.Stripes && !in.stopping.Load(); i++ {
		slot := (own + i) % ebpf.Stripes
		if st := &in.stripes[slot]; st.free.Load() > 0 {
			if st.free.Add(-1) >= 0 && !in.stopping.Load() {
				return slot, true
			}
			in.release(slot)
		}
	}
	return 0, false
}

// release gives a slot back to the stripe it was taken from and wakes whoever
// waits for one; inlined into a hop, with the wake out of line.
func (in *Instance) release(slot uint32) {
	if in.stripes[slot].free.Add(1); atomic.LoadInt32(&in.slotWaiters) != 0 {
		in.wakeSlotWaiters()
	}
}

func (in *Instance) wakeSlotWaiters() {
	in.slotMu.Lock()
	in.slotFreed.Broadcast()
	in.slotMu.Unlock()
}

// parkWhile blocks while busy holds, looking again after every release. No
// release is missed: the waiter is counted before busy reads the stripes, and
// release gives its slot back before it reads the count.
func (in *Instance) parkWhile(busy func() bool) {
	in.slotMu.Lock()
	atomic.AddInt32(&in.slotWaiters, 1)
	for busy() {
		in.slotFreed.Wait()
	}
	atomic.AddInt32(&in.slotWaiters, -1)
	in.slotMu.Unlock()
}

// acquire takes a slot for a descriptor one of the instance's own workers
// dequeued, parking while claimed slots fill the bound — while no stripe has a
// free one. false means the instance is stopping and no handler may start.
func (in *Instance) acquire(stripe uint32) (slot uint32, ok bool) {
	for {
		if slot, ok = in.claim(stripe); ok {
			return slot, true
		}
		if in.stopping.Load() {
			return 0, false
		}
		in.parkWhile(func() bool {
			for i := range in.stripes {
				if in.stripes[i].free.Load() > 0 {
					return false
				}
			}
			return !in.stopping.Load()
		})
	}
}

// setSlots sets the slot bound of an instance not yet started to n, dealing the
// slots to the stripes round-robin, so its sub-budgets differ by at most one.
func (in *Instance) setSlots(n int) {
	for at := 0; at < n; at++ {
		in.stripes[at%ebpf.Stripes].free.Add(1)
	}
	in.concurrency = int32(n)
}

// shutdown stops the instance: the socket closes — its queue reclaims every
// descriptor still queued at once, before any wedged handler returns, and lets
// every waiting worker go — and in-flight invocations finish: the workers' and,
// after them, those other instances' workers are running in claimed slots.
// When it returns no handler of this instance is running anywhere.
func (in *Instance) shutdown() {
	in.stopping.Store(true)
	in.sock.Close()
	in.wg.Wait()
	in.parkWhile(func() bool { return in.Inflight() != 0 })
}

// ErrHandlerPanic marks a handler panic absorbed by panic isolation.
var ErrHandlerPanic = errors.New("core: handler panicked")

// handle executes the user handler in a slot the calling worker already
// holds — one of in's own workers after acquire, or another instance's after
// a claim; slot is the stripe it came from — on the worker's Ctx, re-armed for
// this hop, and then performs the default DFR action: forward to the routing
// table's next hop, or return the descriptor to the caller when the chain
// ends here. Handler failures — errors and panics alike — release the
// descriptor's buffer, feed the instance's health state, and fail the caller
// terminally instead of blackholing the request.
//
// home is the calling worker's own socket. When the outcome is a hop to one
// function whose instance grants that worker a slot, handle returns that
// grant and the descriptor for it, and the worker's loop runs it next;
// otherwise the request has left this goroutine and handle returns no grant.
func (in *Instance) handle(ctx *Ctx, d shm.Descriptor, slot uint32, home *Socket) (grant, shm.Descriptor) {
	topic := in.chain.pool.Topic(d.Buf)
	*ctx = Ctx{inst: in, desc: d, Topic: topic, inTopic: topic, stripe: ctx.stripe}
	// Trace gate: one atomic flags load on the buffer header. Unsampled
	// requests skip every timestamp — the hot path must not pay two
	// time.Now() calls per hop.
	tr := in.chain.Tracer()
	var hopStart time.Time
	var parent, hsID uint64
	traced := false
	if tr != nil && in.chain.pool.TraceSampled(d.Buf) {
		traced = true
		parent = in.chain.pool.TraceContext(d.Buf).Span
		hopStart = time.Now()
		if ns := in.chain.pool.TraceStamp(d.Buf); ns > 0 {
			// Socket-queue residency: last send/dequeue stamp → worker pickup.
			tr.RecordSpan(d.Caller, Span{
				Parent: parent, Stage: StageQueueWait, Function: in.fnName,
				Instance: in.id, Start: time.Unix(0, ns), End: hopStart,
			})
		}
		// Pre-assign the handler span's ID and install it in the buffer
		// header, so downstream hops — and cross-chain calls the handler
		// makes through Ctx.TraceContext — parent onto this handler span.
		hsID = tr.NextSpanID()
		in.chain.pool.SetTraceSpan(d.Buf, hsID)
	}
	if in.serviceTime > 0 {
		time.Sleep(in.serviceTime)
	}
	err, panicked := in.invoke(ctx)
	// The invocation is over (invoke absorbs panics). It is counted out
	// before its outcome is routed: delivering a reply or a failure to the
	// gateway completes the request on this goroutine, and the woken caller's
	// next request must not find this instance still charged for the last.
	in.release(slot)
	if traced {
		s := Span{
			ID: hsID, Parent: parent, Stage: StageHandler, Function: in.fnName,
			Instance: in.id, Start: hopStart, End: time.Now(),
		}
		if err != nil {
			s.Err = err.Error()
		}
		tr.RecordSpan(d.Caller, s)
	}
	if err != nil {
		in.recordFailure(panicked)
		in.chain.releaseBuffer(ctx.desc.Buf)
		in.chain.noteError(in.fnName, err)
		in.chain.notifyFailure(d.Caller, err)
		return grant{}, d
	}
	in.recordSuccess()

	switch {
	case ctx.dropped:
		in.chain.releaseBuffer(ctx.desc.Buf)
	case ctx.replied:
		in.reply(ctx)
	case len(ctx.fwd) > 0:
		return in.forward(ctx, ctx.fwd, home)
	default:
		if next, ok := in.chain.router.Next(ctx.Topic, in.fnName); ok {
			return in.forward(ctx, next, home)
		}
		in.reply(ctx)
	}
	return grant{}, d
}

// invoke runs fault injection and the user handler under panic isolation:
// a panicking handler must never kill the instance's worker goroutine or
// strand the descriptor. The recovered panic is converted into an error
// so every failure flows through one cleanup path in handle.
func (in *Instance) invoke(ctx *Ctx) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			in.chain.failures.crashes.Add(1)
			err = fmt.Errorf("%w: %s: %v", ErrHandlerPanic, in.fnName, r)
		}
	}()
	if dec, ok := in.chain.injector.Decide(in.fnName); ok {
		in.chain.failures.injected.Add(1)
		switch dec.Op {
		case fault.OpPanic:
			panic("injected panic")
		case fault.OpError:
			return fault.ErrInjected, false
		case fault.OpDrop:
			ctx.dropped = true
			return nil, false
		case fault.OpDelay:
			time.Sleep(dec.Delay)
		}
	}
	if in.handler != nil {
		err = in.handler(ctx)
	}
	return err, false
}

// forward performs DFR delivery to each next-hop function, taking an extra
// buffer reference per additional destination (pub/sub fan-out). Every
// taken reference is balanced on every failure path, and a request none of
// whose deliveries succeeded fails its caller terminally. A hop to a single
// function may end in a claim instead of a delivery (Chain.sendOrClaim): the
// grant and its descriptor are returned for the calling worker, whose socket
// is home, to run. A fan-out always queues, so its branches run in parallel.
func (in *Instance) forward(ctx *Ctx, next []string, home *Socket) (grant, shm.Descriptor) {
	d := ctx.desc
	refs := 1 // the reference this instance owns; fan-out takes one more per extra destination
	for i := 1; i < len(next); i++ {
		if err := in.chain.pool.Ref(d.Buf); err != nil {
			for ; refs > 0; refs-- {
				in.chain.releaseBuffer(d.Buf)
			}
			in.chain.noteError(in.fnName, err)
			in.chain.notifyFailure(d.Caller, err)
			return grant{}, d
		}
		refs++
	}
	if ctx.Topic != ctx.inTopic {
		in.chain.pool.SetTopic(d.Buf, ctx.Topic)
	}

	if len(next) == 1 {
		// Single next hop — the common chain topology.
		fn := next[0]
		target, err := in.chain.router.sole(fn), error(nil)
		if target == nil {
			target, err = in.chain.router.PickInstance(fn)
		}
		if err == nil {
			d.NextFn = target.ID()
			var claimed grant
			if claimed, err = in.chain.sendOrClaim(in.id, in.fnName, fn, d, sender{stripe: ctx.stripe, home: home}); err == nil {
				return claimed, d
			}
			err = fmt.Errorf("forward to %s: %w", fn, err)
		}
		in.chain.releaseBuffer(d.Buf)
		in.chain.noteError(in.fnName, err)
		in.chain.notifyFailure(d.Caller, err)
		return grant{}, d
	}

	// Fan-out: each branch is one more send, with no home socket to claim
	// from, so every branch queues and they run in parallel.
	delivered := 0
	var lastErr error
	for _, fn := range next {
		target, err := in.chain.router.PickInstance(fn)
		if err == nil {
			nd := d
			nd.NextFn = target.ID()
			if _, err = in.chain.sendOrClaim(in.id, in.fnName, fn, nd, sender{stripe: ctx.stripe}); err == nil {
				delivered++
				continue
			}
			err = fmt.Errorf("forward to %s: %w", fn, err)
		}
		in.chain.releaseBuffer(d.Buf)
		in.chain.noteError(in.fnName, err)
		lastErr = err
	}
	if delivered == 0 {
		in.chain.notifyFailure(d.Caller, lastErr)
	}
	return grant{}, d
}

// reply returns the descriptor to the gateway (or releases it for
// fire-and-forget events).
func (in *Instance) reply(ctx *Ctx) {
	d := ctx.desc
	if d.Caller == NoReply {
		in.chain.releaseBuffer(d.Buf)
		return
	}
	d.NextFn = GatewayID
	if _, err := in.chain.sendOrClaim(in.id, in.fnName, "gateway", d, sender{stripe: ctx.stripe}); err != nil {
		in.chain.releaseBuffer(d.Buf)
		in.chain.noteError(in.fnName, fmt.Errorf("reply: %w", err))
		in.chain.notifyFailure(d.Caller, err)
	}
}

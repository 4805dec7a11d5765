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

// FunctionSpec declares one function of a chain.
type FunctionSpec struct {
	Name        string
	Handler     Handler
	Instances   int           // pods to start (default 1)
	Concurrency int           // per-pod concurrent invocations (default 32)
	ServiceTime time.Duration // optional simulated CPU time per invocation

	// Node optionally places the function on a named worker node in a
	// multi-node deployment. Core ignores it — the orchestrator's placed
	// deployment reads it to decide which node runs the real handler and
	// which nodes get a transport stub ("" = the chain's head node).
	Node string
}

// RouteSpec declares one DFR routing-table entry. From "" routes the
// gateway's ingress to the chain's head function.
type RouteSpec struct {
	Topic string
	From  string
	To    []string
}

// ChainSpec declares a function chain.
type ChainSpec struct {
	Name      string
	Mode      Mode
	Functions []FunctionSpec
	Routes    []RouteSpec

	// PoolBuffers and BufSize fix the private shared-memory pool
	// geometry (defaults: 1024 × 16 KiB).
	PoolBuffers int
	BufSize     int

	// SocketDepth overrides per-socket queue depth (defaults to
	// PoolBuffers: the pool is the real burst buffer). ModePolling ignores
	// it: an instance's queue there is its ring.
	SocketDepth int

	// Deadline bounds each synchronous Gateway.Invoke; a request that
	// outlives it fails with context.DeadlineExceeded and its buffer is
	// reclaimed when (if ever) the late response returns. 0 disables
	// the default deadline; callers may still pass bounded contexts.
	Deadline time.Duration

	// Retry governs re-sending descriptors on transient transport
	// errors (socket queue full). The zero value disables retry.
	Retry RetryPolicy

	// Health configures circuit breaking of repeatedly failing
	// instances. The zero value disables the breaker.
	Health HealthPolicy

	// Admission configures overload shedding and scale-from-zero parking
	// at the gateway. The zero value keeps the legacy behavior: no
	// pending bound, no parking — pool exhaustion is the only refusal.
	Admission AdmissionPolicy

	// Injector, when set, injects seeded faults into the dataplane
	// (chaos testing). nil disables injection.
	Injector *fault.Injector

	// TraceSampleEvery samples 1-in-N requests into the always-on hop
	// tracer (0 picks the default of 1024; 1 traces every request).
	// Negative disables the default tracer entirely.
	TraceSampleEvery int

	// TraceTailLatency is the tail-sampling threshold: requests slower
	// than it (and all errored requests, regardless of this knob) are
	// retained even when head sampling skipped them. 0 picks the default
	// of 250ms; negative disables latency-based tail retention.
	TraceTailLatency time.Duration

	// ScrapeInterval is the period of the gateway's metrics agent — the
	// goroutine that drives EProxy.ScrapeRate and publishes the chain's
	// failure counters into the EPROXY metrics map (§3.3). 0 picks the
	// default of 500ms; negative disables the agent.
	ScrapeInterval time.Duration

	// Objects configures the chain's ephemeral object store — the keyed,
	// ref-counted multi-slab tier for intermediates that exceed one pool
	// buffer or outlive one hop. The zero value enables it with defaults.
	Objects ObjectPolicy
}

// ObjectPolicy tunes a chain's ephemeral object store.
type ObjectPolicy struct {
	// Disable turns the object tier off entirely: >BufSize payloads are
	// rejected at admission (HTTP 413) and Ctx object APIs fail.
	Disable bool
	// MaxResidentBytes bounds the store's shared-memory footprint before
	// cold objects spill to the file tier (0: spill only on pool
	// exhaustion).
	MaxResidentBytes int64
	// MaxObjectBytes caps one object (0 picks the 64 MiB default;
	// negative removes the cap).
	MaxObjectBytes int64
	// SpillDir is the file-backed cold tier's directory ("" = the
	// system temp dir).
	SpillDir string
}

// defaultMaxObjectBytes caps a single stored object unless the spec says
// otherwise — large enough for data-intensive intermediates, small enough
// that one request cannot silently consume the node's disk via spill.
const defaultMaxObjectBytes = 64 << 20

// RetryPolicy bounds descriptor re-sends on transient transport errors —
// exponential backoff with seeded jitter, the per-hop retry discipline
// sidecar meshes apply to transient upstream failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of send attempts per hop;
	// values <= 1 disable retry.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry (default 100µs).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 5ms).
	MaxBackoff time.Duration
}

// Chain is a deployed function chain: its private pool, its transport, its
// DFR router, its functions, and its gateway-side bookkeeping.
type Chain struct {
	name      string
	mode      Mode
	pool      *shm.Pool
	store     *objstore.Store // nil when ObjectPolicy.Disable
	transport Transport
	sproxy    *SProxy // nil in polling mode
	router    *Router
	// newQueue makes an instance's queue, the mode's other half: picked with
	// the transport in NewChain.
	newQueue func(depth int, reclaim func(shm.Descriptor)) handoffQueue

	instMu    sync.Mutex
	instances []*Instance
	prewarmed []*Instance // transport-wired, workers running, not routable
	byName    map[string]*FunctionSpec
	gwIngress map[string]bool // fns the gateway may dispatch to directly
	fnOrder   []string        // declared function order (immutable after NewChain)
	routes    []RouteSpec
	sockDepth int
	nextID    uint32

	errMu  sync.Mutex
	errs   []error
	errCnt uint64

	tracer atomic.Pointer[Tracer] // nil when tracing is off

	deadline    time.Duration
	retry       RetryPolicy
	health      HealthPolicy
	injector    *fault.Injector
	failures    failureCounters
	jitterSeed  atomic.Uint64
	scrapeEvery time.Duration // metrics-agent period (<0: agent disabled)

	failCbMu sync.RWMutex
	failCb   func(caller uint32, err error)

	// scaleCb fires whenever an instance becomes routable (ScaleUp,
	// RestartInstance, Activate) — the gateway wakes parked requests.
	scaleCbMu sync.RWMutex
	scaleCb   func()

	admission AdmissionPolicy

	// flight is the flight-recorder sink (nil when unobserved). Kept at
	// the struct tail so the hot fields above keep their layout.
	flight flightHook

	closed sync.Once
}

// failureCounters aggregates the chain's failure-path activity; the
// gateway surfaces them through GatewayStats and the EPROXY metrics map.
type failureCounters struct {
	crashes          atomic.Uint64 // handler panics absorbed
	retries          atomic.Uint64 // descriptor re-sends
	retriesExhausted atomic.Uint64 // sends that failed after all attempts
	circuitOpens     atomic.Uint64 // breaker closed→open transitions
	reclaimed        atomic.Uint64 // orphaned buffers reclaimed
	deadlines        atomic.Uint64 // invocations failed by deadline
	terminal         atomic.Uint64 // requests completed with terminal errors
	injected         atomic.Uint64 // faults fired by the injector
}

// FailureStats is a snapshot of the chain's failure-recovery activity.
type FailureStats struct {
	Crashes           uint64
	Retries           uint64
	RetriesExhausted  uint64
	CircuitOpens      uint64
	Reclaimed         uint64
	DeadlinesExceeded uint64
	TerminalFailures  uint64
	FaultsInjected    uint64
}

// Failures returns a snapshot of the chain's failure counters.
func (c *Chain) Failures() FailureStats {
	return FailureStats{
		Crashes:           c.failures.crashes.Load(),
		Retries:           c.failures.retries.Load(),
		RetriesExhausted:  c.failures.retriesExhausted.Load(),
		CircuitOpens:      c.failures.circuitOpens.Load(),
		Reclaimed:         c.failures.reclaimed.Load(),
		DeadlinesExceeded: c.failures.deadlines.Load(),
		TerminalFailures:  c.failures.terminal.Load(),
		FaultsInjected:    c.failures.injected.Load(),
	}
}

// Injector returns the chain's fault injector (nil when not injecting).
func (c *Chain) Injector() *fault.Injector { return c.injector }

// EnableTracing turns on per-request hop tracing (a debugging aid and the
// source of §3.3's chain-level metrics), retaining up to limit traces.
func (c *Chain) EnableTracing(limit int) *Tracer {
	tr := NewTracer(limit)
	c.tracer.Store(tr)
	return tr
}

// DisableTracing stops trace collection.
func (c *Chain) DisableTracing() {
	c.tracer.Store(nil)
}

// Tracer returns the chain's current tracer (nil when tracing is off).
func (c *Chain) Tracer() *Tracer {
	return c.tracer.Load()
}

// currentTracer is read on every hop; the atomic pointer keeps the
// tracing-off common case to a single load.
func (c *Chain) currentTracer() *Tracer {
	return c.tracer.Load()
}

// Chain errors.
var (
	ErrBackpressure = errors.New("core: chain at capacity (pool exhausted)")
	ErrNoHead       = errors.New("core: chain has no ingress route (From \"\")")
)

// Defaults for the always-on observability plumbing.
const (
	defaultTraceSampleEvery = 1024 // 1-in-N sampled hop tracing
	defaultTraceLimit       = 64   // recent traces retained, and tail traces
	defaultScrapeInterval   = 500 * time.Millisecond
)

// RingStats reports per-instance ring queue counters in polling mode
// (nil for event mode — S-SPRIGHT has no rings).
func (c *Chain) RingStats() []RingQueueStat {
	var out []RingQueueStat
	for _, in := range c.Instances() {
		if q, ok := in.sock.q.(*ringQueue); ok {
			out = append(out, RingQueueStat{Instance: in.id, Stats: q.r.Stats()})
		}
	}
	return out
}

// NewChain builds and starts a chain in the given eBPF kernel, creating its
// private shared-memory pool through manager (the Fig. 6 startup flow is
// orchestrated one level up; this is the dataplane assembly).
func NewChain(kernel *ebpf.Kernel, manager *shm.Manager, spec ChainSpec) (*Chain, error) {
	if spec.Name == "" {
		return nil, errors.New("core: chain needs a name")
	}
	if len(spec.Functions) == 0 {
		return nil, errors.New("core: chain needs at least one function")
	}
	poolBufs := spec.PoolBuffers
	if poolBufs <= 0 {
		poolBufs = 1024
	}
	bufSize := spec.BufSize
	if bufSize <= 0 {
		bufSize = 16 * 1024
	}
	pool, err := manager.CreatePool(spec.Name, poolBufs, bufSize)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			_ = manager.Release(spec.Name)
		}
	}()

	c := &Chain{
		name:      spec.Name,
		mode:      spec.Mode,
		pool:      pool,
		router:    NewRouter(),
		byName:    make(map[string]*FunctionSpec),
		deadline:  spec.Deadline,
		retry:     spec.Retry,
		health:    spec.Health,
		injector:  spec.Injector,
		admission: spec.Admission,
	}
	if !spec.Objects.Disable {
		maxObj := spec.Objects.MaxObjectBytes
		switch {
		case maxObj == 0:
			maxObj = defaultMaxObjectBytes
		case maxObj < 0:
			maxObj = 0
		}
		c.store = objstore.New(pool, objstore.Config{
			MaxResidentBytes: spec.Objects.MaxResidentBytes,
			MaxObjectBytes:   maxObj,
			SpillDir:         spec.Objects.SpillDir,
		})
	}
	if c.retry.MaxAttempts > 1 {
		if c.retry.BaseBackoff <= 0 {
			c.retry.BaseBackoff = 100 * time.Microsecond
		}
		if c.retry.MaxBackoff <= 0 {
			c.retry.MaxBackoff = 5 * time.Millisecond
		}
	}
	if c.health.ConsecutiveFailures > 0 && c.health.OpenDuration <= 0 {
		c.health.OpenDuration = 100 * time.Millisecond
	}
	c.jitterSeed.Store(0x9e3779b97f4a7c15)

	// The mode is read here and nowhere else on a hop: it picks the transport
	// that routes descriptors and the queue each instance's socket gets.
	switch spec.Mode {
	case ModeEvent:
		sp, err := NewSProxy(kernel, spec.Name)
		if err != nil {
			return nil, err
		}
		c.sproxy = sp
		defer func() {
			if !ok {
				sp.Close()
			}
		}()
		c.transport = sp
		c.newQueue = func(depth int, reclaim func(shm.Descriptor)) handoffQueue {
			return newChanQueue(depth, reclaim)
		}
	case ModePolling:
		c.transport = newRingTransport()
		// Whoever dequeues a sampled descriptor reports its ring residency
		// through the dequeue hook: D-SPRIGHT's queue-wait attribution.
		c.newQueue = func(_ int, reclaim func(shm.Descriptor)) handoffQueue {
			return newRingQueue(reclaim, c.ringDequeueHook)
		}
	default:
		return nil, fmt.Errorf("core: unknown mode %d", spec.Mode)
	}

	// Always-on sampled tracing (spec.TraceSampleEvery < 0 opts out; tests
	// that need full traces replace the tracer via EnableTracing).
	if spec.TraceSampleEvery >= 0 {
		every := spec.TraceSampleEvery
		if every == 0 {
			every = defaultTraceSampleEvery
		}
		tr := NewSampledTracer(every, defaultTraceLimit)
		tr.SetTailSampling(spec.TraceTailLatency, defaultTraceLimit)
		c.tracer.Store(tr)
	}
	c.scrapeEvery = spec.ScrapeInterval
	if c.scrapeEvery == 0 {
		c.scrapeEvery = defaultScrapeInterval
	}

	depth := spec.SocketDepth
	if depth <= 0 {
		depth = poolBufs
	}
	c.sockDepth = depth
	c.routes = append([]RouteSpec(nil), spec.Routes...)

	for i := range spec.Functions {
		fs := spec.Functions[i] // copy: the chain owns its specs
		if fs.Name == "" {
			return nil, fmt.Errorf("core: function %d has no name", i)
		}
		if _, dup := c.byName[fs.Name]; dup {
			return nil, fmt.Errorf("core: duplicate function %q", fs.Name)
		}
		if fs.Instances <= 0 {
			fs.Instances = 1
		}
		if fs.Concurrency <= 0 {
			fs.Concurrency = 32
		}
		c.byName[fs.Name] = &fs
		c.fnOrder = append(c.fnOrder, fs.Name)
	}

	// DFR routes.
	for _, r := range spec.Routes {
		for _, to := range r.To {
			if _, ok := c.byName[to]; !ok {
				return nil, fmt.Errorf("core: route to unknown function %q", to)
			}
		}
		if r.From != "" {
			if _, ok := c.byName[r.From]; !ok {
				return nil, fmt.Errorf("core: route from unknown function %q", r.From)
			}
		}
		c.router.SetRoute(RouteKey{Topic: r.Topic, From: r.From}, r.To...)
	}

	// Function instances, IDs 1..N (0 is the gateway), each wired as a
	// scale-up wires one: its socket, then the filter rules (§3.4) between it
	// and every instance before it that the routing table implies, in both
	// data directions, plus its reply edge to the gateway.
	c.instMu.Lock()
	defer c.instMu.Unlock()
	c.nextID = 1
	for _, fn := range c.fnOrder {
		for j := 0; j < c.byName[fn].Instances; j++ {
			inst, err := c.newWiredInstanceLocked(fn)
			if err != nil {
				return nil, err
			}
			c.router.AddInstance(fn, inst)
			c.instances = append(c.instances, inst)
		}
	}

	for _, in := range c.instances {
		in.start()
	}
	ok = true
	return c, nil
}

// newInstance builds one not-yet-started instance of fs with its socket, whose
// queue reclaims what it still holds when it stops as orphans of fs.
func (c *Chain) newInstance(fs *FunctionSpec, id uint32, depth int) *Instance {
	inst := &Instance{
		chain:       c,
		fnName:      fs.Name,
		id:          id,
		handler:     fs.Handler,
		serviceTime: fs.ServiceTime,
	}
	reclaim := func(d shm.Descriptor) { c.reclaimOrphan(d, inst.fnName) }
	inst.sock = &Socket{id: id, inst: inst, q: c.newQueue(depth, reclaim)}
	inst.setSlots(fs.Concurrency)
	inst.slotFreed.L = &inst.slotMu
	return inst
}

// Name returns the chain name (also its shared-memory prefix).
func (c *Chain) Name() string { return c.name }

// Mode returns the transport mode.
func (c *Chain) Mode() Mode { return c.mode }

// ScrapeInterval returns the resolved metrics-agent period — the cadence
// of the gateway's agent tick (<= 0: agent disabled).
func (c *Chain) ScrapeInterval() time.Duration { return c.scrapeEvery }

// Pool exposes the chain's shared-memory pool (metrics, tests).
func (c *Chain) Pool() *shm.Pool { return c.pool }

// ObjectStore exposes the chain's ephemeral object store (nil when the
// spec disabled it).
func (c *Chain) ObjectStore() *objstore.Store { return c.store }

// Router exposes the DFR router (controller-driven route updates).
func (c *Chain) Router() *Router { return c.router }

// SProxy returns the chain's SPROXY (nil in polling mode).
func (c *Chain) SProxy() *SProxy { return c.sproxy }

// Instances returns all running instances.
func (c *Chain) Instances() []*Instance {
	c.instMu.Lock()
	defer c.instMu.Unlock()
	return append([]*Instance(nil), c.instances...)
}

// Functions returns the chain's declared function names in spec order —
// including functions currently at zero replicas, which Instances() cannot
// surface. The control plane iterates this, never the instance list, so a
// scaled-to-zero function is still a scaling target.
func (c *Chain) Functions() []string {
	return append([]string(nil), c.fnOrder...)
}

// setScaleNotifier registers the gateway's capacity-arrived callback.
func (c *Chain) setScaleNotifier(fn func()) {
	c.scaleCbMu.Lock()
	c.scaleCb = fn
	c.scaleCbMu.Unlock()
}

// notifyScaled announces that an instance just became routable; parked
// requests re-attempt dispatch.
func (c *Chain) notifyScaled() {
	c.scaleCbMu.RLock()
	cb := c.scaleCb
	c.scaleCbMu.RUnlock()
	if cb != nil {
		cb()
	}
}

// releaseBuffer drops one reference; the pool clears the buffer's headroom
// (topic, attached object) when the last one goes.
func (c *Chain) releaseBuffer(h uint32) {
	if err := c.pool.Put(h); err != nil {
		c.noteError("pool", err)
	}
}

// jitter draws a race-free pseudo-random duration in [0, d/2] (atomic
// xorshift; determinism is not required here, only bounded spread).
func (c *Chain) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	for {
		old := c.jitterSeed.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if c.jitterSeed.CompareAndSwap(old, x) {
			return time.Duration(x % uint64(d/2+1))
		}
	}
}

// attempt performs one send try for the hop srcFn→dstFn, consulting the
// fault injector first. With by.home — the sending worker's own socket — the
// try may end in a claim instead of a delivery: the destination instance comes
// back with a slot held and the sender runs its handler (Transport.sendOrClaim).
func (c *Chain) attempt(src uint32, srcFn, dstFn string, d shm.Descriptor, by sender) (grant, error) {
	if c.injector.DecideSend(srcFn, dstFn) {
		c.failures.injected.Add(1)
		return grant{}, ErrSocketFull
	}
	return c.transport.sendOrClaim(src, d, by)
}

// send delivers d from src, on the sender's stripe, retrying transient
// transport errors (socket queue full) up to the chain's retry budget with
// exponential backoff and jitter. srcFn/dstFn name the hop for fault-injection
// scoping; dstFn is "gateway" for replies. Non-transient errors (filter
// rejection, unknown destination) are returned immediately.
func (c *Chain) send(src uint32, srcFn, dstFn string, d shm.Descriptor, stripe uint32) error {
	_, err := c.sendOrClaim(src, srcFn, dstFn, d, sender{stripe: stripe})
	return err
}

// sendOrClaim is send for a function worker's single-destination hop: given
// by.home, the worker's own socket, it may return the destination instance
// with a concurrency slot held instead of queueing d there, and the caller
// then runs that instance's handler on d itself.
func (c *Chain) sendOrClaim(src uint32, srcFn, dstFn string, d shm.Descriptor, by sender) (grant, error) {
	if tr := c.currentTracer(); tr != nil && c.pool.TraceSampled(d.Buf) {
		return c.sendTraced(tr, src, srcFn, dstFn, d, by)
	}
	return c.sendRetrying(src, srcFn, dstFn, d, by)
}

// sendRetrying is one attempt and, while the destination's queue refuses it,
// more after an exponential backoff with jitter, up to the chain's retry
// budget. Non-transient errors (filter rejection, unknown destination) end the
// loop immediately.
func (c *Chain) sendRetrying(src uint32, srcFn, dstFn string, d shm.Descriptor, by sender) (grant, error) {
	next, err := c.attempt(src, srcFn, dstFn, d, by)
	if err == nil || c.retry.MaxAttempts <= 1 || !errors.Is(err, ErrSocketFull) {
		return next, err
	}
	backoff := c.retry.BaseBackoff
	for n := 1; n < c.retry.MaxAttempts; n++ {
		c.failures.retries.Add(1)
		time.Sleep(backoff + c.jitter(backoff))
		if backoff *= 2; backoff > c.retry.MaxBackoff {
			backoff = c.retry.MaxBackoff
		}
		if next, err = c.attempt(src, srcFn, dstFn, d, by); err == nil || !errors.Is(err, ErrSocketFull) {
			return next, err
		}
	}
	c.failures.retriesExhausted.Add(1)
	return grant{}, fmt.Errorf("core: %d send attempts: %w", c.retry.MaxAttempts, err)
}

// sendTraced wraps one hop's send in a redirect/enqueue span and stamps
// the buffer's enqueue time so the consumer side (polling worker, socket
// worker, the sender itself after a claim, or the gateway's sink) can
// attribute queue wait. A D-SPRIGHT hop is an enqueue only if it crossed a
// ring: a claimed hop and the reply, which the sink takes on this goroutine,
// record what they record in S-SPRIGHT — less the claimed hop's queue.wait,
// there being no socket queue in ModePolling to have waited in. Only sampled
// buffers come here — the unsampled path stays clock-free.
func (c *Chain) sendTraced(tr *Tracer, src uint32, srcFn, dstFn string, d shm.Descriptor, by sender) (grant, error) {
	parent := c.pool.TraceContext(d.Buf).Span
	t0 := time.Now()
	// Stamp before the send: the consumer may dequeue the descriptor
	// before this goroutine runs again, and it must find the stamp.
	c.pool.StampTrace(d.Buf, t0.UnixNano())
	next, err := c.sendRetrying(src, srcFn, dstFn, d, by)
	stage := StageRedirect
	if c.mode == ModePolling {
		if next.inst != nil {
			c.pool.StampTrace(d.Buf, 0)
		} else if d.NextFn != GatewayID {
			stage = StageEnqueue
		}
	}
	s := Span{Parent: parent, Stage: stage, Function: dstFn, Instance: d.NextFn, Start: t0, End: time.Now()}
	if err != nil {
		s.Err = err.Error()
	}
	tr.RecordSpan(d.Caller, s)
	return next, err
}

// ringDequeueHook runs in the D-SPRIGHT consumer — the instance's polling
// worker, in ringQueue.next — for each dequeued descriptor: for sampled buffers
// it converts the producer's enqueue stamp into a ring.wait span. There is no socket queue
// behind an instance's ring, so the stamp is cleared and no queue.wait span
// follows. Returns the measured residency (0 when untraced) for the ring's
// wait counters.
func (c *Chain) ringDequeueHook(d shm.Descriptor) time.Duration {
	tr := c.currentTracer()
	if tr == nil || !c.pool.TraceSampled(d.Buf) {
		return 0
	}
	ns := c.pool.TraceStamp(d.Buf)
	if ns <= 0 {
		return 0
	}
	now := time.Now()
	start := time.Unix(0, ns)
	tr.RecordSpan(d.Caller, Span{
		Parent: c.pool.TraceContext(d.Buf).Span, Stage: StageRingWait,
		Instance: d.NextFn, Start: start, End: now,
	})
	c.pool.StampTrace(d.Buf, 0)
	return now.Sub(start)
}

// setFailureNotifier registers the gateway's terminal-failure callback.
func (c *Chain) setFailureNotifier(fn func(caller uint32, err error)) {
	c.failCbMu.Lock()
	c.failCb = fn
	c.failCbMu.Unlock()
}

// notifyFailure terminates a caller's wait with an error when the
// dataplane knows no response descriptor will ever arrive — the request
// fails fast instead of blackholing until its deadline. The buffer must
// already have been released by the caller of notifyFailure.
func (c *Chain) notifyFailure(caller uint32, err error) {
	if caller == NoReply || err == nil {
		return
	}
	c.failures.terminal.Add(1)
	c.failCbMu.RLock()
	cb := c.failCb
	c.failCbMu.RUnlock()
	if cb != nil {
		cb(caller, err)
	}
}

// ErrInstanceGone marks requests stranded in the socket queue of an
// instance that was shut down or restarted.
var ErrInstanceGone = errors.New("core: instance shut down with queued requests")

// reclaimOrphan releases a descriptor stranded in a dead instance's
// socket queue and fails its caller — the queue-drain half of the
// guarantee that a crashed instance never leaks pool slabs.
func (c *Chain) reclaimOrphan(d shm.Descriptor, fn string) {
	c.failures.reclaimed.Add(1)
	c.releaseBuffer(d.Buf)
	c.notifyFailure(d.Caller, fmt.Errorf("%s: %w", fn, ErrInstanceGone))
}

func (c *Chain) noteError(where string, err error) {
	if err == nil {
		return
	}
	c.errMu.Lock()
	c.errCnt++
	if len(c.errs) < 64 {
		c.errs = append(c.errs, fmt.Errorf("%s: %w", where, err))
	}
	c.errMu.Unlock()
}

// Errors returns the count and a bounded sample of dataplane errors.
func (c *Chain) Errors() (uint64, []error) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.errCnt, append([]error(nil), c.errs...)
}

// Close stops all instances (including prewarmed ones) and the SPROXY.
func (c *Chain) Close() {
	c.closed.Do(func() {
		c.instMu.Lock()
		warm := append([]*Instance(nil), c.prewarmed...)
		c.prewarmed = nil
		c.instMu.Unlock()
		for _, in := range warm {
			in.shutdown()
		}
		for _, in := range c.Instances() {
			in.shutdown()
		}
		if c.sproxy != nil {
			c.sproxy.Close()
		}
		// The store closes before the pool: spill files are removed while
		// Release still works for late drains, and leaked objects' resident
		// slabs stay visible to the pool's LeakCheck.
		if c.store != nil {
			c.store.Close()
		}
		c.pool.Close()
	})
}

// PrewarmedInstance is an instance created ahead of demand: socket
// registered with the transport, filter edges authorized, worker pool
// running — but not routable. Activation is the cheap step (a router
// insert plus an idempotent edge refresh), which is what makes resuming a
// scaled-to-zero function fast: the expensive wiring already happened off
// the request path.
type PrewarmedInstance struct {
	inst *Instance
	used bool
}

// ID returns the prewarmed instance's dataplane ID.
func (pw *PrewarmedInstance) ID() uint32 { return pw.inst.id }

// Function returns the function this instance will serve.
func (pw *PrewarmedInstance) Function() string { return pw.inst.fnName }

// Prewarm creates one not-yet-routable instance of fn for later Activate.
func (c *Chain) Prewarm(fn string) (*PrewarmedInstance, error) {
	c.instMu.Lock()
	defer c.instMu.Unlock()
	inst, err := c.newWiredInstanceLocked(fn)
	if err != nil {
		return nil, err
	}
	c.prewarmed = append(c.prewarmed, inst)
	inst.start()
	return &PrewarmedInstance{inst: inst}, nil
}

// Activate makes a prewarmed instance routable. Filter edges are
// re-authorized first (Allow is an idempotent map update), covering any
// peer instances that appeared since the prewarm. A PrewarmedInstance can
// be activated once; afterwards the instance is owned by the chain like
// any other.
func (c *Chain) Activate(pw *PrewarmedInstance) (*Instance, error) {
	c.instMu.Lock()
	if pw.used {
		c.instMu.Unlock()
		return nil, errors.New("core: prewarmed instance already consumed")
	}
	pw.used = true
	for i, in := range c.prewarmed {
		if in == pw.inst {
			c.prewarmed = append(c.prewarmed[:i], c.prewarmed[i+1:]...)
			break
		}
	}
	if err := c.authorizeEdgesLocked(pw.inst); err != nil {
		c.instMu.Unlock()
		return nil, err
	}
	c.router.AddInstance(pw.inst.fnName, pw.inst)
	c.instances = append(c.instances, pw.inst)
	c.instMu.Unlock()
	c.notifyScaled()
	return pw.inst, nil
}

// DiscardPrewarmed tears down an unactivated prewarmed instance.
func (c *Chain) DiscardPrewarmed(pw *PrewarmedInstance) {
	c.instMu.Lock()
	if pw.used {
		c.instMu.Unlock()
		return
	}
	pw.used = true
	for i, in := range c.prewarmed {
		if in == pw.inst {
			c.prewarmed = append(c.prewarmed[:i], c.prewarmed[i+1:]...)
			break
		}
	}
	c.instMu.Unlock()
	if err := c.transport.UnregisterSocket(pw.inst.id); err != nil {
		c.noteError("prewarm", err)
	}
	pw.inst.shutdown()
}

// ScaleUp starts one additional instance of fn (vertical/horizontal pod
// scaling, §3.7), wiring its sockmap entry and the filter rules of every
// routing edge that touches fn, then registering it with the router.
func (c *Chain) ScaleUp(fn string) (*Instance, error) {
	c.instMu.Lock()
	defer c.instMu.Unlock()
	return c.startInstanceLocked(fn)
}

// startInstanceLocked creates, wires and starts one fresh instance of fn,
// making it routable. Callers hold instMu.
func (c *Chain) startInstanceLocked(fn string) (*Instance, error) {
	inst, err := c.newWiredInstanceLocked(fn)
	if err != nil {
		return nil, err
	}
	c.router.AddInstance(fn, inst)
	c.instances = append(c.instances, inst)
	inst.start()
	c.notifyScaled()
	return inst, nil
}

// newWiredInstanceLocked creates one instance of fn, registers its socket
// with the transport, and authorizes its filter edges — everything short of
// routability. Callers hold instMu.
func (c *Chain) newWiredInstanceLocked(fn string) (*Instance, error) {
	fs, ok := c.byName[fn]
	if !ok {
		return nil, fmt.Errorf("core: unknown function %q", fn)
	}
	if int(c.nextID) >= MaxInstances {
		return nil, fmt.Errorf("core: instance limit %d reached", MaxInstances)
	}
	inst := c.newInstance(fs, c.nextID, c.sockDepth)
	c.nextID++
	if err := c.transport.RegisterSocket(inst.sock); err != nil {
		return nil, err
	}
	if err := c.authorizeEdgesLocked(inst); err != nil {
		return nil, err
	}
	return inst, nil
}

// authorizeEdgesLocked installs the filter rules for one instance of fn
// against the routable instances: sources routing *to* fn, targets fn routes
// *to*, itself when fn routes to fn, and the reply edge to the gateway.
// Wiring instances one at a time this way reaches the same edge set as
// wiring them all at once. Allow is an idempotent map update, so
// re-authorizing at prewarm activation (after topology changed underneath a
// warm instance) is safe. Callers hold instMu.
func (c *Chain) authorizeEdgesLocked(inst *Instance) error {
	fn := inst.fnName
	for _, r := range c.routes {
		for _, to := range r.To {
			if to == fn {
				srcs := []uint32{GatewayID}
				if r.From != "" {
					srcs = srcs[:0]
					for _, s := range c.router.Instances(r.From) {
						srcs = append(srcs, s.ID())
					}
				}
				if r.From == fn {
					srcs = append(srcs, inst.ID()) // not routable yet
				}
				for _, s := range srcs {
					if err := c.transport.Allow(s, inst.ID()); err != nil {
						return err
					}
				}
			}
		}
		if r.From == fn {
			for _, to := range r.To {
				for _, dst := range c.router.Instances(to) {
					if err := c.transport.Allow(inst.ID(), dst.ID()); err != nil {
						return err
					}
				}
			}
		}
	}
	if c.gwIngress[fn] {
		if err := c.transport.Allow(GatewayID, inst.ID()); err != nil {
			return err
		}
	}
	return c.transport.Allow(inst.ID(), GatewayID)
}

// AllowGatewayIngress authorizes the gateway to dispatch directly to fn —
// the entry edge for requests arriving from a peer node, where the logical
// source instance lives on the other side of the wire and the local gateway
// re-injects the descriptor on its behalf. The grant is persistent:
// instances of fn added later (scale-up, restart, prewarm activation)
// inherit it through authorizeEdgesLocked.
func (c *Chain) AllowGatewayIngress(fn string) error {
	c.instMu.Lock()
	defer c.instMu.Unlock()
	if _, ok := c.byName[fn]; !ok {
		return fmt.Errorf("core: unknown function %q", fn)
	}
	if c.gwIngress == nil {
		c.gwIngress = make(map[string]bool)
	}
	c.gwIngress[fn] = true
	for _, in := range c.router.Instances(fn) {
		if err := c.transport.Allow(GatewayID, in.ID()); err != nil {
			return err
		}
	}
	return nil
}

// RestartInstance replaces a crashed or circuit-broken instance with a
// fresh one of the same function — the kubelet's repair action behind the
// §3.3 health probes. The replacement is registered and routable before
// the victim leaves the router, so the function never drops to zero
// instances; the victim's socket queue is drained asynchronously, with
// every stranded descriptor reclaimed and its caller failed. A handler
// wedged inside the victim keeps its buffer until it returns (goroutines
// cannot be killed); its caller is bounded by the invocation deadline.
func (c *Chain) RestartInstance(id uint32) (*Instance, error) {
	if id == GatewayID {
		return nil, errors.New("core: cannot restart the gateway")
	}
	c.instMu.Lock()
	var victim *Instance
	for _, in := range c.instances {
		if in.id == id {
			victim = in
			break
		}
	}
	if victim == nil {
		c.instMu.Unlock()
		return nil, fmt.Errorf("core: no instance %d", id)
	}
	repl, err := c.startInstanceLocked(victim.fnName)
	if err != nil {
		c.instMu.Unlock()
		return nil, err
	}
	for i, in := range c.instances {
		if in == victim {
			c.instances = append(c.instances[:i], c.instances[i+1:]...)
			break
		}
	}
	// Claim the victim out of the router under instMu too: a concurrent
	// ScaleDown selecting its own victim can then never race this removal.
	c.router.RemoveInstance(victim.fnName, id)
	c.instMu.Unlock()

	if err := c.transport.UnregisterSocket(id); err != nil {
		c.noteError("restart", err)
	}
	// The victim may be wedged mid-handler; don't block the repair on it.
	// It starts no handler from here on — not for a descriptor still queued,
	// not in a slot a forwarding worker claims — and shutdown waits out the
	// ones running, wherever they run, then drains and reclaims the socket
	// queue.
	victim.stop()
	go victim.shutdown()
	return repl, nil
}

// ScaleDown stops one instance of fn (the one with the fewest in-flight
// requests) and removes it from routing. It refuses to remove the last
// warm instance — scale-to-zero is a deliberate control-plane action
// (ScaleToZero), never an accident of repeated downscaling.
func (c *Chain) ScaleDown(fn string) error {
	return c.scaleDown(fn, 1)
}

// scaleDown removes one instance of fn, refusing to drop below floor.
// Victim selection and removal from both the instance list and the router
// happen under instMu, so a concurrent ScaleDown or RestartInstance can
// never claim the same victim; the synchronous drain (shutdown waits out
// in-flight work, then reclaims the socket queue) runs outside the lock.
func (c *Chain) scaleDown(fn string, floor int) error {
	if _, ok := c.byName[fn]; !ok {
		return fmt.Errorf("core: unknown function %q", fn)
	}
	c.instMu.Lock()
	var victim *Instance
	live := 0
	for _, in := range c.instances {
		if in.fnName != fn {
			continue
		}
		live++
		if victim == nil || in.Inflight() < victim.Inflight() {
			victim = in
		}
	}
	if live <= floor || victim == nil {
		c.instMu.Unlock()
		if floor > 0 {
			return fmt.Errorf("core: refusing to scale %q below %d warm instance(s)", fn, floor)
		}
		return fmt.Errorf("core: %q already at zero instances", fn)
	}
	for i, in := range c.instances {
		if in == victim {
			c.instances = append(c.instances[:i], c.instances[i+1:]...)
			break
		}
	}
	c.router.RemoveInstance(fn, victim.ID())
	c.instMu.Unlock()

	if err := c.transport.UnregisterSocket(victim.ID()); err != nil {
		c.noteError("scaledown", err)
	}
	victim.shutdown()
	return nil
}

// ScaleToZero retires every instance of fn — the idle-chain end state the
// paper's warm-instance economics make affordable (§4.2.2). Each retiring
// instance drains synchronously: in-flight requests complete (their
// replies route through the still-registered reverse edge) and queued
// descriptors are reclaimed with their callers failed. Returns how many
// instances were removed. The first request arriving afterwards parks at
// the gateway (given an AdmissionPolicy) until the control plane resumes
// capacity.
func (c *Chain) ScaleToZero(fn string) (int, error) {
	if _, ok := c.byName[fn]; !ok {
		return 0, fmt.Errorf("core: unknown function %q", fn)
	}
	removed := 0
	for {
		if err := c.scaleDown(fn, 0); err != nil {
			return removed, nil
		}
		removed++
	}
}

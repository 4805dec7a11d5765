package shm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Common pool errors.
var (
	ErrPoolExhausted = errors.New("shm: pool exhausted")
	ErrBadHandle     = errors.New("shm: invalid buffer handle")
	ErrNotOwned      = errors.New("shm: buffer not allocated")
	ErrClosed        = errors.New("shm: pool closed")
	// ErrPayloadTooLarge marks writes that exceed the fixed buffer size.
	// It is a sentinel so the gateway can map it onto
	// a distinct refusal (HTTP 413 + its own shed counter) instead of a
	// generic admission failure — and so callers can fall back to the
	// multi-slab object tier (objstore) for payloads one slab cannot hold.
	ErrPayloadTooLarge = errors.New("shm: payload exceeds buffer size")
)

// PoolStats reports allocation behaviour, used by tests and by the metrics
// agent in the SPRIGHT gateway.
type PoolStats struct {
	Capacity  int
	BufSize   int
	InUse     int
	Allocs    uint64
	Frees     uint64
	Failures  uint64
	HighWater int
	// Steals counts allocations served from a non-home freelist shard — a
	// contention/imbalance signal: a high steal rate means the sharded
	// freelist is behaving like one lock again.
	Steals uint64
}

// traceHdr is one buffer's trace header: the buffer-resident half of the
// distributed-tracing context (TraceContext) plus the enqueue timestamp the
// receiving side turns into a queue-wait span. hi/lo are written once at
// admission, before the descriptor is handed to the transport — the
// channel/ring handoff orders them for every downstream reader. span and
// stamp are updated per hop and may race between fan-out branches, so they
// are atomic; attribution under fan-out is approximate by design (the
// branches share one buffer).
//
// obj is the buffer's attached object handle (objstore): like the trace
// context it rides in this descriptor-adjacent headroom so descriptors stay
// 16 bytes. The reference the handle represents is owned by the buffer and
// released through the pool's object release hook when the buffer's own
// reference count reaches zero.
type traceHdr struct {
	hi, lo uint64
	span   atomic.Uint64
	flags  atomic.Uint32
	stamp  atomic.Int64  // UnixNano of the most recent enqueue of this buffer
	obj    atomic.Uint64 // attached objstore handle (0 = none)
	// objCarrier marks the attached object as BEING the message payload
	// (gateway large-payload admission, Ctx.ReplyObject) rather than an
	// auxiliary intermediate riding alongside it. Any in-buffer payload
	// write clears it: whoever wrote last owns the message body, so the
	// gateway never has to guess from Len==0 whether to echo the object.
	objCarrier atomic.Uint32
	// topic is the message's DFR routing topic (nil = ""). It rides here for
	// the same reason the trace context does — the descriptor stays 16 bytes
	// — and is an atomic pointer because fan-out branches share the buffer:
	// one branch's handler may retopic the message while a sibling's worker
	// reads it. The final Put clears it while the freeing caller is still the
	// exclusive owner, so a recycled buffer never inherits a topic.
	topic atomic.Pointer[string]
}

// freelistShards is the number of independent freelist segments (power of
// two, so the home shard of a handle is a mask away). Concurrent Get/Put
// from different workers land on different shard locks instead of
// serializing on one pool-wide mutex.
const freelistShards = 8

// freeShard is one freelist segment. The pad keeps adjacent shards' locks
// off a shared cache line.
type freeShard struct {
	mu   sync.Mutex
	list []uint32 // LIFO for cache locality
	_    [40]byte
}

// Pool is a fixed-capacity slab of equally sized buffers. It is safe for
// concurrent use. The backing slab is one shared anonymous mapping outside the
// Go heap, as a DPDK mempool sits in shared hugepage memory outside every
// process's heap: buffer i is slab[i*bufSize:(i+1)*bufSize]. Its pages are
// committed on first touch, and the freelists hand out low handles first, so
// a pool occupies the memory of the buffers it has used, not its capacity.
// The mapping is returned once the pool is closed and every buffer is back
// (see Close).
//
// The freelist is sharded: a freed handle returns to its home shard and Get
// scans shards from a rotating cursor — GetOn, from the shard its caller names
// — stealing from any non-empty shard before declaring exhaustion, so the
// backpressure signal stays exact while uncontended Get/Put pairs touch
// only one uncontended lock. A shard's handles are one contiguous range
// (home), so a caller that keeps to a shard keeps to its own buffers and to its
// own cache lines of refs, lens and trace as well: two callers on two shards
// write no line of the pool in common but the counters'. InUse and the
// allocation stats are maintained with the same atomics as before and remain
// exact.
type Pool struct {
	prefix  string
	bufSize int
	slab    []byte
	refs    []atomic.Int32 // 0 = free, >0 = live references
	lens    []atomic.Int32 // valid payload length per buffer
	trace   []traceHdr     // per-buffer trace context (the "mbuf headroom")

	shards   [freelistShards]freeShard
	perShard uint32 // handles per shard: shard s is home to [s*perShard, (s+1)*perShard)
	cursor   atomic.Uint32
	closed   atomic.Bool
	unmapped atomic.Bool // the slab's mapping has been returned

	// objHook, when set, receives the attached object handle of every
	// buffer whose last reference is released — the lifetime tie between
	// a request's buffer and the objects it carried.
	objHook atomic.Pointer[func(obj uint64)]

	allocs    atomic.Uint64
	frees     atomic.Uint64
	failures  atomic.Uint64
	steals    atomic.Uint64
	inUse     atomic.Int64
	highWater atomic.Int64
}

// NewPool creates a pool of n buffers of bufSize bytes each under the given
// shared-data file prefix. Prefer Manager.CreatePool, which enforces the
// primary-process creation rule.
func NewPool(prefix string, n, bufSize int) (*Pool, error) {
	if n <= 0 || bufSize <= 0 {
		return nil, fmt.Errorf("shm: invalid pool geometry n=%d bufSize=%d", n, bufSize)
	}
	slab, err := mapSlab(n * bufSize)
	if err != nil {
		return nil, fmt.Errorf("shm: map %d-byte slab: %w", n*bufSize, err)
	}
	p := &Pool{
		prefix:  prefix,
		bufSize: bufSize,
		slab:    slab,
		refs:    make([]atomic.Int32, n),
		lens:    make([]atomic.Int32, n),
		trace:   make([]traceHdr, n),

		perShard: uint32((n + freelistShards - 1) / freelistShards),
	}
	for s := range p.shards {
		p.shards[s].list = make([]uint32, 0, p.perShard)
	}
	// Handles live in their home shard, low handles on top of each LIFO.
	for i := n - 1; i >= 0; i-- {
		h := uint32(i)
		s := &p.shards[p.home(h)]
		s.list = append(s.list, h)
	}
	return p, nil
}

// home is the shard a handle is freed to.
func (p *Pool) home(h uint32) uint32 { return h / p.perShard }

// BufSize returns the fixed buffer size.
func (p *Pool) BufSize() int { return p.bufSize }

// Get allocates a buffer with reference count 1. It fails with
// ErrPoolExhausted when no buffer is free — the chain's queueing capacity
// (§3.2.1) is exactly the pool capacity, so exhaustion is the backpressure
// signal.
func (p *Pool) Get() (uint32, error) { return p.GetOn(p.cursor.Add(1)) }

// GetOn is Get by a caller that names the shard to look in first (mod the
// shard count): one that names the same shard every time, as a core's
// requests name their stripe, gets back the buffers it freed and shares
// neither a freelist lock nor a buffer's lines with callers on other shards.
func (p *Pool) GetOn(shard uint32) (uint32, error) {
	// Reserve before looking at closed, as Close looks at inUse after
	// setting it: either this call sees the pool closed, or Close sees the
	// reservation and leaves the slab mapped.
	in := p.inUse.Add(1)
	if p.closed.Load() {
		p.drop()
		return 0, ErrClosed
	}
	h, ok := p.popFree(shard)
	if !ok {
		p.drop()
		p.failures.Add(1)
		return 0, ErrPoolExhausted
	}

	p.refs[h].Store(1)
	p.lens[h].Store(0)
	// A recycled buffer must never leak its previous request's trace
	// identity: flags (the sampling gate), the span word (a stale span ID
	// would parent the new request's spans) and the enqueue stamp (a stale
	// stamp fabricates queue-wait attribution) are all reset. The
	// load-then-store keeps the common case (previous user unsampled,
	// words already zero) plain reads: atomic stores are locked ops on
	// amd64, loads are not.
	t := &p.trace[h]
	if t.flags.Load() != 0 {
		t.flags.Store(0)
	}
	if t.span.Load() != 0 {
		t.span.Store(0)
	}
	if t.stamp.Load() != 0 {
		t.stamp.Store(0)
	}
	if t.objCarrier.Load() != 0 {
		t.objCarrier.Store(0)
	}
	p.allocs.Add(1)
	in = min(in, int64(len(p.refs))) // a failing getter's reservation may be in it
	for {
		hw := p.highWater.Load()
		if in <= hw || p.highWater.CompareAndSwap(hw, in) {
			break
		}
	}
	return h, nil
}

// initBuf makes a handle just popped from the freelist a live buffer with one
// reference, an empty payload and a clean trace header, as Get does. (Get and
// Put keep their own straight-line bodies rather than calling the helpers the
// bulk calls share: routed through them, two callers' throughput on the
// boutique chain read 7 % lower over three batches of alternating runs.)
func (p *Pool) initBuf(h uint32) {
	p.refs[h].Store(1)
	p.lens[h].Store(0)
	t := &p.trace[h] // reset for the reasons, and in the way, Get gives
	if t.flags.Load() != 0 {
		t.flags.Store(0)
	}
	if t.span.Load() != 0 {
		t.span.Store(0)
	}
	if t.stamp.Load() != 0 {
		t.stamp.Store(0)
	}
	if t.objCarrier.Load() != 0 {
		t.objCarrier.Store(0)
	}
}

// noteAllocs counts n buffers out, on top of the one reservation GetN holds,
// and raises the high-water mark.
func (p *Pool) noteAllocs(n int) {
	p.allocs.Add(uint64(n))
	in := min(p.inUse.Add(int64(n-1)), int64(len(p.refs)))
	for {
		hw := p.highWater.Load()
		if in <= hw || p.highWater.CompareAndSwap(hw, in) {
			return
		}
	}
}

// drop backs a reservation out of inUse. Then, as Put and PutN do once they
// have lowered the count, it returns the slab's mapping if the pool is closed
// and the count is zero. The count is read after closed: a zero seen then
// means no buffer is out and every getter still to come finds the pool
// closed, so nothing can reach the slab any more. The value the decrement
// returned would not do: a getter may since have reserved, found the pool
// open and taken a buffer, with Close landing after that.
func (p *Pool) drop() {
	p.inUse.Add(-1)
	if p.closed.Load() && p.inUse.Load() == 0 {
		p.unmap()
	}
}

// unmap returns the slab's mapping, once.
func (p *Pool) unmap() {
	if p.unmapped.CompareAndSwap(false, true) {
		unmapSlab(p.slab)
	}
}

// GetN allocates up to len(dst) buffers into dst, each with reference count
// 1, and returns how many it got — the rte_mempool_get_bulk analog for a
// caller that needs many slabs at once (a multi-slab object): the shard
// cursor, the counters and the high-water mark are touched once for the call
// and each shard's lock is taken once. The buffers come as an even share off
// the top of every shard — the most recently freed, so the warmest — rather
// than from one shard's depths; shards that cannot give their share are made
// up for by the others, and those extra handles count as steals. A short
// return is not a failure in Stats: the caller that cannot go on without the
// rest asks Get, which counts the exhaustion it meets. A closed pool gives 0.
func (p *Pool) GetN(dst []uint32) int {
	if len(dst) == 0 {
		return 0
	}
	// One reservation holds the slab mapped while the call pops, as in GetOn.
	p.inUse.Add(1)
	if p.closed.Load() {
		p.drop()
		return 0
	}
	start := p.cursor.Add(1)
	got := 0
	for pass := 0; got < len(dst); pass++ {
		share := (len(dst) - got + freelistShards - 1) / freelistShards
		before := got
		for i := uint32(0); i < freelistShards && got < len(dst); i++ {
			s := &p.shards[(start+i)&(freelistShards-1)]
			s.mu.Lock()
			k := min(share, len(s.list), len(dst)-got)
			for j := 0; j < k; j++ {
				dst[got+j] = s.list[len(s.list)-1-j]
			}
			s.list = s.list[:len(s.list)-k]
			s.mu.Unlock()
			got += k
		}
		if got == before {
			break // every shard is empty
		}
		if pass > 0 {
			p.steals.Add(uint64(got - before))
		}
	}
	for _, h := range dst[:got] {
		p.initBuf(h)
	}
	if got > 0 {
		p.noteAllocs(got)
	} else {
		p.drop()
	}
	return got
}

// Ref increments the reference count of a live buffer (multi-consumer
// fan-out in DFR pub/sub routing). Ref on a closed pool fails with
// ErrClosed: after Close has stopped allocations, a racing fan-out branch
// must not resurrect a handle and extend its lifetime past teardown.
func (p *Pool) Ref(h uint32) error {
	if int(h) >= len(p.refs) {
		return ErrBadHandle
	}
	if p.closed.Load() {
		return ErrClosed
	}
	for {
		r := p.refs[h].Load()
		if r <= 0 {
			return ErrNotOwned
		}
		if p.refs[h].CompareAndSwap(r, r+1) {
			return nil
		}
	}
}

// Put releases one reference; the buffer returns to the freelist when the
// count reaches zero.
func (p *Pool) Put(h uint32) error {
	if int(h) >= len(p.refs) {
		return ErrBadHandle
	}
	for {
		r := p.refs[h].Load()
		if r <= 0 {
			return ErrNotOwned
		}
		if !p.refs[h].CompareAndSwap(r, r-1) {
			continue
		}
		if r == 1 {
			p.frees.Add(1)
			p.inUse.Add(-1)
			// The freeing caller is the exclusive owner here: detach the
			// buffer's object handle before the handle can be recycled, so
			// the attached reference is released exactly once and never
			// against a successor request's object. The hook runs with no
			// pool locks held (it may re-enter Put for the object's slabs).
			var obj uint64
			if p.trace[h].obj.Load() != 0 {
				obj = p.trace[h].obj.Swap(0)
			}
			if p.trace[h].objCarrier.Load() != 0 {
				p.trace[h].objCarrier.Store(0)
			}
			if p.trace[h].topic.Load() != nil {
				p.trace[h].topic.Store(nil)
			}
			closed := p.closed.Load()
			if !closed {
				s := &p.shards[p.home(h)]
				s.mu.Lock()
				s.list = append(s.list, h)
				s.mu.Unlock()
			}
			if obj != 0 {
				if hook := p.objHook.Load(); hook != nil {
					(*hook)(obj)
				}
			}
			if closed && p.inUse.Load() == 0 {
				p.unmap() // the last buffer of a closed pool: see drop
			}
		}
		return nil
	}
}

// unref drops one reference of h and reports whether it was the last; a
// handle that is out of range or not allocated reports an error instead.
func (p *Pool) unref(h uint32) (last bool, err error) {
	if int(h) >= len(p.refs) {
		return false, ErrBadHandle
	}
	for {
		r := p.refs[h].Load()
		if r <= 0 {
			return false, ErrNotOwned
		}
		if p.refs[h].CompareAndSwap(r, r-1) {
			return r == 1, nil
		}
	}
}

// clearDead strips the headroom of a buffer whose last reference just went
// and returns the object handle it carried (0 when none). The freeing caller
// is the exclusive owner here: the object handle is detached before the buffer
// can be recycled, so the attached reference is released exactly once and
// never against a successor request's object.
func (p *Pool) clearDead(h uint32) (obj uint64) {
	t := &p.trace[h]
	if t.obj.Load() != 0 {
		obj = t.obj.Swap(0)
	}
	if t.objCarrier.Load() != 0 {
		t.objCarrier.Store(0)
	}
	if t.topic.Load() != nil {
		t.topic.Store(nil)
	}
	return obj
}

// releaseObj hands a dead buffer's object handle to the release hook. It runs
// with no pool locks held (the hook may re-enter Put for the object's slabs).
func (p *Pool) releaseObj(obj uint64) {
	if obj != 0 {
		if hook := p.objHook.Load(); hook != nil {
			(*hook)(obj)
		}
	}
}

// putChunk is how many handles PutN settles per pass: each pass takes each
// shard's lock at most once, and a 1 MiB object of 16 KiB slabs is one pass.
const putChunk = 64

// PutN releases one reference of every handle in hs, as len(hs) Put calls
// would — the rte_mempool_put_bulk analog: the counters are touched once per
// pass of putChunk handles and each home shard's lock once, however many of
// the buffers go back to it. A handle that is out of range or not allocated is
// skipped, as by a caller that ignores Put's error.
func (p *Pool) PutN(hs []uint32) {
	var dead [putChunk]uint32
	var homes [putChunk]uint32 // home is a division: once per handle, not once per handle and shard
	var objs [putChunk]uint64
	for len(hs) > 0 {
		chunk := hs[:min(len(hs), putChunk)]
		hs = hs[len(chunk):]
		n, shards := 0, uint32(0)
		for _, h := range chunk {
			if last, err := p.unref(h); err == nil && last {
				dead[n], homes[n], objs[n] = h, p.home(h), p.clearDead(h)
				shards |= 1 << homes[n]
				n++
			}
		}
		if n == 0 {
			continue
		}
		p.frees.Add(uint64(n))
		p.inUse.Add(-int64(n))
		closed := p.closed.Load()
		if !closed {
			for si := uint32(0); si < freelistShards; si++ {
				if shards&(1<<si) == 0 {
					continue
				}
				s := &p.shards[si]
				s.mu.Lock()
				for i, h := range dead[:n] {
					if homes[i] == si {
						s.list = append(s.list, h)
					}
				}
				s.mu.Unlock()
			}
		}
		for _, obj := range objs[:n] {
			p.releaseObj(obj)
		}
		if closed && p.inUse.Load() == 0 {
			p.unmap() // the last buffers of a closed pool: see drop
		}
	}
}

// popFree pops a handle, starting at shard start (mod the shard count) and
// stealing from the others when that one is empty. Only when every shard is empty is
// the pool exhausted.
func (p *Pool) popFree(start uint32) (uint32, bool) {
	for i := uint32(0); i < freelistShards; i++ {
		s := &p.shards[(start+i)&(freelistShards-1)]
		s.mu.Lock()
		if n := len(s.list); n > 0 {
			h := s.list[n-1]
			s.list = s.list[:n-1]
			s.mu.Unlock()
			if i > 0 {
				p.steals.Add(1)
			}
			return h, true
		}
		s.mu.Unlock()
	}
	return 0, false
}

// Bytes returns the full buffer backing slice for handle h. The returned
// slice aliases the pool slab: writes are zero-copy visible to every
// reference holder.
func (p *Pool) Bytes(h uint32) ([]byte, error) {
	if int(h) >= len(p.refs) {
		return nil, ErrBadHandle
	}
	if p.refs[h].Load() <= 0 {
		return nil, ErrNotOwned
	}
	off := int(h) * p.bufSize
	return p.slab[off : off+p.bufSize : off+p.bufSize], nil
}

// Write copies payload into buffer h and records its length. This is the
// single copy the SPRIGHT gateway performs when admitting an external
// request into the chain.
func (p *Pool) Write(h uint32, payload []byte) (int, error) {
	b, err := p.Bytes(h)
	if err != nil {
		return 0, err
	}
	if len(payload) > len(b) {
		return 0, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(payload), len(b))
	}
	n := copy(b, payload)
	p.lens[h].Store(int32(n))
	// The in-buffer payload is now authoritative: an attached object is a
	// rider again, not the message body.
	if p.trace[h].objCarrier.Load() != 0 {
		p.trace[h].objCarrier.Store(0)
	}
	return n, nil
}

// Payload returns the valid payload slice of buffer h (zero-copy view).
func (p *Pool) Payload(h uint32) ([]byte, error) {
	b, err := p.Bytes(h)
	if err != nil {
		return nil, err
	}
	return b[:p.lens[h].Load()], nil
}

// SetTraceContext installs tc in buffer h's trace header (gateway
// admission: the context then rides the buffer across every hop, fan-out
// branch and chain boundary without widening the 16-byte descriptor).
// Flags are stored last so a reader that observes TraceSampled also
// observes the trace ID.
func (p *Pool) SetTraceContext(h uint32, tc TraceContext) {
	if int(h) >= len(p.trace) {
		return
	}
	t := &p.trace[h]
	t.hi, t.lo = tc.TraceHi, tc.TraceLo
	t.span.Store(tc.Span)
	t.stamp.Store(0)
	t.flags.Store(tc.Flags)
}

// TraceContext returns buffer h's trace header (zero value when the buffer
// carries no sampled trace).
func (p *Pool) TraceContext(h uint32) TraceContext {
	if int(h) >= len(p.trace) {
		return TraceContext{}
	}
	t := &p.trace[h]
	fl := t.flags.Load()
	if fl == 0 {
		return TraceContext{}
	}
	return TraceContext{TraceHi: t.hi, TraceLo: t.lo, Span: t.span.Load(), Flags: fl}
}

// TraceSampled is the per-hop sampling gate: one atomic load decides
// whether a stage records spans for this buffer.
func (p *Pool) TraceSampled(h uint32) bool {
	return int(h) < len(p.trace) && p.trace[h].flags.Load()&TraceSampled != 0
}

// SetTraceSpan updates the span downstream stages parent onto (each
// handler installs its own span before forwarding).
func (p *Pool) SetTraceSpan(h uint32, span uint64) {
	if int(h) < len(p.trace) {
		p.trace[h].span.Store(span)
	}
}

// StampTrace records the enqueue time of the buffer's most recent send;
// the receiving side subtracts it from its dequeue time to produce the
// queue-wait span.
func (p *Pool) StampTrace(h uint32, unixNano int64) {
	if int(h) < len(p.trace) {
		p.trace[h].stamp.Store(unixNano)
	}
}

// TraceStamp returns the most recent enqueue stamp (0 when never stamped
// since admission).
func (p *Pool) TraceStamp(h uint32) int64 {
	if int(h) >= len(p.trace) {
		return 0
	}
	return p.trace[h].stamp.Load()
}

// SetObjHandle attaches an object handle to buffer h's headroom, returning
// the previously attached handle (0 when none). The handle rides the buffer
// across every hop and fan-out branch exactly like the trace context —
// descriptors stay 16 bytes. The caller transfers one object reference to
// the buffer; the pool's object release hook returns it when the buffer's
// last reference is released. A displaced previous handle is returned so
// the caller can release the reference it carried.
func (p *Pool) SetObjHandle(h uint32, obj uint64) (prev uint64) {
	if int(h) >= len(p.trace) {
		return 0
	}
	// A freshly attached (or detached) object starts as a rider; callers
	// for whom the object IS the payload (gateway large-payload admission,
	// Ctx.ReplyObject) assert that explicitly via SetObjCarrier afterwards.
	if p.trace[h].objCarrier.Load() != 0 {
		p.trace[h].objCarrier.Store(0)
	}
	return p.trace[h].obj.Swap(obj)
}

// SetObjCarrier marks (or unmarks) buffer h's attached object as being the
// message payload itself — the >BufSize carrier convention. The mark is
// cleared by any in-buffer payload write (Write), by SetObjHandle,
// and when the buffer is recycled, so it can never outlive the attachment
// that set it.
func (p *Pool) SetObjCarrier(h uint32, on bool) {
	if int(h) >= len(p.trace) {
		return
	}
	v := uint32(0)
	if on {
		v = 1
	}
	p.trace[h].objCarrier.Store(v)
}

// ObjCarrier reports whether buffer h's attached object is the message
// payload (the gateway assembles the external response from it) rather
// than an auxiliary rider.
func (p *Pool) ObjCarrier(h uint32) bool {
	return int(h) < len(p.trace) && p.trace[h].objCarrier.Load() != 0
}

// ObjHandle returns the object handle attached to buffer h (0 when none).
func (p *Pool) ObjHandle(h uint32) uint64 {
	if int(h) >= len(p.trace) {
		return 0
	}
	return p.trace[h].obj.Load()
}

// SetTopic records the routing topic of the message in buffer h. Only the
// holder of a reference may call it (gateway admission, and a hop whose
// handler changed the topic).
func (p *Pool) SetTopic(h uint32, topic string) {
	if int(h) >= len(p.trace) {
		return
	}
	t := &p.trace[h].topic
	if topic == "" {
		if t.Load() != nil {
			t.Store(nil)
		}
		return
	}
	s := topic // the copy that escapes: taking &topic would heap-allocate on every call
	t.Store(&s)
}

// Topic returns the routing topic recorded for buffer h ("" when none): one
// atomic load, the per-hop read DFR makes before running a handler.
func (p *Pool) Topic(h uint32) string {
	if int(h) < len(p.trace) {
		if t := p.trace[h].topic.Load(); t != nil {
			return *t
		}
	}
	return ""
}

// SetObjReleaseHook installs the callback that receives each dying buffer's
// attached object handle — the object store registers itself here so object
// lifetime follows request/buffer lifetime. The hook runs on the goroutine
// performing the final Put, with no pool locks held; it may call back into
// the pool (the store releases the object's slab buffers through Put).
func (p *Pool) SetObjReleaseHook(hook func(obj uint64)) {
	if hook == nil {
		p.objHook.Store(nil)
		return
	}
	p.objHook.Store(&hook)
}

// InUse returns the number of currently allocated buffers — the chain's
// instantaneous queue occupancy, and the quantity that must reach zero at
// teardown for the dataplane to be leak-free.
func (p *Pool) InUse() int { return int(p.inUse.Load()) }

// LeakCheck reports buffers still holding references: the invariant every
// dataplane failure path must preserve is that LeakCheck returns nil once
// all in-flight work has drained. The error names the leaked handles and
// their residual reference counts.
func (p *Pool) LeakCheck() error {
	var leaked []string
	for i := range p.refs {
		if r := p.refs[i].Load(); r > 0 {
			leaked = append(leaked, fmt.Sprintf("buf %d (refs=%d)", i, r))
		}
	}
	if len(leaked) == 0 {
		return nil
	}
	return fmt.Errorf("shm: pool %q leaked %d buffers: %s",
		p.prefix, len(leaked), strings.Join(leaked, ", "))
}

// Stats returns a snapshot of allocation statistics.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Capacity:  len(p.refs),
		BufSize:   p.bufSize,
		InUse:     int(p.inUse.Load()),
		Allocs:    p.allocs.Load(),
		Frees:     p.frees.Load(),
		Failures:  p.failures.Load(),
		HighWater: int(p.highWater.Load()),
		Steals:    p.steals.Load(),
	}
}

// Close marks the pool closed; outstanding buffers stay readable until
// released but no new allocations succeed. The slab's mapping is returned
// now if no buffer is out, else by the release of the last one; a pool that
// never drains (a leak LeakCheck reports) keeps it. Closing twice is harmless.
func (p *Pool) Close() {
	p.closed.Store(true)
	if p.inUse.Load() == 0 {
		p.unmap()
	}
}

package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/ring"
	"github.com/spright-go/spright/internal/shm"
)

// Transport moves packet descriptors between the sockets of one chain.
// S-SPRIGHT uses the event-driven SPROXY (sockmap redirect); D-SPRIGHT uses
// DPDK-style polled rings. Both carry the identical 16-byte descriptors —
// the comparison of §3.2.2 is purely about the delivery mechanism.
type Transport interface {
	// Register binds an instance's socket to the transport.
	Register(s *Socket) error
	// Unregister removes an instance.
	Unregister(id uint32) error
	// Send delivers d from instance src to d.NextFn.
	Send(src uint32, d shm.Descriptor) error
	// sendOrClaim is Send by a sender that says which stripe it is on, and
	// that may rather run the next handler than wake someone to: given
	// by.home, the worker's own socket, and a destination instance that grants
	// it a slot (Socket.claimFor), it returns the grant and queues nothing.
	// Otherwise d is delivered as Send would, and a hop that wanted a claim is
	// counted on the destination as queued. The filter verdict comes first
	// either way.
	sendOrClaim(src uint32, d shm.Descriptor, by sender) (grant, error)
	// SendBatch delivers a burst of descriptors from src, each to its own
	// NextFn, amortizing per-send setup (VM exec state, ring reservation)
	// across the burst. It returns the number delivered; onErr (which may
	// be nil) is invoked with the index and error of each failure.
	SendBatch(src uint32, ds []shm.Descriptor, onErr func(i int, err error)) int
	// Allow authorizes src→dst traffic (security domain filter).
	Allow(src, dst uint32) error
	// SetDropHandler installs the callback invoked with every descriptor
	// the transport had accepted but could not deliver: its ring stopped
	// with the descriptor still in it. The chain uses it to reclaim the
	// descriptor's buffer and fail its caller instead of leaking both. Event
	// transports deliver synchronously and report failures to the sender, so
	// they never invoke it.
	SetDropHandler(fn func(d shm.Descriptor))
	// Close stops the transport: every ring, and with it the instance worker
	// spinning on it. The workers are waited for by their instances.
	Close()
}

// sender is the goroutine making a send: the stripe it is on (ebpf.Stripes) —
// where the hop's program run counts and which copy of the metrics map it
// bumps, and whose sub-budget a claim tries first — and, for a function worker
// that would rather run the next handler than wake someone to, its own socket.
// The zero sender is on the stripe of those that have none and claims nothing.
type sender struct {
	stripe uint32
	home   *Socket
}

// Mode selects the transport implementation.
type Mode int

// Transport modes.
const (
	// ModeEvent is S-SPRIGHT: eBPF SK_MSG + sockmap, zero CPU when idle.
	ModeEvent Mode = iota
	// ModePolling is D-SPRIGHT: every instance has a ring and one of its own
	// workers busy-polling it, which runs the handler of what it dequeues and
	// then follows the request as a ModeEvent worker does. The gateway has
	// neither ring nor poller: a reply is finished by the worker that sends it.
	ModePolling
)

func (m Mode) String() string {
	if m == ModePolling {
		return "D-SPRIGHT (polling)"
	}
	return "S-SPRIGHT (event-driven)"
}

// eventTransport delegates everything to the SPROXY.
type eventTransport struct {
	sp *SProxy
}

// NewEventTransport wraps a SPROXY as a Transport.
func NewEventTransport(sp *SProxy) Transport { return &eventTransport{sp: sp} }

func (t *eventTransport) Register(s *Socket) error                { return t.sp.RegisterSocket(s) }
func (t *eventTransport) Unregister(id uint32) error              { return t.sp.UnregisterSocket(id) }
func (t *eventTransport) Send(src uint32, d shm.Descriptor) error { return t.sp.Send(src, d) }
func (t *eventTransport) sendOrClaim(src uint32, d shm.Descriptor, by sender) (grant, error) {
	return t.sp.sendOrClaim(src, d, by)
}
func (t *eventTransport) SendBatch(src uint32, ds []shm.Descriptor, onErr func(i int, err error)) int {
	return t.sp.SendBatch(src, ds, onErr)
}
func (t *eventTransport) Allow(src, dst uint32) error         { return t.sp.Allow(src, dst) }
func (t *eventTransport) SetDropHandler(func(shm.Descriptor)) {}
func (t *eventTransport) Close()                              {}

// descWords is how many ring slots one 16-byte descriptor occupies when
// packed directly into the ring (two uint64 words — the D-SPRIGHT analog
// of carrying the mbuf inline instead of a pointer to it).
const descWords = 2

// packDesc / unpackDesc convert a descriptor to and from its two-word ring
// representation.
func packDesc(d shm.Descriptor) (uint64, uint64) {
	return uint64(d.NextFn) | uint64(d.Buf)<<32, uint64(d.Len) | uint64(d.Caller)<<32
}

func unpackDesc(w0, w1 uint64) shm.Descriptor {
	return shm.Descriptor{
		NextFn: uint32(w0), Buf: uint32(w0 >> 32),
		Len: uint32(w1), Caller: uint32(w1 >> 32),
	}
}

// unpackBurst decodes the word pairs of one dequeue into batch and returns how
// many descriptors that was.
func unpackBurst(words []uint64, batch []shm.Descriptor) int {
	k := 0
	for i := 0; i+descWords <= len(words); i += descWords {
		batch[k] = unpackDesc(words[i], words[i+1])
		k++
	}
	return k
}

// ringEntry is one registered socket's place in the table and, for an
// instance's socket, its D-SPRIGHT queue. Descriptors are packed inline as
// word pairs; EnqueueBulk's single-reservation contiguity guarantee is what
// makes this safe under concurrent producers — a pair can never interleave
// with another producer's pair, so the consumer can decode the stream two
// words at a time. One reservation per send, no side table, no allocation.
//
// The ring is polled by the instance's own workers, one at a time (take):
// polling is the flag a worker holds while it spins, and wake is where the
// others park. The worker gives the flag up before its first handler and is
// away for the whole chain it then follows (Instance.work), not for one
// handler: an arrival meanwhile finds the flag clear and wakes a parked
// worker, or with Concurrency 1 waits in the ring as it waits in the channel
// in ModeEvent. A socket without an instance — the gateway's sink — has no
// workers and so no ring (r is nil): its entry is there for route's lookup and
// filter verdict, and a send to it is a Deliver on the sender's goroutine.
//
// Two pairs of operations keep a descriptor from sitting in a ring nobody
// will look at. A producer publishes and then loads polling, and wakes a
// parked worker if it is clear; a worker clears polling and then reads the
// ring's length, and wakes a parked worker if it is not zero — at least one of
// the two sees the other. And stop sets stopped and then has the ring emptied
// (stop), while a producer that resolved the entry before it left the table
// publishes and then loads stopped, and drains the ring itself through the
// drop handler if it is set — so none is stranded in a dead ring either.
type ringEntry struct {
	t    *ringTransport
	r    *ring.Ring // nil for a socket without an instance
	sock *Socket

	stopped atomic.Bool
	polling atomic.Bool   // a goroutine is spinning on r
	wake    chan struct{} // one token: a parked worker should look again
}

// wakeOne lets one parked worker (the next to park, if none is) look again.
func (e *ringEntry) wakeOne() {
	select {
	case e.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// published is a producer's step after its descriptors are in the ring.
func (e *ringEntry) published() {
	if e.stopped.Load() {
		e.t.drainRing(e)
	} else if !e.polling.Load() {
		e.wakeOne()
	}
}

// stop ends the entry. The instance's workers may all be inside handlers, so
// the ring is drained here — what an instance that is going away still had
// queued goes to the drop handler: descriptors accepted into the ring own a
// shared-memory buffer reference, so abandoning them would leak the pool slab
// and blackhole the caller — and one parked worker is woken to exit, which
// passes the token on to the next (take).
func (e *ringEntry) stop() {
	e.stopped.Store(true)
	if e.r != nil {
		e.t.drainRing(e)
		e.wakeOne()
	}
}

// take is an instance worker's receive in ModePolling. At most one worker
// spins on the ring; it takes one descriptor and gives the ring up before it
// returns to run the handler — and whatever handlers it claims downstream —
// so a handler that blocks never stalls the ring: the next arrival finds
// polling clear and wakes a parked worker. false means the entry was stopped
// and the worker should exit.
func (e *ringEntry) take() (shm.Descriptor, bool) {
	var words [descWords]uint64
	for {
		if e.stopped.Load() {
			e.wakeOne()
			return shm.Descriptor{}, false
		}
		if !e.polling.CompareAndSwap(false, true) {
			<-e.wake
			continue
		}
		n := e.r.PollDequeueBurst(words[:], e.stopped.Load)
		e.polling.Store(false)
		if n == 0 {
			continue
		}
		d := unpackDesc(words[0], words[1])
		if d.Buf == retireBuf {
			e.wakeOne() // the retiring worker's successor at the ring
			return d, true
		}
		if e.r.Len() != 0 {
			e.wakeOne() // more work behind this descriptor: a second worker, now
		}
		e.t.dequeued(e, d)
		e.sock.stripes[0].delivered.Add(1) // one worker at a time is at the ring
		return d, true
	}
}

// sendTo packs d into e's ring with one bulk reservation. A refused bulk
// means fewer than two slots were free — the ring is full. A socket that has
// no ring takes d directly: a reply runs the gateway's sink here, and a closed
// socket fails the sender, which is on stripe, with ErrSocketClosed as it
// does in ModeEvent.
func (t *ringTransport) sendTo(e *ringEntry, d shm.Descriptor, stripe uint32) error {
	if e.r == nil {
		return e.sock.deliver(d, stripe)
	}
	w0, w1 := packDesc(d)
	if e.r.EnqueueBulk([]uint64{w0, w1}) == 0 {
		return ErrSocketFull
	}
	e.published()
	return nil
}

// ringTables is the routing state a send reads: the registered entries and
// the allowed src→dst edges. A published value is never modified.
type ringTables struct {
	entries map[uint32]*ringEntry
	allowed map[uint64]bool
}

// ringTransport is the D-SPRIGHT path: every instance owns an RTE ring that
// one of its workers busy-polls — the "continuously consumes significant CPUs
// independent of traffic intensity" behaviour the paper measures.
type ringTransport struct {
	// tables is what Send reads, without a lock. Writers (Register,
	// Unregister, Allow, Close) serialize on mu, copy the map they change and
	// publish the new pair before they return.
	tables atomic.Pointer[ringTables]
	mu     sync.Mutex
	closed bool // under mu: Close has stopped every entry

	// drop is invoked for descriptors the transport accepted into a ring
	// but could not deliver (entry stopped with a backlog); set once by the
	// chain before traffic starts.
	drop atomic.Pointer[func(shm.Descriptor)]

	// onDequeue is invoked by the consumer for every dequeued descriptor,
	// returning the measured ring residency for traced descriptors (0
	// otherwise); set once by the chain before traffic starts.
	onDequeue atomic.Pointer[func(shm.Descriptor) time.Duration]
}

// ringDepth is each instance's RTE ring capacity in slots (descWords slots
// per queued descriptor).
const ringDepth = 2048

// pollBurst is the most descriptors one ring reservation carries: a fan-out
// group's bulk enqueue, a stopped ring's drain.
const pollBurst = 64

// NewRingTransport creates an empty polled transport.
func NewRingTransport() Transport {
	t := &ringTransport{}
	t.tables.Store(&ringTables{entries: map[uint32]*ringEntry{}, allowed: map[uint64]bool{}})
	return t
}

// Register enters s in the table, and gives it a ring if it has an instance
// whose workers will poll one (Socket.next).
func (t *ringTransport) Register(s *Socket) error {
	e := &ringEntry{t: t, sock: s}
	if s.inst != nil {
		r, err := ring.New(ringDepth, ring.MP)
		if err != nil {
			return err
		}
		e.r, e.wake = r, make(chan struct{}, 1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("core: ring transport closed")
	}
	old := t.tables.Load()
	if _, dup := old.entries[s.SockID()]; dup {
		return fmt.Errorf("core: instance %d already registered", s.SockID())
	}
	if e.r != nil {
		s.ring = e
	}
	entries := maps.Clone(old.entries)
	entries[s.SockID()] = e
	t.tables.Store(&ringTables{entries: entries, allowed: old.allowed})
	return nil
}

// dequeued runs the dequeue hook for one descriptor off e's ring.
func (t *ringTransport) dequeued(e *ringEntry, d shm.Descriptor) {
	if hook := t.onDequeue.Load(); hook != nil {
		if w := (*hook)(d); w > 0 {
			e.r.NoteWait(int64(w))
		}
	}
}

// dropAll records and reclaims descriptors the transport is abandoning;
// retire tokens among them carry no buffer and are discarded.
func (t *ringTransport) dropAll(e *ringEntry, ds []shm.Descriptor) {
	fn := t.drop.Load()
	for _, d := range ds {
		if d.Buf == retireBuf {
			continue
		}
		e.sock.noteDrop()
		if fn != nil {
			(*fn)(d)
		}
	}
}

// drainRing empties a stopped entry's ring through the drop handler. The
// ring is multi-consumer and reservations are whole descriptors, so stop's
// drain, a late sender's and a worker's last dequeue may run at once.
func (t *ringTransport) drainRing(e *ringEntry) {
	var words [pollBurst * descWords]uint64
	var batch [pollBurst]shm.Descriptor
	for {
		n := e.r.DequeueBurst(words[:])
		if n == 0 {
			return
		}
		t.dropAll(e, batch[:unpackBurst(words[:n], batch[:])])
	}
}

func (t *ringTransport) SetDropHandler(fn func(shm.Descriptor)) {
	if fn != nil {
		t.drop.Store(&fn)
	}
}

// SetDequeueHook installs the per-descriptor dequeue callback (queue-wait
// attribution for sampled traces).
func (t *ringTransport) SetDequeueHook(fn func(shm.Descriptor) time.Duration) {
	if fn != nil {
		t.onDequeue.Store(&fn)
	}
}

// RingQueueStat is one instance ring's occupancy and flow counters, read
// by the observability exporter.
type RingQueueStat struct {
	Instance uint32
	Stats    ring.Stats
}

// ringStats snapshots every registered ring's counters.
func (t *ringTransport) ringStats() []RingQueueStat {
	entries := t.tables.Load().entries
	out := make([]RingQueueStat, 0, len(entries))
	for id, e := range entries {
		if e.r != nil {
			out = append(out, RingQueueStat{Instance: id, Stats: e.r.Stats()})
		}
	}
	return out
}

// Unregister removes id from the table — no send that starts after it returns
// is routed there — and stops its entry: the ring's backlog goes to the drop
// handler and the worker polling it leaves. It does not wait for that worker
// (a repair must not block on it); the instance's shutdown does.
func (t *ringTransport) Unregister(id uint32) error {
	t.mu.Lock()
	old := t.tables.Load()
	e, ok := old.entries[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("core: instance %d not registered", id)
	}
	entries := maps.Clone(old.entries)
	delete(entries, id)
	t.tables.Store(&ringTables{entries: entries, allowed: old.allowed})
	t.mu.Unlock()
	e.stop() // outside mu: the drop handler runs the chain's reclaim path
	return nil
}

func (t *ringTransport) Allow(src, dst uint32) error {
	key := uint64(src)<<32 | uint64(dst)
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.tables.Load()
	if old.allowed[key] {
		return nil
	}
	allowed := maps.Clone(old.allowed)
	allowed[key] = true
	t.tables.Store(&ringTables{entries: old.entries, allowed: allowed})
	return nil
}

// route resolves the destination entry and the filter verdict for one hop
// from the published tables.
func (t *ringTransport) route(src, dst uint32) (*ringEntry, error) {
	tb := t.tables.Load()
	e, ok := tb.entries[dst]
	if !ok {
		return nil, fmt.Errorf("%w: instance %d", ErrNoSuchFn, dst)
	}
	if !tb.allowed[uint64(src)<<32|uint64(dst)] {
		return nil, fmt.Errorf("%w: %d -> %d", ErrFiltered, src, dst)
	}
	return e, nil
}

func (t *ringTransport) Send(src uint32, d shm.Descriptor) error {
	_, err := t.sendOrClaim(src, d, sender{})
	return err
}

// sendOrClaim is one hop: the filter verdict, then the claim if by.home asks
// for one and the destination has workers to claim from, then the ring.
func (t *ringTransport) sendOrClaim(src uint32, d shm.Descriptor, by sender) (grant, error) {
	e, err := t.route(src, d.NextFn)
	if err != nil {
		return grant{}, err
	}
	if by.home == nil || e.r == nil {
		return grant{}, t.sendTo(e, d, by.stripe)
	}
	if slot, ok := e.sock.claimFor(by); ok {
		return grant{e.sock.inst, slot}, nil
	}
	if err = t.sendTo(e, d, by.stripe); err == nil {
		e.sock.queuedHops.Add(1)
	}
	return grant{}, err
}

// SendBatch groups consecutive same-destination descriptors and inserts
// each group with one bulk ring reservation (rte_ring_enqueue_bulk). A
// group that does not fit wholesale — bulk is all-or-nothing — retries
// descriptor-at-a-time so a nearly full ring still accepts what it can.
func (t *ringTransport) SendBatch(src uint32, ds []shm.Descriptor, onErr func(i int, err error)) int {
	delivered := 0
	fail := func(i int, err error) {
		if onErr != nil {
			onErr(i, err)
		}
	}
	var words [pollBurst * descWords]uint64
	for start := 0; start < len(ds); {
		dst := ds[start].NextFn
		end := start + 1
		for end < len(ds) && ds[end].NextFn == dst && end-start < pollBurst {
			end++
		}
		e, err := t.route(src, dst)
		if err != nil {
			for i := start; i < end; i++ {
				fail(i, err)
			}
			start = end
			continue
		}
		// Pack a group and publish it with one all-or-nothing bulk
		// reservation — contiguous in the ring, one CAS for the burst. One
		// descriptor is not a group, and a sink socket has no ring to pack
		// one into.
		if n := end - start; n > 1 && e.r != nil {
			for i := 0; i < n; i++ {
				words[i*descWords], words[i*descWords+1] = packDesc(ds[start+i])
			}
			if e.r.EnqueueBulk(words[:n*descWords]) > 0 {
				delivered += n
				e.published()
				start = end
				continue
			}
			// Bulk refused (not enough free slots): per-descriptor sends, so
			// a nearly full ring still accepts what it can.
		}
		for i := start; i < end; i++ {
			if err := t.sendTo(e, ds[i], 0); err != nil {
				fail(i, err)
			} else {
				delivered++
			}
		}
		start = end
	}
	return delivered
}

// Close stops every entry. The workers at the rings are waited for by their
// instances (Instance.shutdown).
func (t *ringTransport) Close() {
	t.mu.Lock()
	t.closed = true
	entries := t.tables.Load().entries
	t.mu.Unlock()
	for _, e := range entries {
		e.stop()
	}
}

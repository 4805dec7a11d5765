package core

import (
	"errors"
	"fmt"
	"runtime"
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
	// SendBatch delivers a burst of descriptors from src, each to its own
	// NextFn, amortizing per-send setup (VM exec state, ring reservation)
	// across the burst. It returns the number delivered; onErr (which may
	// be nil) is invoked with the index and error of each failure.
	SendBatch(src uint32, ds []shm.Descriptor, onErr func(i int, err error)) int
	// Allow authorizes src→dst traffic (security domain filter).
	Allow(src, dst uint32) error
	// SetDropHandler installs the callback invoked with every descriptor
	// the transport had accepted but could not deliver (destination socket
	// closed, or full past the retry budget at shutdown). The chain uses
	// it to reclaim the descriptor's buffer and fail its caller instead of
	// leaking both. Event transports deliver synchronously and report
	// failures to the sender, so they never invoke it.
	SetDropHandler(fn func(d shm.Descriptor))
	// Close stops the transport (and any pollers).
	Close()
}

// Mode selects the transport implementation.
type Mode int

// Transport modes.
const (
	// ModeEvent is S-SPRIGHT: eBPF SK_MSG + sockmap, zero CPU when idle.
	ModeEvent Mode = iota
	// ModePolling is D-SPRIGHT: one busy-polling consumer per socket.
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

// ringEntry is one registered socket's D-SPRIGHT queue. Descriptors are
// packed inline as word pairs; EnqueueBulk's single-reservation contiguity
// guarantee is what makes this safe under concurrent producers — a pair
// can never interleave with another producer's pair, so the consumer can
// decode the stream two words at a time. One reservation per send, no
// side table, no allocation.
//
// stopped ends the entry's poller: Unregister sets it for one socket,
// Close for all of them. A sender that resolved the entry before it left
// the table may still publish into the ring after the poller's last pass,
// so every send re-checks the flag after publishing and, finding it set,
// drains the ring itself — whichever of the two drains sees the descriptor
// hands it to the drop handler, so none is stranded in a dead ring.
type ringEntry struct {
	r       *ring.Ring
	sock    *Socket
	stopped atomic.Bool
}

// sendTo packs d into e's ring with one bulk reservation. A refused bulk
// means fewer than two slots were free — the ring is full.
func (t *ringTransport) sendTo(e *ringEntry, d shm.Descriptor) error {
	w0, w1 := packDesc(d)
	if e.r.EnqueueBulk([]uint64{w0, w1}) == 0 {
		return ErrSocketFull
	}
	if e.stopped.Load() {
		t.drainRing(e)
	}
	return nil
}

// ringTransport is the D-SPRIGHT path: every socket owns an RTE ring; a
// dedicated poller goroutine spins on rte_ring_dequeue and pushes into the
// socket — the "continuously consumes significant CPUs independent of
// traffic intensity" behaviour the paper measures.
type ringTransport struct {
	mu      sync.RWMutex
	entries map[uint32]*ringEntry
	allowed map[uint64]bool
	closed  bool // under mu: Close has stopped every entry
	wg      sync.WaitGroup

	// drop is invoked for descriptors the transport accepted into a ring
	// but could not deliver (socket closed or shutdown mid-backlog); set
	// once by the chain before traffic starts.
	drop atomic.Pointer[func(shm.Descriptor)]

	// onDequeue is invoked in the poller for every dequeued descriptor,
	// returning the measured ring residency for traced descriptors (0
	// otherwise); set once by the chain before traffic starts.
	onDequeue atomic.Pointer[func(shm.Descriptor) time.Duration]
}

// ringDepth is each instance's RTE ring capacity in slots (descWords slots
// per queued descriptor).
const ringDepth = 2048

// pollBurst is how many descriptors one poller wakeup drains — the burst
// size of rte_ring_dequeue_burst in the consumer loop.
const pollBurst = 64

// NewRingTransport creates an empty polled transport.
func NewRingTransport() Transport {
	return &ringTransport{
		entries: make(map[uint32]*ringEntry),
		allowed: make(map[uint64]bool),
	}
}

func (t *ringTransport) Register(s *Socket) error {
	r, err := ring.New(ringDepth, ring.MP)
	if err != nil {
		return err
	}
	e := &ringEntry{r: r, sock: s}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("core: ring transport closed")
	}
	if _, dup := t.entries[s.SockID()]; dup {
		return fmt.Errorf("core: instance %d already registered", s.SockID())
	}
	t.entries[s.SockID()] = e
	t.wg.Add(1) // under mu, so never concurrent with Close's Wait
	go t.poll(e)
	return nil
}

// poll is the per-socket consumer: drain a burst of descriptor word pairs
// in one ring reservation, decode them, and hand the whole burst to the
// instance's socket in one wakeup. The out buffer is an even number of
// words and producers only ever publish whole pairs, so a burst never
// splits a descriptor. The poller runs until its entry is stopped —
// Unregister for this socket alone, Close for all — and on exit drains
// whatever the ring still holds through the drop handler: descriptors
// accepted into the ring own a shared-memory buffer reference, so abandoning
// them would leak the pool slab and blackhole the caller.
func (t *ringTransport) poll(e *ringEntry) {
	defer t.wg.Done()
	var words [pollBurst * descWords]uint64
	var batch [pollBurst]shm.Descriptor
	for {
		n := e.r.PollDequeueBurst(words[:], e.stopped.Load)
		if n == 0 {
			t.drainRing(e)
			return
		}
		k := 0
		for i := 0; i+descWords <= n; i += descWords {
			batch[k] = unpackDesc(words[i], words[i+1])
			k++
		}
		if hook := t.onDequeue.Load(); hook != nil {
			for i := 0; i < k; i++ {
				if w := (*hook)(batch[i]); w > 0 {
					e.r.NoteWait(int64(w))
				}
			}
		}
		t.deliverAll(e, batch[:k])
	}
}

// deliverAll pushes a dequeued burst into the socket, retrying the
// un-enqueued tail of a partial DeliverBatch. Once dequeued, these
// descriptors are the poller's responsibility: a full socket queue is
// waited out with backoff (the ring, not the socket, provides the loss
// point), and only a closed socket or a stopped entry converts the tail
// into drops, each reclaimed through the drop handler.
func (t *ringTransport) deliverAll(e *ringEntry, ds []shm.Descriptor) {
	sleep := time.Microsecond
	for spins := 0; len(ds) > 0; spins++ {
		n, err := e.sock.DeliverBatch(ds)
		ds = ds[n:]
		if len(ds) == 0 {
			return
		}
		if errors.Is(err, ErrSocketClosed) || e.stopped.Load() {
			t.dropAll(e, ds)
			return
		}
		// Queue full with a live consumer: back off and retry the tail.
		if spins < closeSpinBudget {
			runtime.Gosched()
			continue
		}
		time.Sleep(sleep)
		if sleep < time.Millisecond {
			sleep *= 2
		}
	}
}

// dropAll records and reclaims descriptors the poller is abandoning.
func (t *ringTransport) dropAll(e *ringEntry, ds []shm.Descriptor) {
	fn := t.drop.Load()
	for _, d := range ds {
		e.sock.noteDrop()
		if fn != nil {
			(*fn)(d)
		}
	}
}

// drainRing empties a stopped entry's ring through the drop handler. The
// ring is multi-consumer and reservations are whole descriptors, so the
// poller's exit drain and a late sender's may run at once.
func (t *ringTransport) drainRing(e *ringEntry) {
	var words [pollBurst * descWords]uint64
	for {
		n := e.r.DequeueBurst(words[:])
		if n == 0 {
			return
		}
		for i := 0; i+descWords <= n; i += descWords {
			d := unpackDesc(words[i], words[i+1])
			e.sock.noteDrop()
			if fn := t.drop.Load(); fn != nil {
				(*fn)(d)
			}
		}
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]RingQueueStat, 0, len(t.entries))
	for id, e := range t.entries {
		out = append(out, RingQueueStat{Instance: id, Stats: e.r.Stats()})
	}
	return out
}

// Unregister removes id from the table and stops its poller, which drains
// the ring through the drop handler on its way out. It does not wait for the
// poller (a repair must not block on it); Close does.
func (t *ringTransport) Unregister(id uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("core: instance %d not registered", id)
	}
	delete(t.entries, id)
	e.stopped.Store(true)
	return nil
}

func (t *ringTransport) Allow(src, dst uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allowed[uint64(src)<<32|uint64(dst)] = true
	return nil
}

// route resolves the destination entry and the filter verdict for one hop.
func (t *ringTransport) route(src, dst uint32) (*ringEntry, error) {
	t.mu.RLock()
	e, ok := t.entries[dst]
	allowed := t.allowed[uint64(src)<<32|uint64(dst)]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: instance %d", ErrNoSuchFn, dst)
	}
	if !allowed {
		return nil, fmt.Errorf("%w: %d -> %d", ErrFiltered, src, dst)
	}
	return e, nil
}

func (t *ringTransport) Send(src uint32, d shm.Descriptor) error {
	e, err := t.route(src, d.NextFn)
	if err != nil {
		return err
	}
	return t.sendTo(e, d)
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
		n := end - start
		if n == 1 {
			if err := t.sendTo(e, ds[start]); err != nil {
				fail(start, err)
			} else {
				delivered++
			}
			start = end
			continue
		}
		// Pack the group and publish it with one all-or-nothing bulk
		// reservation — contiguous in the ring, one CAS for the burst.
		for i := 0; i < n; i++ {
			words[i*descWords], words[i*descWords+1] = packDesc(ds[start+i])
		}
		if e.r.EnqueueBulk(words[:n*descWords]) > 0 {
			delivered += n
			if e.stopped.Load() {
				t.drainRing(e)
			}
		} else {
			// Bulk refused (not enough free slots): fall back to
			// per-descriptor sends so a nearly full ring still accepts
			// what it can.
			for i := start; i < end; i++ {
				if err := t.sendTo(e, ds[i]); err != nil {
					fail(i, err)
				} else {
					delivered++
				}
			}
		}
		start = end
	}
	return delivered
}

func (t *ringTransport) Close() {
	t.mu.Lock()
	t.closed = true
	for _, e := range t.entries {
		e.stopped.Store(true)
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// Package ring implements a DPDK-style lock-free ring buffer (rte_ring) for
// passing packet descriptors between producers and busy-polling consumers.
// It is the transport behind D-SPRIGHT, the paper's polling-based
// shared-memory baseline (§3.2.2, Appendix A Fig. 14).
//
// The ring is a power-of-two circular buffer of uint64 slots synchronized
// by the rte_ring head/tail protocol: each side keeps a *head* (next index
// to reserve) and a *tail* (last index published). An operation reserves
// its whole span with one CAS on the head, copies its items with plain
// loads/stores — the span is exclusively owned — and then publishes by
// advancing the tail once its predecessors have published theirs. Bulk
// operations therefore cost one reservation regardless of burst size, and
// a reservation is inherently all-or-nothing and contiguous.
package ring

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// Mode selects the ring's synchronization discipline. MP is the only one:
// every ring in the dataplane has several producers. The type stays because
// callers name it (bench/probes.go passes ring.MP), as rte_ring_create's
// flags are named.
type Mode int

// MP is multi-producer / multi-consumer (rte_ring flags = 0, the
// configuration used by the paper).
const MP Mode = 0

// Common ring errors.
var (
	ErrFull  = errors.New("ring: full")
	ErrEmpty = errors.New("ring: empty")
)

// pad keeps the two indices of one side, and the two sides from each
// other, on separate cache lines so producers and consumers do not
// false-share.
type pad [7]uint64

// Ring is a fixed-capacity lock-free FIFO of uint64 items (descriptor
// words; D-SPRIGHT enqueues arena slot indices with the 16-byte descriptor
// kept in shared memory, as DPDK rings carry mbuf pointers).
type Ring struct {
	mask  uint64
	slots []uint64

	_        pad
	prodHead atomic.Uint64 // next producer index to reserve
	_        pad
	prodTail atomic.Uint64 // producer index published to consumers
	_        pad
	consHead atomic.Uint64 // next consumer index to reserve
	_        pad
	consTail atomic.Uint64 // consumer index published to producers
	_        pad

	// flow counters for the observability exporter; padded off the
	// head/tail lines so scraping them never contends with the protocol.
	enqueues atomic.Uint64 // items accepted
	dequeues atomic.Uint64 // items removed
	fulls    atomic.Uint64 // refused reservations (ring full)

	// queue-wait accounting: enqueue→dequeue residency of sampled
	// descriptors, fed by the transport's dequeue hook (NoteWait). A
	// sampled estimate — the ring itself never reads the clock.
	waitNanos atomic.Uint64
	waits     atomic.Uint64
	_         pad
}

// New creates a ring with capacity rounded up to the next power of two.
// Capacity must be at least 2, and mode must be MP. The full capacity is usable: indices are
// unbounded monotonic counters, so no slot is sacrificed to distinguish
// full from empty.
func New(capacity int, mode Mode) (*Ring, error) {
	if capacity < 2 {
		return nil, fmt.Errorf("ring: capacity %d too small", capacity)
	}
	if mode != MP {
		return nil, fmt.Errorf("ring: unknown mode %d", mode)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring{
		mask:  uint64(n - 1),
		slots: make([]uint64, n),
	}, nil
}

// reserveProd claims n consecutive producer slots, returning the start
// index. ok is false when fewer than n slots are free (nothing is
// reserved — the all-or-nothing half of bulk semantics).
func (r *Ring) reserveProd(n uint64) (uint64, bool) {
	size := uint64(len(r.slots))
	for {
		head := r.prodHead.Load()
		if size-(head-r.consTail.Load()) < n {
			return 0, false
		}
		if r.prodHead.CompareAndSwap(head, head+n) {
			return head, true
		}
	}
}

// publishProd makes [head, head+n) visible to consumers. A producer that
// reserved later than a still-copying predecessor waits for the
// predecessor's publication, preserving FIFO order.
func (r *Ring) publishProd(head, n uint64) {
	for r.prodTail.Load() != head {
		runtime.Gosched()
	}
	r.prodTail.Store(head + n)
}

// reserveCons claims up to want published items, returning the start index
// and the claimed count (0 when the ring is empty).
func (r *Ring) reserveCons(want uint64) (uint64, uint64) {
	for {
		head := r.consHead.Load()
		avail := r.prodTail.Load() - head
		if avail == 0 {
			return 0, 0
		}
		if avail > want {
			avail = want
		}
		if r.consHead.CompareAndSwap(head, head+avail) {
			return head, avail
		}
	}
}

// publishCons returns [head, head+n) to producers as free slots.
func (r *Ring) publishCons(head, n uint64) {
	for r.consTail.Load() != head {
		runtime.Gosched()
	}
	r.consTail.Store(head + n)
}

// Enqueue inserts one item; it fails with ErrFull when the ring is full
// (rte_ring_enqueue semantics — non-blocking).
func (r *Ring) Enqueue(v uint64) error {
	head, ok := r.reserveProd(1)
	if !ok {
		r.fulls.Add(1)
		return ErrFull
	}
	r.slots[head&r.mask] = v
	r.publishProd(head, 1)
	r.enqueues.Add(1)
	return nil
}

// Dequeue removes one item; it fails with ErrEmpty when none is available
// (rte_ring_dequeue semantics — the poller spins around this call).
func (r *Ring) Dequeue() (uint64, error) {
	head, n := r.reserveCons(1)
	if n == 0 {
		return 0, ErrEmpty
	}
	v := r.slots[head&r.mask]
	r.publishCons(head, 1)
	r.dequeues.Add(1)
	return v, nil
}

// EnqueueBulk inserts all items or none, returning the number inserted
// (0 or len(vs)) — rte_ring_enqueue_bulk semantics. The whole burst is
// reserved with a single CAS, so it lands contiguously: concurrent bulk
// producers never interleave their items.
func (r *Ring) EnqueueBulk(vs []uint64) int {
	n := uint64(len(vs))
	if n == 0 {
		return 0
	}
	head, ok := r.reserveProd(n)
	if !ok {
		r.fulls.Add(1)
		return 0
	}
	for i, v := range vs {
		r.slots[(head+uint64(i))&r.mask] = v
	}
	r.publishProd(head, n)
	r.enqueues.Add(n)
	return len(vs)
}

// DequeueBurst removes up to len(out) items with a single reservation,
// returning how many were taken (rte_ring_dequeue_burst).
func (r *Ring) DequeueBurst(out []uint64) int {
	head, n := r.reserveCons(uint64(len(out)))
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		out[i] = r.slots[(head+i)&r.mask]
	}
	r.publishCons(head, n)
	r.dequeues.Add(n)
	return int(n)
}

// Len returns the number of items currently queued (approximate under
// concurrency).
func (r *Ring) Len() int {
	t := r.consTail.Load()
	h := r.prodTail.Load()
	if h < t {
		return 0
	}
	return int(h - t)
}

// Stats is a snapshot of one ring's occupancy and flow counters, the
// D-SPRIGHT queue metrics the observability exporter renders.
type Stats struct {
	Capacity int
	Len      int
	Enqueues uint64
	Dequeues uint64
	// Fulls counts refused reservations — enqueue attempts (single or
	// bulk) that found insufficient free slots.
	Fulls uint64
	// WaitNanos and Waits accumulate the measured enqueue→dequeue
	// residencies reported through NoteWait (sampled descriptors only);
	// WaitNanos/Waits is the mean sampled queue wait.
	WaitNanos uint64
	Waits     uint64
}

// Stats snapshots the ring's counters (approximate under concurrency,
// exact when quiescent).
func (r *Ring) Stats() Stats {
	return Stats{
		Capacity:  len(r.slots),
		Len:       r.Len(),
		Enqueues:  r.enqueues.Load(),
		Dequeues:  r.dequeues.Load(),
		Fulls:     r.fulls.Load(),
		WaitNanos: r.waitNanos.Load(),
		Waits:     r.waits.Load(),
	}
}

// NoteWait records one measured enqueue→dequeue residency. The consumer
// side (which knows when each item was stamped) calls it for the sampled
// subset of traffic; the ring only aggregates.
func (r *Ring) NoteWait(nanos int64) {
	if nanos > 0 {
		r.waitNanos.Add(uint64(nanos))
		r.waits.Add(1)
	}
}

// pollYieldMask controls how many failed polls a consumer spins before
// yielding the processor. DPDK pins its polling lcores, so spinning is
// free; under Go the poller shares processors with the producers it waits
// for, and on a single-processor runtime every spin iteration only delays
// the producer — yield immediately there, spin a while everywhere else.
func pollYieldMask() int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return 63
}

// PollDequeueBurst spins until at least one item arrives or stop returns
// true, then drains up to len(out) items in one reservation. This is the
// D-SPRIGHT consumer loop — an instance worker polls with room for one
// descriptor — and the spin burns CPU whether or not traffic arrives, which
// is exactly the overhead S-SPRIGHT's event-driven SPROXY eliminates. Returns
// 0 only when stop reported true.
func (r *Ring) PollDequeueBurst(out []uint64, stop func() bool) int {
	mask := pollYieldMask()
	for spins := 0; ; spins++ {
		if n := r.DequeueBurst(out); n > 0 {
			return n
		}
		if stop != nil && stop() {
			return 0
		}
		if spins&mask == mask {
			runtime.Gosched()
		}
	}
}

package core

import (
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/ring"
	"github.com/spright-go/spright/internal/shm"
)

// handoffQueue is where a socket's descriptors wait for the owning instance's
// workers — the one thing S-SPRIGHT and D-SPRIGHT deliver differently. The
// socket owns it and calls it only inside its own protocol (Socket.deliver,
// Socket.Close): push never runs once stop has begun, and stop runs once.
//
//   - push adds d without blocking, or fails with ErrSocketFull.
//   - next is a worker's receive: it blocks until there is a descriptor, and
//     returns false once the queue is stopped and the worker should exit.
//   - idle and len report the backlog, in descriptors; a claim is granted only
//     into an idle queue.
//   - stop reclaims every descriptor still queued and lets every worker
//     blocked in next go.
//
// Each queue is given the chain's reclaim function when it is made
// (Chain.newInstance). chanQueue is ModeEvent's, ringQueue ModePolling's, and
// sinkQueue the gateway's.
type handoffQueue interface {
	push(d shm.Descriptor) error
	next() (shm.Descriptor, bool)
	idle() bool
	len() int
	stop()
}

// chanQueue is a buffered channel: a worker's wake is one channel handoff.
type chanQueue struct {
	ch      chan shm.Descriptor
	reclaim func(shm.Descriptor)
}

func newChanQueue(depth int, reclaim func(shm.Descriptor)) *chanQueue {
	return &chanQueue{ch: make(chan shm.Descriptor, max(depth, 1)), reclaim: reclaim}
}

func (q *chanQueue) push(d shm.Descriptor) error {
	select {
	case q.ch <- d:
		return nil
	default:
		return ErrSocketFull
	}
}

func (q *chanQueue) next() (shm.Descriptor, bool) {
	d, ok := <-q.ch
	return d, ok
}

func (q *chanQueue) idle() bool { return len(q.ch) == 0 }
func (q *chanQueue) len() int   { return len(q.ch) }

// stop closes the channel, which wakes every worker, and reclaims what it
// holds. A worker may take some of it meanwhile: each descriptor is received
// once, here or by a worker, which finds its instance stopping and reclaims it.
func (q *chanQueue) stop() {
	close(q.ch)
	for d := range q.ch {
		q.reclaim(d)
	}
}

// sinkQueue is the gateway's: a push runs the sink on the delivering
// goroutine, so nothing is ever queued and nobody waits in next.
type sinkQueue func(shm.Descriptor)

func (q sinkQueue) push(d shm.Descriptor) error { q(d); return nil }
func (sinkQueue) next() (shm.Descriptor, bool)  { return shm.Descriptor{}, false }
func (sinkQueue) idle() bool                    { return true }
func (sinkQueue) len() int                      { return 0 }
func (sinkQueue) stop()                         {}

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

// ringDepth is each instance's RTE ring capacity in slots (descWords slots
// per queued descriptor).
const ringDepth = 2048

// pollBurst is the most descriptors one dequeue of a stopped ring's drain
// carries.
const pollBurst = 64

// ringQueue is a ModePolling instance's queue: an RTE ring its own workers
// busy-poll — the "continuously consumes significant CPUs independent of
// traffic intensity" behaviour the paper measures. Descriptors are packed
// inline as word pairs; EnqueueBulk's single-reservation contiguity guarantee
// is what makes this safe under concurrent producers — a pair can never
// interleave with another producer's pair, so the consumer can decode the
// stream two words at a time. One reservation per push, no side table, no
// allocation.
//
// The ring is polled by the instance's workers one at a time (next): polling
// is the flag a worker holds while it spins, and wake is where the others
// park. The worker gives the flag up before its first handler and is away for
// the whole chain it then follows (Instance.work), not for one handler: an
// arrival meanwhile finds the flag clear and wakes a parked worker, or with
// Concurrency 1 waits in the ring as it waits in the channel in ModeEvent. A
// producer publishes and then loads polling, and wakes a parked worker if it
// is clear; a worker clears polling and then reads the ring's length, and
// wakes a parked worker if it is not zero — at least one of the two sees the
// other, so no descriptor sits in a ring nobody will look at.
type ringQueue struct {
	r        *ring.Ring
	reclaim  func(shm.Descriptor)
	dequeued func(shm.Descriptor) time.Duration // a sampled descriptor's ring residency, else 0

	stopped atomic.Bool
	polling atomic.Bool   // a goroutine is spinning on r
	wake    chan struct{} // one token: a parked worker should look again
}

func newRingQueue(reclaim func(shm.Descriptor), dequeued func(shm.Descriptor) time.Duration) *ringQueue {
	r, _ := ring.New(ringDepth, ring.MP) // fails only for a capacity below 2
	return &ringQueue{r: r, reclaim: reclaim, dequeued: dequeued, wake: make(chan struct{}, 1)}
}

// wakeOne lets one parked worker (the next to park, if none is) look again.
func (q *ringQueue) wakeOne() {
	select {
	case q.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// push packs d into the ring with one bulk reservation. A refused bulk means
// fewer than two slots were free — the ring is full.
func (q *ringQueue) push(d shm.Descriptor) error {
	w0, w1 := packDesc(d)
	if q.r.EnqueueBulk([]uint64{w0, w1}) == 0 {
		return ErrSocketFull
	}
	if !q.polling.Load() {
		q.wakeOne()
	}
	return nil
}

// next is an instance worker's receive in ModePolling. At most one worker
// spins on the ring; it takes one descriptor and gives the ring up before it
// returns to run the handler — and whatever handlers it claims downstream —
// so a handler that blocks never stalls the ring: the next arrival finds
// polling clear and wakes a parked worker.
func (q *ringQueue) next() (shm.Descriptor, bool) {
	var words [descWords]uint64
	for {
		if q.stopped.Load() {
			q.wakeOne()
			return shm.Descriptor{}, false
		}
		if !q.polling.CompareAndSwap(false, true) {
			<-q.wake
			continue
		}
		n := q.r.PollDequeueBurst(words[:], q.stopped.Load)
		q.polling.Store(false)
		if n == 0 {
			continue
		}
		d := unpackDesc(words[0], words[1])
		if q.r.Len() != 0 {
			q.wakeOne() // more work behind this descriptor: a second worker, now
		}
		if w := q.dequeued(d); w > 0 {
			q.r.NoteWait(int64(w))
		}
		return d, true
	}
}

func (q *ringQueue) idle() bool { return q.r.Len() == 0 }
func (q *ringQueue) len() int   { return q.r.Len() / descWords }

// stop ends the ring. The instance's workers may all be inside handlers, so
// the ring is drained here: descriptors accepted into it own a shared-memory
// buffer reference, and abandoning them would leak the pool slab and blackhole
// the caller. The ring is multi-consumer and reservations are whole
// descriptors, so the drain and a worker's last dequeue may run at once. One
// parked worker is woken to exit, and passes the token on to the next (next).
func (q *ringQueue) stop() {
	q.stopped.Store(true)
	var words [pollBurst * descWords]uint64
	for {
		n := q.r.DequeueBurst(words[:])
		if n == 0 {
			break
		}
		for i := 0; i+descWords <= n; i += descWords {
			q.reclaim(unpackDesc(words[i], words[i+1]))
		}
	}
	q.wakeOne()
}

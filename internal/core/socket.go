// Package core implements SPRIGHT itself: the per-chain gateway, the
// SPROXY event-driven socket proxy (a real SK_MSG program executed by the
// internal/ebpf VM), the EPROXY metric programs, Direct Function Routing,
// security domains, protocol-adaptation hooks, and the two descriptor
// transports — event-driven sockmap redirection (S-SPRIGHT) and DPDK-style
// polled rings (D-SPRIGHT).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/shm"
)

// Socket is a function instance's descriptor endpoint — the analog of the
// socket interface SPROXY attaches to. It implements ebpf.SockRef so a
// sockmap can deliver to it from inside the VM. A descriptor reaches the
// instance's handler one of two ways, in either mode. It is queued for the
// instance's workers — always for the gateway's dispatch, a fan-out branch and
// a bare NewSocket, which has no instance. Or, for a function → function hop,
// the sending worker claims one of the instance's concurrency slots and runs
// the handler itself (claimFor): nothing is queued and nobody is woken. A claim
// is refused, and the hop queued, when the instance is stopping, has no free
// slot or has queued work (which is never overtaken, a retire token included),
// or when the sender's own socket has a backlog to go home to. The hop is
// counted as delivered either way — on the sender's stripe of the socket if it
// was queued (sockStripe), on the stripe of the slot it claimed if it was not
// (slotStripe) — and queuedHops counts the function → function hops that had
// to queue.
//
// The queue is the socket's own (handoffQueue), picked once when the socket is
// made: a buffered channel in ModeEvent, a polled ring in ModePolling, and on
// the gateway's socket a sink that runs on the delivering goroutine. Whichever
// it is, the socket's protocol around it is the same. Close may race with
// concurrent Deliver calls (instance restarts close sockets while peers are
// still sending). Rather than serializing every delivery behind a lock, the
// race is handled with a drain-token protocol: each Deliver registers in the
// senders count — its stripe's — before checking the closed flag, and Close
// sets the flag first, then waits for every stripe's senders count to drain
// before it stops the queue. A Deliver that saw the flag clear completes its
// (non-blocking) push before the queue stops; one that arrives later sees the
// flag and returns ErrSocketClosed without touching the queue — so no push
// ever lands in a stopped queue, with zero locking on the hot path. Stopping
// the queue reclaims what it still holds, once, in both modes; on the sink
// Close returns only after every sink call under way has returned.
//
// The layout is part of the design and TestStripeLayout holds it, on the
// addresses the allocator actually gives: the stripes come first, each 64 bytes
// with its words in the first 16, so wherever within a line the allocation
// starts no two stripes' words share one; what every hop to or from the socket
// reads — its owner, its queue, the closed flag — follows on a line written
// when the socket is made and when it closes; and the counters of what went
// wrong or roundabout come after that.
type Socket struct {
	stripes [ebpf.Stripes]sockStripe

	id     uint32
	inst   *Instance    // the owner whose slots a sender may claim; nil on a bare or sink socket
	q      handoffQueue // set once at construction
	closed atomic.Bool
	_      [socketPad]byte

	dropped    atomic.Uint64
	queuedHops atomic.Uint64
}

// sockStripe is one stripe (ebpf.Stripes) of the words a queued delivery
// writes, a cache line to itself: the delivering goroutine's registration and
// the count of what it delivered. The gateway's dispatch to the head socket and
// the reply's delivery to the gateway's are one of each per request; striped by
// the sender's stripe, two cores' requests register on two lines.
type sockStripe struct {
	senders   atomic.Int64  // Deliver calls between registration and push
	delivered atomic.Uint64 // descriptors queued, counted before the push; claimed hops count on the instance's stripes
	_         [6]uint64
}

// socketPad ends the cache line Socket's read-mostly fields are on.
const socketPad = 28

// Socket errors.
var (
	ErrSocketClosed = errors.New("core: socket closed")
	ErrSocketFull   = errors.New("core: socket queue full")
)

// NewSocket creates a socket with the given instance ID and a channel queue of
// the given depth, read through Recv. It belongs to no chain, so Close
// discards whatever its channel still holds.
func NewSocket(id uint32, depth int) *Socket {
	return &Socket{id: id, q: newChanQueue(depth, func(shm.Descriptor) {})}
}

// newSinkSocket creates a socket that hands every delivered descriptor to
// sink on the delivering goroutine instead of queueing it. sink must not
// block: it runs on the function worker that sent the reply, in either mode.
func newSinkSocket(id uint32, sink func(shm.Descriptor)) *Socket {
	return &Socket{id: id, q: sinkQueue(sink)}
}

// SockID implements ebpf.SockRef.
func (s *Socket) SockID() uint32 { return s.id }

// DeliverDescriptor implements ebpf.SockRef: parse the 16-byte wire form
// and enqueue. A full queue is a drop — the shared-memory pool, not the
// socket, is the chain's burst buffer, so the socket queue is sized to the
// pool and overflow indicates the pool-level backpressure failed.
func (s *Socket) DeliverDescriptor(wire []byte) error {
	d, err := shm.UnmarshalDescriptor(wire)
	if err != nil {
		return err
	}
	return s.Deliver(d)
}

// Deliver enqueues a parsed descriptor, on the stripe of senders that have
// none.
func (s *Socket) Deliver(d shm.Descriptor) error { return s.deliver(d, 0) }

// deliver is Deliver by a sender on stripe. The delivery is counted before the
// push, and the count taken back if the push is refused: once d is queued its
// handler may run, and its caller return, before this goroutine runs again.
func (s *Socket) deliver(d shm.Descriptor, stripe uint32) error {
	st := &s.stripes[stripe%ebpf.Stripes]
	st.delivered.Add(1)
	err := s.enqueue(d, st)
	if err != nil {
		st.delivered.Add(^uint64(0))
		if err == ErrSocketFull {
			s.dropped.Add(1)
		}
	}
	return err
}

// handoff is the end of a hop, which both transports share once their filter
// has passed d to s: a worker with a home (by.home) to come back to runs the
// handler itself if s's instance grants it a slot (claimFor), and otherwise —
// or when nobody asked, or s has no instance — d is queued. A hop that wanted
// a claim and was queued is counted in queuedHops.
func (s *Socket) handoff(d shm.Descriptor, by sender) (grant, error) {
	if by.home == nil || s.inst == nil {
		return grant{}, s.deliver(d, by.stripe)
	}
	if slot, ok := s.claimFor(by); ok {
		return grant{s.inst, slot}, nil
	}
	err := s.deliver(d, by.stripe)
	if err == nil {
		s.queuedHops.Add(1)
	}
	return grant{}, err
}

// claimFor is the other way in: the worker by takes one of the owning
// instance's concurrency slots — of its own stripe if that has one — and will
// run the handler itself, so the hop is counted as delivered, on the line the
// claim has just written. It follows the request only with no backlog waiting
// at home, and only into an idle queue. slot is the stripe the slot came from.
func (s *Socket) claimFor(by sender) (slot uint32, ok bool) {
	if !by.home.q.idle() || !s.q.idle() {
		return 0, false
	}
	if slot, ok = s.inst.claim(by.stripe); ok {
		s.inst.stripes[slot].delivered.Add(1)
	}
	return slot, ok
}

// enqueue is the non-blocking push under the drain-token protocol. The
// sender registration, on stripe st, must precede the closed check (see the
// type comment): Close observes either our registration or our completed push.
func (s *Socket) enqueue(d shm.Descriptor, st *sockStripe) error {
	st.senders.Add(1)
	defer st.senders.Add(-1)
	if s.closed.Load() {
		return ErrSocketClosed
	}
	return s.q.push(d)
}

// retireBuf marks a retire token: a descriptor whose Buf no send can carry
// (pool handles are slot indices, far below it). The owning instance queues
// one per surplus worker when its pool shrinks; the worker that receives it
// exits. It travels the instance's own queue, through enqueue, so it cannot
// race Close, and workers need no second queue to watch.
const retireBuf = ^uint32(0)

// retire queues one retire token, behind whatever the instance's queue holds.
func (s *Socket) retire() error {
	return s.enqueue(shm.Descriptor{Buf: retireBuf}, &s.stripes[0])
}

// next is a worker's receive: the next descriptor for the instance, blocking
// until there is one. false means the socket was closed and the worker should
// exit.
func (s *Socket) next() (shm.Descriptor, bool) { return s.q.next() }

// Recv returns the descriptor channel of a socket whose queue is one: every
// socket NewSocket makes, and a ModeEvent instance's.
func (s *Socket) Recv() <-chan shm.Descriptor { return s.q.(*chanQueue).ch }

// closeSpinBudget is how many sender-drain checks Close spends yielding
// before escalating to sleeps. In-flight Delivers are non-blocking, so the
// count is normally drained within a few yields; the sleep escalation only
// engages when a sender goroutine is descheduled mid-Deliver (e.g. at
// GOMAXPROCS=1 under load), where an unbounded Gosched loop would burn a
// full core for as long as the scheduler starves the sender.
const closeSpinBudget = 64

// Close marks the socket closed, waits out the pushes under way, and stops the
// queue: its backlog is reclaimed and every worker blocked in next is let go,
// before Close returns and whatever the instance's handlers are doing. The
// senders wait backs off in two stages — spin with yields, then exponentially
// growing sleeps capped at 1ms — so a stalled sender delays the close without
// pinning a processor.
func (s *Socket) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	sleep := time.Microsecond
	for spins := 0; s.sending(); spins++ {
		if spins < closeSpinBudget {
			runtime.Gosched()
			continue
		}
		time.Sleep(sleep)
		if sleep < time.Millisecond {
			sleep *= 2
		}
	}
	s.q.stop()
}

// sending reports whether a Deliver is between its registration and the end of
// its push. A sender that registers on a stripe after Close has looked at it
// finds the closed flag set, so one look at each stripe is enough.
func (s *Socket) sending() bool {
	for i := range s.stripes {
		if s.stripes[i].senders.Load() != 0 {
			return true
		}
	}
	return false
}

// Stats reports delivery counters: every hop that reached the socket's owner,
// through the queue or by a claim.
func (s *Socket) Stats() (delivered, dropped uint64) {
	for i := range s.stripes {
		delivered += s.stripes[i].delivered.Load()
	}
	if s.inst != nil {
		for i := range s.inst.stripes {
			delivered += s.inst.stripes[i].delivered.Load()
		}
	}
	return delivered, s.dropped.Load()
}

// QueueLen reports how many descriptors are queued awaiting a worker — the
// per-instance backlog signal the autoscaler folds into its demand estimate.
func (s *Socket) QueueLen() int { return s.q.len() }

func (s *Socket) String() string { return fmt.Sprintf("sock(%d)", s.id) }

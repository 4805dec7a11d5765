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
// The queue is a buffered channel in ModeEvent (Deliver). In ModePolling an
// instance's socket has no channel: its queue is the ring the transport gave it
// at Register, which the instance's workers poll themselves (next,
// ringEntry.take), and delivered counts what they dequeue.
//
// Close may race with concurrent Deliver calls (instance restarts close
// sockets while peers are still sending). Rather than serializing every
// delivery behind a lock, the race is handled with a drain-token protocol:
// each Deliver registers in the senders count — its stripe's — before checking
// the closed flag, and Close sets the flag first, then waits for every stripe's
// senders count to drain before closing the channel. A Deliver that saw the flag clear
// completes its (non-blocking) send before the channel can close; one that
// arrives later sees the flag and returns ErrSocketClosed without touching
// the channel — the same guarantees the lock-based protocol gave, with
// zero locking on the hot path.
//
// The gateway's socket has no queue and no consumer: it is built with a sink
// (newSinkSocket), and Deliver runs the sink on the delivering goroutine,
// inside the same sender registration — so Close returns only after every
// delivery that saw the flag clear has run its sink to the end.
//
// The layout is part of the design and TestStripeLayout holds it, on the
// addresses the allocator actually gives: the stripes come first, each 64 bytes
// with its words in the first 16, so wherever within a line the allocation
// starts no two stripes' words share one; what every hop to or from the socket
// reads — its owner, its queue, the sink, the closed flag — follows on a line
// written when the socket is made and when it closes; and the counters of what
// went wrong or roundabout come after that.
type Socket struct {
	stripes [ebpf.Stripes]sockStripe

	id   uint32
	inst *Instance // the owner whose slots a sender may claim; nil on a bare or sink socket

	ch   chan shm.Descriptor  // nil on a sink socket and on a polled one
	sink func(shm.Descriptor) // set once at construction
	// ring is a polled instance socket's queue, set by Register before the
	// workers start.
	ring   *ringEntry
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
	senders   atomic.Int64  // Deliver calls between registration and send
	delivered atomic.Uint64 // descriptors queued, or taken off the ring; claimed hops count on the instance's stripes
	_         [6]uint64
}

// socketPad ends the cache line Socket's read-mostly fields are on.
const socketPad = 20

// Socket errors.
var (
	ErrSocketClosed = errors.New("core: socket closed")
	ErrSocketFull   = errors.New("core: socket queue full")
)

// NewSocket creates a socket with the given instance ID and queue depth.
func NewSocket(id uint32, depth int) *Socket {
	if depth <= 0 {
		depth = 1
	}
	return &Socket{id: id, ch: make(chan shm.Descriptor, depth)}
}

// newSinkSocket creates a socket that hands every delivered descriptor to
// sink on the delivering goroutine instead of queueing it. sink must not
// block: it runs on the function worker that sent the reply, in either mode.
func newSinkSocket(id uint32, sink func(shm.Descriptor)) *Socket {
	return &Socket{id: id, sink: sink}
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

// deliver is Deliver by a sender on stripe.
func (s *Socket) deliver(d shm.Descriptor, stripe uint32) error {
	st := &s.stripes[stripe%ebpf.Stripes]
	err := s.enqueue(d, st)
	switch err {
	case nil:
		st.delivered.Add(1)
	case ErrSocketFull:
		s.dropped.Add(1)
	}
	return err
}

// claimFor is the other way in: the worker by takes one of the owning
// instance's concurrency slots — of its own stripe if that has one — and will
// run the handler itself, so the hop is counted as delivered, on the line the
// claim has just written. It follows the request only with no backlog waiting
// at home, and only into an idle queue. slot is the stripe the slot came from.
func (s *Socket) claimFor(by sender) (slot uint32, ok bool) {
	if !by.home.idle() || !s.idle() {
		return 0, false
	}
	if slot, ok = s.inst.claim(by.stripe); ok {
		s.inst.stripes[slot].delivered.Add(1)
	}
	return slot, ok
}

// idle reports whether an instance's queue is empty: its channel or, for a
// polled socket — the one kind without a channel — its ring, so a ModeEvent
// hop reads what len(s.ch) read and no more.
func (s *Socket) idle() bool {
	if s.ch != nil {
		return len(s.ch) == 0
	}
	return s.ring.r.Len() == 0
}

// enqueue is the non-blocking send under the drain-token protocol. The
// sender registration, on stripe st, must precede the closed check (see the
// type comment): Close observes either our registration or our completed send.
func (s *Socket) enqueue(d shm.Descriptor, st *sockStripe) error {
	st.senders.Add(1)
	defer st.senders.Add(-1)
	if s.closed.Load() {
		return ErrSocketClosed
	}
	if s.sink != nil {
		s.sink(d)
		return nil
	}
	select {
	case s.ch <- d:
		return nil
	default:
		return ErrSocketFull
	}
}

// retireBuf marks a retire token: a descriptor whose Buf no send can carry
// (pool handles are slot indices, far below it). The owning instance queues
// one per surplus worker when its pool shrinks; the worker that receives it
// exits. It travels the instance's own queue, so it needs no second channel
// for workers to select on: the socket's channel, through enqueue, so it
// cannot race Close into a send on a closed channel — or a polled socket's
// ring, two words like any descriptor.
const retireBuf = ^uint32(0)

// retire queues one retire token, behind whatever the instance's queue holds.
func (s *Socket) retire() error {
	d := shm.Descriptor{Buf: retireBuf}
	if s.ring != nil {
		return s.ring.t.sendTo(s.ring, d, 0)
	}
	return s.enqueue(d, &s.stripes[0])
}

// newPolledSocket creates the socket of a ModePolling instance: no channel,
// because the ring it is registered with is its queue.
func newPolledSocket(id uint32) *Socket { return &Socket{id: id} }

// next is a worker's receive: the next descriptor for the instance, blocking
// until there is one. false means the socket was closed, or its ring stopped,
// and the worker should exit.
func (s *Socket) next() (shm.Descriptor, bool) {
	if s.ch == nil { // a polled socket
		return s.ring.take()
	}
	d, ok := <-s.ch
	return d, ok
}

// noteDrop records one descriptor the transport gave up delivering to this
// socket: its ring stopped with the descriptor still in it.
func (s *Socket) noteDrop() { s.dropped.Add(1) }

// Recv returns the descriptor channel for the instance's run loop.
func (s *Socket) Recv() <-chan shm.Descriptor { return s.ch }

// closeSpinBudget is how many sender-drain checks Close spends yielding
// before escalating to sleeps. In-flight Delivers are non-blocking, so the
// count is normally drained within a few yields; the sleep escalation only
// engages when a sender goroutine is descheduled mid-Deliver (e.g. at
// GOMAXPROCS=1 under load), where an unbounded Gosched loop would burn a
// full core for as long as the scheduler starves the sender.
const closeSpinBudget = 64

// Close marks the socket closed and wakes the consumer. Descriptors still
// buffered remain readable from Recv until drained (the instance reclaims
// them at shutdown); on a sink socket Close returns once every sink call
// under way has returned; a polled socket stops its ring, whose backlog the
// transport's drop handler reclaims. The senders wait backs off in two stages — spin with
// yields, then exponentially growing sleeps capped at 1ms — so a stalled
// sender delays the close without pinning a processor.
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
	if s.ch != nil {
		close(s.ch)
	}
	if s.ring != nil {
		s.ring.stop()
	}
}

// sending reports whether a Deliver is between its registration and the end of
// its send. A sender that registers on a stripe after Close has looked at it
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

// QueueLen reports how many descriptors are queued awaiting a worker — in
// the socket's channel, or in a polled socket's ring — the per-instance
// backlog signal the autoscaler folds into its demand estimate.
func (s *Socket) QueueLen() int {
	if s.ring != nil {
		return s.ring.r.Len() / descWords
	}
	return len(s.ch)
}

func (s *Socket) String() string { return fmt.Sprintf("sock(%d)", s.id) }

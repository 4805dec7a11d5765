package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"github.com/spright-go/spright/internal/ring"
	"github.com/spright-go/spright/internal/shm"
)

// Transport routes packet descriptors between the sockets of one chain: it
// resolves a hop's destination socket and the filter verdict on it.
// S-SPRIGHT's is the event-driven SPROXY itself (sockmap redirect inside the
// VM); D-SPRIGHT's is a user-space table (ringTransport). Both carry the
// identical 16-byte descriptors — the comparison of §3.2.2 is purely about the
// delivery mechanism, and that is the destination socket's queue
// (handoffQueue), not the transport. A hop calls the transport's concrete
// type (Chain.sendOrClaim), and the interface only when it is refused.
type Transport interface {
	// RegisterSocket binds an instance's socket to the transport.
	RegisterSocket(s *Socket) error
	// UnregisterSocket removes an instance: no send that starts after it
	// returns is routed there. Its queue is the socket's to stop.
	UnregisterSocket(id uint32) error
	// Send delivers d from instance src to d.NextFn.
	Send(src uint32, d shm.Descriptor) error
	// Allow authorizes src→dst traffic (security domain filter).
	Allow(src, dst uint32) error
	// refusal is the error of a send the verdict sent to no socket: the
	// program's fault err, or the socket or edge the transport does not hold.
	refusal(src, dst uint32, err error) error
}

// sender is the goroutine making a send: the stripe it is on (ebpf.Stripes) —
// where the hop's program run counts and which copy of the metrics map it
// bumps, and whose sub-budget a claim tries first — and, for a function worker
// that would rather run the next handler than wake someone to, its own socket.
// The zero sender is on the stripe of those that have none and claims nothing.
// wrapped marks the one attempt of one of sendOrClaim's out-of-line wrappers.
type sender struct {
	stripe  uint32
	wrapped bool
	home    *Socket
}

// Mode selects the transport implementation.
type Mode int

// Transport modes.
const (
	// ModeEvent is S-SPRIGHT: eBPF SK_MSG + sockmap, zero CPU when idle.
	ModeEvent Mode = iota
	// ModePolling is D-SPRIGHT: every instance's queue is a ring, with one of
	// its own workers busy-polling it, which runs the handler of what it
	// dequeues and then follows the request as a ModeEvent worker does. The gateway has
	// neither ring nor poller: a reply is finished by the worker that sends it.
	ModePolling
)

func (m Mode) String() string {
	if m == ModePolling {
		return "D-SPRIGHT (polling)"
	}
	return "S-SPRIGHT (event-driven)"
}

// RingQueueStat is one instance ring's occupancy and flow counters, read
// by the observability exporter.
type RingQueueStat struct {
	Instance uint32
	Stats    ring.Stats
}

// ringTables is the routing state a send reads: the registered sockets and
// the allowed src→dst edges. A published value is never modified.
type ringTables struct {
	socks   map[uint32]*Socket
	allowed map[uint64]bool
}

// ringTransport is D-SPRIGHT's route and filter table, in user space: what
// SPROXY's sockmap and filter map are in ModeEvent. The rings themselves are
// the instances' sockets' queues.
type ringTransport struct {
	// tables is what a send reads, without a lock. Writers (RegisterSocket,
	// UnregisterSocket, Allow) serialize on mu, copy the map they change and
	// publish the new pair before they return.
	tables atomic.Pointer[ringTables]
	mu     sync.Mutex
}

// newRingTransport creates an empty table.
func newRingTransport() *ringTransport {
	t := &ringTransport{}
	t.tables.Store(&ringTables{socks: map[uint32]*Socket{}, allowed: map[uint64]bool{}})
	return t
}

func (t *ringTransport) RegisterSocket(s *Socket) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.tables.Load()
	if _, dup := old.socks[s.SockID()]; dup {
		return fmt.Errorf("core: instance %d already registered", s.SockID())
	}
	socks := maps.Clone(old.socks)
	socks[s.SockID()] = s
	t.tables.Store(&ringTables{socks: socks, allowed: old.allowed})
	return nil
}

func (t *ringTransport) UnregisterSocket(id uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.tables.Load()
	if _, ok := old.socks[id]; !ok {
		return fmt.Errorf("core: instance %d not registered", id)
	}
	socks := maps.Clone(old.socks)
	delete(socks, id)
	t.tables.Store(&ringTables{socks: socks, allowed: old.allowed})
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
	t.tables.Store(&ringTables{socks: old.socks, allowed: allowed})
	return nil
}

// route resolves a hop's destination socket from the published tables: nil
// without that socket or edge (refusal says which).
func (t *ringTransport) route(src, dst uint32) *Socket {
	tb := t.tables.Load()
	if tb.allowed[uint64(src)<<32|uint64(dst)] {
		return tb.socks[dst]
	}
	return nil
}

func (t *ringTransport) refusal(src, dst uint32, _ error) error {
	if _, ok := t.tables.Load().socks[dst]; !ok {
		return fmt.Errorf("%w: instance %d", ErrNoSuchFn, dst)
	}
	return fmt.Errorf("%w: %d -> %d", ErrFiltered, src, dst)
}

func (t *ringTransport) Send(src uint32, d shm.Descriptor) error {
	if dst := t.route(src, d.NextFn); dst != nil {
		return dst.Deliver(d)
	}
	return t.refusal(src, d.NextFn, nil)
}

package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
)

// waiter is one pending request's completion target. Whoever takes it out
// of the pending table — a reply descriptor's delivery, a terminal failure,
// a peer's response frame, the deadline timer, Close — finishes the request
// on its own goroutine (settle): for a local request it writes the response
// once to where the caller wants it and wakes the caller; for a request a
// peer node forwarded here there is no goroutine to wake, and the taker
// answers the peer itself.
type waiter struct {
	caller uint32 // the entry's key in the pending table
	// ch carries the one outcome to the parked caller; capacity 1, so the
	// taker's send never blocks.
	ch chan gwResult
	// dst is InvokeInto's destination (into set); Invoke leaves both zero
	// and the taker allocates exactly the response's length.
	dst  []byte
	into bool

	// What start recorded when the request began: for FinishRequest.
	start   time.Time
	tr      *Tracer
	sampled bool

	// stripe is the one this waiter was dealt when it was first made
	// (ebpf.Stripes): the gateway's half of the request — the EPROXY run, the
	// dispatch — runs on it, as the functions' half runs on its worker's Ctx's.
	stripe uint32

	// Remote-originated requests only (responder non-nil): who to answer.
	responder Responder
	origin    RemoteOrigin
	timer     *time.Timer // the chain Deadline, when one is set
}

type gwResult struct {
	body []byte // dst[:n], or a fresh slice for Invoke
	err  error
}

// dest returns where an n-byte response goes.
func (w *waiter) dest(n int) ([]byte, error) {
	switch {
	case w.into && len(w.dst) < n:
		return nil, ErrShortBuffer
	case w.into:
		return w.dst[:n], nil
	case n == 0:
		return nil, nil
	}
	return make([]byte, n), nil
}

// RemoteOrigin identifies a request a peer node forwarded to this gateway:
// what the node's Responder needs to address the answer.
type RemoteOrigin struct {
	Node   string // the forwarding node
	Chain  string // the chain's name on that node
	Caller uint32 // that node's pending-table key
}

// Responder answers requests that arrived from a peer node. Respond is called
// exactly once per request InvokeRemote accepted, on the goroutine that
// finished it — a function worker, the mesh receive loop, the
// deadline timer or Close — so it must not block. body is only valid for the
// duration of the call: it may alias a pool buffer released right after.
type Responder interface {
	Respond(o RemoteOrigin, body []byte, err error)
}

// pendShardCount shards the pending-request table. Every request touches
// the table twice (register at invoke, claim at completion), from different
// goroutines; a single mutex there is the gateway's first scalability wall
// under parallel load. Caller IDs are sequential, so consecutive requests
// hash to distinct shards and contention drops by ~the shard count.
const pendShardCount = 64

type pendShard struct {
	mu sync.Mutex
	m  map[uint32]*waiter
	_  [6]uint64 // pad: neighbouring shard locks must not share a cache line
}

// pendTable is the sharded caller→waiter map. counts mirror the table size so
// the admission path reads the inflight gauge in a few atomic loads instead of
// sweeping 64 shard locks per request; they are striped by the caller ID's low
// bits, the stripe the gateway dealt the ID on (gwStripe), so registering an
// entry and taking it write a line only that stripe's requests write.
type pendTable struct {
	shards [pendShardCount]pendShard
	counts [ebpf.Stripes]pendCount
	expire func(caller uint32) // what an entry's deadline timer runs
}

type pendCount struct {
	n atomic.Int64
	_ [7]uint64
}

func (t *pendTable) count(caller uint32) *atomic.Int64 { return &t.counts[caller%ebpf.Stripes].n }

// registered is how many entries the table holds: exact whenever no put or
// take is under way.
func (t *pendTable) registered() int {
	var n int64
	for i := range t.counts {
		n += t.counts[i].n.Load()
	}
	return int(n)
}

func (t *pendTable) init(expire func(caller uint32)) {
	t.expire = expire
	for i := range t.shards {
		t.shards[i].m = make(map[uint32]*waiter)
	}
}

func (t *pendTable) shard(caller uint32) *pendShard {
	return &t.shards[caller&(pendShardCount-1)]
}

// put registers w. With a deadline, the timer that will expire the entry is
// armed here, inside the shard's critical section: expire takes the entry
// under the same lock, so a timer that fires at once still finds it — armed
// any earlier it could find nothing, and the request would then end only with
// its reply. Past the unlock w is not read again: a timer that has fired may
// already have settled the request and recycled w.
func (t *pendTable) put(w *waiter, deadline time.Duration) {
	caller := w.caller
	s := t.shard(caller)
	s.mu.Lock()
	s.m[caller] = w
	if deadline > 0 {
		w.timer = time.AfterFunc(deadline, func() { t.expire(caller) })
	}
	s.mu.Unlock()
	t.count(caller).Add(1)
}

// take removes and returns the waiter registered for caller; exactly one of
// the racing claimants (completion, failure, abandonment) wins it.
func (t *pendTable) take(caller uint32) (*waiter, bool) {
	s := t.shard(caller)
	s.mu.Lock()
	w, ok := s.m[caller]
	if ok {
		delete(s.m, caller)
	}
	s.mu.Unlock()
	if ok {
		t.count(caller).Add(-1)
	}
	return w, ok
}

// takeAll removes and returns every registered waiter (Gateway.Close). Each
// entry leaves its shard under the shard lock, exactly as in take, so a
// completion or failure racing the sweep still has exactly one winner.
func (t *pendTable) takeAll() []*waiter {
	var out []*waiter
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for caller, w := range s.m {
			delete(s.m, caller)
			out = append(out, w)
			t.count(caller).Add(-1)
		}
		s.mu.Unlock()
	}
	return out
}

// newWaiter returns a recycled waiter keyed by a fresh caller ID (never the
// NoReply sentinel); the caller fills in the target and registers it. The ID
// is the next of the waiter's stripe's own sequence with the stripe in its low
// bits: two cores dealing IDs write two lines, and the ID says where its
// request is counted.
func (g *Gateway) newWaiter() *waiter {
	w, _ := g.waiterPool.Get().(*waiter)
	if w == nil {
		w = &waiter{ch: make(chan gwResult, 1), stripe: ebpf.NextStripe()}
	}
	seq := &g.stripes[w.stripe].seq
	if w.caller = seq.Add(1)*ebpf.Stripes + w.stripe; w.caller == NoReply {
		w.caller = seq.Add(1)*ebpf.Stripes + w.stripe
	}
	return w
}

// putWaiter recycles a waiter nobody else can reach any more: its entry
// left the table and its outcome, if one was sent, has been received.
func (g *Gateway) putWaiter(w *waiter) {
	*w = waiter{ch: w.ch, stripe: w.stripe}
	g.waiterPool.Put(w)
}

package core

import (
	"testing"
	"unsafe"

	"github.com/spright-go/spright/internal/ebpf"
)

// TestStripeLayout holds the cache-line layout the per-hop words rely on, on
// the addresses of instances and sockets a chain really allocates: each of an
// instance's stripes is a whole number of lines and its words share a line
// with no other stripe's; and what every hop reads of an Instance and a Socket
// shares no line with a word a hop writes. (The per-CPU array's half — the
// copies of one entry at least a line apart — is internal/ebpf's
// TestPerCPUArrayLayout.)
func TestStripeLayout(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(slotStripe{}); sz%line != 0 {
		t.Fatalf("slotStripe is %d bytes, not a whole number of %d-byte lines", sz, line)
	}
	if n := len(Instance{}.stripes); n != ebpf.Stripes {
		t.Fatalf("%d stripes, want ebpf.Stripes = %d", n, ebpf.Stripes)
	}

	// span is the lines [lo, hi] a field of size bytes at p covers.
	type span struct{ lo, hi uintptr }
	at := func(p unsafe.Pointer, size uintptr) span {
		return span{uintptr(p) / line, (uintptr(p) + size - 1) / line}
	}
	type field struct {
		name string
		span
	}
	disjoint := func(what string, read []field, written []field) {
		t.Helper()
		for _, r := range read {
			for _, w := range written {
				if r.hi >= w.lo && r.lo <= w.hi {
					t.Errorf("%s: %s, which every hop reads, shares a cache line with %s, which a hop writes", what, r.name, w.name)
				}
			}
		}
	}

	c, _ := testChain(t, ModeEvent, upDownSpec(FunctionSpec{Instances: 3}, FunctionSpec{Instances: 3}))
	for _, fn := range c.Functions() {
		for _, in := range c.Router().Instances(fn) {
			// A hop through the instance writes the words of one stripe.
			var written []field
			for i := range in.stripes {
				st := &in.stripes[i]
				words := at(unsafe.Pointer(st), unsafe.Offsetof(st.delivered)+unsafe.Sizeof(st.delivered))
				if words.lo != words.hi {
					t.Errorf("instance %d: stripe %d's words straddle lines %d and %d", in.ID(), i, words.lo, words.hi)
				}
				for _, prev := range written {
					if prev.hi >= words.lo && prev.lo <= words.hi {
						t.Errorf("instance %d: stripe %d's words share a cache line with %s's", in.ID(), i, prev.name)
					}
				}
				written = append(written, field{"a stripe's slots and counters", words})
			}
			disjoint("Instance", []field{
				{"concurrency", at(unsafe.Pointer(&in.concurrency), unsafe.Sizeof(in.concurrency))},
				{"stopping", at(unsafe.Pointer(&in.stopping), unsafe.Sizeof(in.stopping))},
				{"owed", at(unsafe.Pointer(&in.owed), unsafe.Sizeof(in.owed))},
				{"slotWaiters", at(unsafe.Pointer(&in.slotWaiters), unsafe.Sizeof(in.slotWaiters))},
				{"handler", at(unsafe.Pointer(&in.handler), unsafe.Sizeof(in.handler))},
				{"sock", at(unsafe.Pointer(&in.sock), unsafe.Sizeof(in.sock))},
				{"chain", at(unsafe.Pointer(&in.chain), unsafe.Sizeof(in.chain))},
				{"fnName", at(unsafe.Pointer(&in.fnName), unsafe.Sizeof(in.fnName))},
				{"health", at(unsafe.Pointer(&in.health), unsafe.Sizeof(in.health))},
			}, written)

			// A hop that is queued — the gateway's dispatch among them — writes
			// the socket's sender registration and counters.
			s := in.sock
			disjoint("Socket", []field{
				{"ch", at(unsafe.Pointer(&s.ch), unsafe.Sizeof(s.ch))},
				{"inst", at(unsafe.Pointer(&s.inst), unsafe.Sizeof(s.inst))},
				{"closed", at(unsafe.Pointer(&s.closed), unsafe.Sizeof(s.closed))},
				{"sink", at(unsafe.Pointer(&s.sink), unsafe.Sizeof(s.sink))},
				{"ring", at(unsafe.Pointer(&s.ring), unsafe.Sizeof(s.ring))},
			}, []field{
				{"senders", at(unsafe.Pointer(&s.senders), unsafe.Sizeof(s.senders))},
				{"delivered", at(unsafe.Pointer(&s.delivered), unsafe.Sizeof(s.delivered))},
				{"dropped", at(unsafe.Pointer(&s.dropped), unsafe.Sizeof(s.dropped))},
				{"queuedHops", at(unsafe.Pointer(&s.queuedHops), unsafe.Sizeof(s.queuedHops))},
			})
		}
	}
}

package core

import (
	"testing"
	"unsafe"

	"github.com/spright-go/spright/internal/ebpf"
)

// TestStripeLayout holds the cache-line layout the per-hop and per-request
// words rely on, on the addresses of the instances, sockets and gateway a chain
// really allocates: each stripe of an Instance, a Socket and the Gateway is a
// whole number of lines and its words share a line with no other stripe's; and
// what every hop reads of them shares no line with a word a hop writes. (The per-CPU array's half — the
// copies of one entry at least a line apart — is internal/ebpf's
// TestPerCPUArrayLayout.)
func TestStripeLayout(t *testing.T) {
	const line = 64
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

	// stripeWords checks that the first words bytes of each of n size-byte
	// stripes at base are on one line and on no other stripe's, and returns
	// them as the lines a hop writes.
	stripeWords := func(what string, base unsafe.Pointer, n int, size, words uintptr) []field {
		t.Helper()
		if size%line != 0 {
			t.Errorf("%s: a stripe is %d bytes, not a whole number of %d-byte lines", what, size, line)
		}
		var written []field
		for i := 0; i < n; i++ {
			w := at(unsafe.Add(base, uintptr(i)*size), words)
			if w.lo != w.hi {
				t.Errorf("%s: stripe %d's words straddle lines %d and %d", what, i, w.lo, w.hi)
			}
			for _, prev := range written {
				if prev.hi >= w.lo && prev.lo <= w.hi {
					t.Errorf("%s: stripe %d's words share a cache line with another stripe's", what, i)
				}
			}
			written = append(written, field{"a stripe's words", w})
		}
		return written
	}

	c, g := testChain(t, ModeEvent, upDownSpec(FunctionSpec{Instances: 3}, FunctionSpec{Instances: 3}))
	socketLayout := func(s *Socket) {
		t.Helper()
		var st sockStripe
		// A queued delivery — the gateway's dispatch, the reply — writes the
		// sender's stripe: its registration and the delivered count.
		written := stripeWords("Socket", unsafe.Pointer(&s.stripes), len(s.stripes), unsafe.Sizeof(st),
			unsafe.Offsetof(st.delivered)+unsafe.Sizeof(st.delivered))
		written = append(written,
			field{"dropped", at(unsafe.Pointer(&s.dropped), unsafe.Sizeof(s.dropped))},
			field{"queuedHops", at(unsafe.Pointer(&s.queuedHops), unsafe.Sizeof(s.queuedHops))})
		disjoint("Socket", []field{
			{"inst", at(unsafe.Pointer(&s.inst), unsafe.Sizeof(s.inst))},
			{"q", at(unsafe.Pointer(&s.q), unsafe.Sizeof(s.q))},
			{"closed", at(unsafe.Pointer(&s.closed), unsafe.Sizeof(s.closed))},
		}, written)
	}
	for _, fn := range c.Functions() {
		for _, in := range c.Router().Instances(fn) {
			// A hop through the instance writes one stripe: a slot of its
			// sub-budget, then delivered.
			var st slotStripe
			written := stripeWords("Instance", unsafe.Pointer(&in.stripes), len(in.stripes), unsafe.Sizeof(st),
				unsafe.Offsetof(st.delivered)+unsafe.Sizeof(st.delivered))
			disjoint("Instance", []field{
				{"concurrency", at(unsafe.Pointer(&in.concurrency), unsafe.Sizeof(in.concurrency))},
				{"stopping", at(unsafe.Pointer(&in.stopping), unsafe.Sizeof(in.stopping))},
				{"slotWaiters", at(unsafe.Pointer(&in.slotWaiters), unsafe.Sizeof(in.slotWaiters))},
				{"handler", at(unsafe.Pointer(&in.handler), unsafe.Sizeof(in.handler))},
				{"sock", at(unsafe.Pointer(&in.sock), unsafe.Sizeof(in.sock))},
				{"chain", at(unsafe.Pointer(&in.chain), unsafe.Sizeof(in.chain))},
				{"fnName", at(unsafe.Pointer(&in.fnName), unsafe.Sizeof(in.fnName))},
				{"health", at(unsafe.Pointer(&in.health), unsafe.Sizeof(in.health))},
			}, written)
			socketLayout(in.sock)
		}
	}
	socketLayout(g.sock)

	// A request writes one stripe of the gateway: the caller ID it is dealt,
	// then admitted and completed.
	var gst gwStripe
	written := stripeWords("Gateway", unsafe.Pointer(&g.stripes), len(g.stripes), unsafe.Sizeof(gst),
		unsafe.Offsetof(gst.completed)+unsafe.Sizeof(gst.completed))
	disjoint("Gateway", []field{
		{"chain", at(unsafe.Pointer(&g.chain), unsafe.Sizeof(g.chain))},
		{"sock", at(unsafe.Pointer(&g.sock), unsafe.Sizeof(g.sock))},
		{"eprox", at(unsafe.Pointer(&g.eprox), unsafe.Sizeof(g.eprox))},
		{"admission", at(unsafe.Pointer(&g.admission), unsafe.Sizeof(g.admission))},
		{"stop", at(unsafe.Pointer(&g.stop), unsafe.Sizeof(g.stop))},
	}, written)
	var pc pendCount
	stripeWords("pendTable.counts", unsafe.Pointer(&g.pending.counts), len(g.pending.counts), unsafe.Sizeof(pc), unsafe.Sizeof(pc.n))
}

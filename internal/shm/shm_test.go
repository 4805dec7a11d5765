package shm

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDescriptorRoundTrip(t *testing.T) {
	f := func(fn, buf, ln, caller uint32) bool {
		d := Descriptor{NextFn: fn, Buf: buf, Len: ln, Caller: caller}
		w := d.Marshal()
		got, err := UnmarshalDescriptor(w[:])
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorWireSize(t *testing.T) {
	d := Descriptor{NextFn: 1, Buf: 2, Len: 3, Caller: 4}
	w := d.Marshal()
	if len(w) != 16 {
		t.Fatalf("descriptor must be exactly 16 bytes (paper §3.2.1), got %d", len(w))
	}
}

func TestDescriptorShortBuffer(t *testing.T) {
	if _, err := UnmarshalDescriptor(make([]byte, 15)); err == nil {
		t.Fatal("short buffer must fail")
	}
}

func TestPoolGetPut(t *testing.T) {
	p, err := NewPool("chain-a", 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(h, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Payload(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if err := p.Put(h); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Payload(h); err != ErrNotOwned {
		t.Fatalf("released buffer must not be readable, got %v", err)
	}
}

func TestPoolExhaustionIsBackpressure(t *testing.T) {
	p, _ := NewPool("x", 2, 64)
	a, _ := p.Get()
	b, _ := p.Get()
	if _, err := p.Get(); err != ErrPoolExhausted {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	if p.Stats().Failures != 1 {
		t.Fatal("failure must be counted")
	}
	p.Put(a)
	if _, err := p.Get(); err != nil {
		t.Fatalf("freed buffer must be reusable: %v", err)
	}
	_ = b
}

func TestPoolZeroCopyAliasing(t *testing.T) {
	p, _ := NewPool("x", 1, 64)
	h, _ := p.Get()
	p.Write(h, []byte("abc"))
	b1, _ := p.Payload(h)
	b2, _ := p.Payload(h)
	b1[0] = 'Z'
	if b2[0] != 'Z' {
		t.Fatal("payload views must alias the same slab (zero-copy)")
	}
}

func TestPoolRefCounting(t *testing.T) {
	p, _ := NewPool("x", 1, 64)
	h, _ := p.Get()
	if err := p.Ref(h); err != nil {
		t.Fatal(err)
	}
	p.Put(h)
	if _, err := p.Payload(h); err != nil {
		t.Fatal("buffer must stay live with one reference remaining")
	}
	p.Put(h)
	if _, err := p.Payload(h); err != ErrNotOwned {
		t.Fatal("buffer must be freed when last reference drops")
	}
	if err := p.Ref(h); err != ErrNotOwned {
		t.Fatal("Ref on a free buffer must fail")
	}
}

func TestPoolWriteOverflow(t *testing.T) {
	p, _ := NewPool("x", 1, 8)
	h, _ := p.Get()
	if _, err := p.Write(h, make([]byte, 9)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized write must fail with ErrPayloadTooLarge, got %v", err)
	}
}

func TestPoolBadHandle(t *testing.T) {
	p, _ := NewPool("x", 1, 8)
	if _, err := p.Bytes(99); err != ErrBadHandle {
		t.Fatalf("want ErrBadHandle, got %v", err)
	}
	if err := p.Put(99); err != ErrBadHandle {
		t.Fatalf("want ErrBadHandle, got %v", err)
	}
}

func TestPoolStatsHighWater(t *testing.T) {
	p, _ := NewPool("x", 8, 16)
	var hs []uint32
	for i := 0; i < 5; i++ {
		h, _ := p.Get()
		hs = append(hs, h)
	}
	for _, h := range hs {
		p.Put(h)
	}
	s := p.Stats()
	if s.HighWater != 5 {
		t.Fatalf("high water %d want 5", s.HighWater)
	}
	if s.InUse != 0 || s.Allocs != 5 || s.Frees != 5 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestPoolInvalidGeometry(t *testing.T) {
	if _, err := NewPool("x", 0, 8); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := NewPool("x", 8, 0); err == nil {
		t.Fatal("zero buffer size must fail")
	}
}

func TestPoolClosedRejectsGet(t *testing.T) {
	p, _ := NewPool("x", 1, 8)
	p.Close()
	if _, err := p.Get(); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	p, _ := NewPool("x", 64, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h, err := p.Get()
				if err != nil {
					continue // exhaustion is legal under contention
				}
				if _, err := p.Write(h, []byte{seed}); err != nil {
					t.Error(err)
				}
				b, err := p.Payload(h)
				if err != nil || b[0] != seed {
					t.Errorf("corrupted buffer: %v %v", b, err)
				}
				if err := p.Put(h); err != nil {
					t.Error(err)
				}
			}
		}(byte(g))
	}
	wg.Wait()
	if p.Stats().InUse != 0 {
		t.Fatalf("leaked buffers: %d in use", p.Stats().InUse)
	}
}

// Property: under any sequence of get/put operations the number of live
// buffers never exceeds capacity and frees never exceed allocs.
func TestPoolAccountingInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		p, _ := NewPool("x", 4, 8)
		var live []uint32
		for _, get := range ops {
			if get {
				if h, err := p.Get(); err == nil {
					live = append(live, h)
				}
			} else if len(live) > 0 {
				p.Put(live[len(live)-1])
				live = live[:len(live)-1]
			}
			s := p.Stats()
			if s.InUse != len(live) || s.InUse > s.Capacity || s.Frees > s.Allocs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestManagerDuplicatePrefixRejected(t *testing.T) {
	m := NewManager()
	m.CreatePool("chain-1", 8, 64)
	if _, err := m.CreatePool("chain-1", 8, 64); err == nil {
		t.Fatal("duplicate prefix must be rejected")
	}
}

func TestManagerRelease(t *testing.T) {
	m := NewManager()
	m.CreatePool("chain-1", 8, 64)
	if err := m.Release("chain-1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("chain-1"); err != ErrUnknownPrefix {
		t.Fatal("double release must fail")
	}
	if len(m.pools) != 0 {
		t.Fatal("pool count should be zero")
	}
}

func TestPoolInUseAndLeakCheck(t *testing.T) {
	p, err := NewPool("leak", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 0 {
		t.Fatalf("fresh pool InUse %d", p.InUse())
	}
	if err := p.LeakCheck(); err != nil {
		t.Fatalf("fresh pool leaks: %v", err)
	}
	a, _ := p.Get()
	b, _ := p.Get()
	if err := p.Ref(b); err != nil { // b now holds 2 refs
		t.Fatal(err)
	}
	if p.InUse() != 2 {
		t.Fatalf("InUse %d want 2", p.InUse())
	}
	err = p.LeakCheck()
	if err == nil {
		t.Fatal("LeakCheck must report live buffers")
	}
	if err := p.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(b); err != nil {
		t.Fatal(err)
	}
	// b still has one residual reference: still a leak
	if err := p.LeakCheck(); err == nil {
		t.Fatal("LeakCheck must see b's residual reference")
	}
	if err := p.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := p.LeakCheck(); err != nil {
		t.Fatalf("balanced pool reported a leak: %v", err)
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse %d want 0", p.InUse())
	}
}

// Regression: Ref on a closed pool must fail with ErrClosed instead of
// silently resurrecting a handle whose lifetime ended at teardown.
func TestPoolRefOnClosedPool(t *testing.T) {
	p, _ := NewPool("x", 2, 16)
	h, _ := p.Get()
	p.Close()
	if err := p.Ref(h); err != ErrClosed {
		t.Fatalf("Ref on closed pool: got %v, want ErrClosed", err)
	}
	// Bad handles still report as such, even closed.
	if err := p.Ref(99); err != ErrBadHandle {
		t.Fatalf("Ref with bad handle on closed pool: got %v, want ErrBadHandle", err)
	}
}

// Race-exercised regression for the same bug: goroutines hammering Ref/Put
// while Close lands concurrently. Every Ref that succeeds must be matched
// by a Put that succeeds, so the final accounting is exact; run with -race.
func TestPoolRefCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		p, _ := NewPool("x", 4, 16)
		h, _ := p.Get()
		var extra atomic.Int64 // successful Refs not yet Put back
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if err := p.Ref(h); err == nil {
						extra.Add(1)
					} else if err != ErrClosed {
						t.Errorf("Ref: unexpected error %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
		wg.Wait()
		// Drain: the base reference plus every successful extra Ref.
		for n := extra.Load() + 1; n > 0; n-- {
			if err := p.Put(h); err != nil {
				t.Fatalf("Put while draining: %v", err)
			}
		}
		if err := p.LeakCheck(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// Regression: a recycled buffer must not leak the previous request's trace
// identity. Flags were reset all along; span and stamp were not — a stale
// span ID would parent the new request's spans and a stale stamp fabricates
// queue-wait attribution. This test reads the trace header words directly
// (same package) after a Put/Get recycle.
func TestPoolRecycledTraceHeaderReset(t *testing.T) {
	p, _ := NewPool("x", 1, 16)
	h, _ := p.Get()
	p.SetTraceContext(h, TraceContext{TraceHi: 1, TraceLo: 2, Span: 3, Flags: TraceSampled})
	p.SetTraceSpan(h, 0xdeadbeef)
	p.StampTrace(h, 123456789)
	if err := p.Put(h); err != nil {
		t.Fatal(err)
	}
	h2, err := p.Get() // capacity 1: must recycle the same slab
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("expected recycled handle %d, got %d", h, h2)
	}
	tr := &p.trace[h2]
	if fl := tr.flags.Load(); fl != 0 {
		t.Fatalf("recycled flags = %#x, want 0", fl)
	}
	if sp := tr.span.Load(); sp != 0 {
		t.Fatalf("recycled span = %#x, want 0 (stale span would parent new request's spans)", sp)
	}
	if st := tr.stamp.Load(); st != 0 {
		t.Fatalf("recycled stamp = %d, want 0 (stale stamp fabricates queue wait)", st)
	}
	if p.TraceSampled(h2) {
		t.Fatal("recycled buffer must not inherit sampling")
	}
}

// The topic rides the buffer while any reference lives and dies with the
// last one: a fan-out branch's release must not clear it under its sibling,
// and a recycled buffer must not inherit it.
func TestPoolTopicLifetime(t *testing.T) {
	p, _ := NewPool("x", 1, 16)
	h, _ := p.Get()
	if got := p.Topic(h); got != "" {
		t.Fatalf("fresh buffer topic = %q", got)
	}
	p.SetTopic(h, "hot")
	if err := p.Ref(h); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(h); err != nil {
		t.Fatal(err)
	}
	if got := p.Topic(h); got != "hot" {
		t.Fatalf("topic after one of two releases = %q, want hot", got)
	}
	p.SetTopic(h, "")
	if got := p.Topic(h); got != "" {
		t.Fatalf("topic after SetTopic(\"\") = %q", got)
	}
	p.SetTopic(h, "cold")
	if err := p.Put(h); err != nil {
		t.Fatal(err)
	}
	h2, err := p.Get() // capacity 1: the same slab
	if err != nil || h2 != h {
		t.Fatalf("expected recycled handle %d, got %d, %v", h, h2, err)
	}
	if got := p.Topic(h2); got != "" {
		t.Fatalf("recycled buffer inherited topic %q", got)
	}
	if got := p.Topic(99); got != "" {
		t.Fatalf("out-of-range handle topic = %q", got)
	}
}

// bulkStats is the part of PoolStats that bulk and single calls must agree on
// (Steals follows where the handles came from, which differs by design).
func bulkStats(p *Pool) PoolStats {
	s := p.Stats()
	s.Steals = 0
	return s
}

// TestPoolBulkMatchesSingles: GetN and PutN leave the pool exactly where the
// same number of Get and Put calls leave it — Allocs, Frees, InUse, HighWater,
// Failures and LeakCheck — at every step of taking n buffers, giving some
// back, sharing some, giving the rest back and running the pool dry; and a
// buffer that comes back through GetN has lost its trace identity, its topic
// and its object as one from Get has.
func TestPoolBulkMatchesSingles(t *testing.T) {
	const capacity = 96
	for _, n := range []int{1, 7, 8, 9, 64, 65, capacity} {
		singles, _ := NewPool("s", capacity, 16)
		bulk, _ := NewPool("b", capacity, 16)
		var released []uint64
		bulk.SetObjReleaseHook(func(obj uint64) { released = append(released, obj) })
		same := func(step string) {
			t.Helper()
			if a, b := bulkStats(singles), bulkStats(bulk); a != b {
				t.Fatalf("n=%d, %s:\nsingles %+v\nbulk    %+v", n, step, a, b)
			}
			if a, b := singles.LeakCheck() == nil, bulk.LeakCheck() == nil; a != b {
				t.Fatalf("n=%d, %s: LeakCheck clean: singles %v, bulk %v", n, step, a, b)
			}
		}

		one := make([]uint32, n)
		for i := range one {
			one[i], _ = singles.Get()
		}
		many := make([]uint32, n)
		if got := bulk.GetN(many); got != n {
			t.Fatalf("GetN(%d) = %d on a pool of %d", n, got, capacity)
		}
		same("taken")
		seen := map[uint32]bool{}
		perShard := map[uint32]int{}
		for _, h := range many {
			if seen[h] || bulk.refs[h].Load() != 1 {
				t.Fatalf("n=%d: handle %d given twice or with %d references", n, h, bulk.refs[h].Load())
			}
			seen[h] = true
			perShard[bulk.home(h)]++
		}
		for sh, k := range perShard {
			if k > (n+freelistShards-1)/freelistShards {
				t.Fatalf("n=%d: %d handles from shard %d, more than an even share", n, k, sh)
			}
		}

		// Dirty every buffer's headroom, share the first, release all once:
		// all but the shared one die.
		for _, h := range many {
			bulk.SetTraceContext(h, TraceContext{TraceHi: 1, TraceLo: 2, Span: 3, Flags: TraceSampled})
			bulk.StampTrace(h, 42)
			bulk.SetTopic(h, "hot")
			bulk.SetObjCarrier(h, true)
		}
		bulk.SetObjHandle(many[n-1], 77)
		bulk.Ref(many[0])
		singles.Ref(one[0])
		for _, h := range one {
			singles.Put(h)
		}
		bulk.PutN(append([]uint32{capacity + 3}, many...)) // and an out-of-range handle, skipped
		same("released once")
		if bulk.Topic(many[0]) != "hot" {
			t.Fatalf("n=%d: PutN cleared the topic under a live reference", n)
		}
		singles.Put(one[0])
		bulk.PutN(many[:1])
		bulk.PutN(many[:1]) // not allocated any more: skipped
		same("released")
		if len(released) != 1 || released[0] != 77 {
			t.Fatalf("n=%d: object release hook saw %v, want [77]", n, released)
		}

		// Run both dry: the bulk call comes up short without counting a
		// failure; the Get that follows it counts the one a Get loop meets.
		for {
			if _, err := singles.Get(); err != nil {
				break
			}
		}
		all := make([]uint32, capacity+5)
		if got := bulk.GetN(all); got != capacity {
			t.Fatalf("n=%d: GetN past capacity = %d, want %d", n, got, capacity)
		}
		if _, err := bulk.Get(); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("n=%d: Get on a dry pool: %v", n, err)
		}
		same("dry")
		for _, h := range all[:capacity] {
			tr := &bulk.trace[h]
			if tr.flags.Load() != 0 || tr.span.Load() != 0 || tr.stamp.Load() != 0 || tr.objCarrier.Load() != 0 ||
				bulk.Topic(h) != "" || bulk.ObjHandle(h) != 0 {
				t.Fatalf("n=%d: recycled buffer %d kept its last user's headroom", n, h)
			}
		}
		for h := uint32(0); h < capacity; h++ {
			singles.Put(h)
		}
		bulk.Close()
		singles.Close()
		bulk.PutN(all[:capacity])
		same("drained after Close")
		if got := bulk.GetN(all); got != 0 {
			t.Fatalf("n=%d: GetN on a closed pool = %d", n, got)
		}
	}
}

// TestPoolBulkConcurrent: bulk and single calls from many
// goroutines at once keep the accounting exact. Run with -race.
func TestPoolBulkConcurrent(t *testing.T) {
	p, _ := NewPool("x", 64, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hs := make([]uint32, 1+g*3)
			for i := 0; i < 500; i++ {
				got := p.GetN(hs)
				for _, h := range hs[:got] {
					if _, err := p.Write(h, []byte{byte(g)}); err != nil {
						t.Error(err)
					}
				}
				if i%3 == 0 && got > 0 { // one goes back on its own
					got--
					if err := p.Put(hs[got]); err != nil {
						t.Error(err)
					}
				}
				for _, h := range hs[:got] {
					if b, err := p.Payload(h); err != nil || b[0] != byte(g) {
						t.Errorf("buffer %d shared between owners: %v %v", h, b, err)
					}
				}
				p.PutN(hs[:got])
			}
		}(g)
	}
	wg.Wait()
	if s := p.Stats(); s.InUse != 0 || s.Allocs != s.Frees || s.HighWater > s.Capacity {
		t.Fatalf("accounting after the storm: %+v", s)
	}
	if err := p.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent Get/Ref/Put with multi-reference buffers and a concluding
// Close: accounting must be exact — every owner tracks its own references,
// and after all goroutines drain, InUse is 0 and LeakCheck passes. Run
// with -race.
func TestPoolConcurrentRefPutCloseAccounting(t *testing.T) {
	p, _ := NewPool("x", 64, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h, err := p.Get()
				if err != nil {
					continue // exhaustion is legal under contention
				}
				refs := 1
				// Simulate fan-out: take up to 3 extra references, hand
				// each to a "branch" that releases it.
				for k := 0; k < i%4; k++ {
					if err := p.Ref(h); err != nil {
						t.Errorf("Ref on owned buffer: %v", err)
						break
					}
					refs++
				}
				if _, err := p.Write(h, []byte{seed}); err != nil {
					t.Error(err)
				}
				for ; refs > 0; refs-- {
					if err := p.Put(h); err != nil {
						t.Errorf("Put: %v", err)
					}
				}
				// The buffer is now fully released: further access fails.
				if err := p.Ref(h); err != ErrNotOwned && err != nil {
					// Another goroutine may legitimately have re-Got this
					// handle; a successful Ref here would double-count, so
					// only ErrNotOwned or success-on-recycled is possible.
					// Balance a success immediately.
					t.Errorf("Ref after release: %v", err)
				} else if err == nil {
					if err := p.Put(h); err != nil {
						t.Errorf("balancing Put: %v", err)
					}
				}
			}
		}(byte(g))
	}
	wg.Wait()
	s := p.Stats()
	if s.InUse != 0 {
		t.Fatalf("InUse = %d after drain, want 0", s.InUse)
	}
	if s.Frees != s.Allocs {
		t.Fatalf("frees %d != allocs %d", s.Frees, s.Allocs)
	}
	if err := p.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Get(); err != ErrClosed {
		t.Fatalf("Get after Close: %v", err)
	}
}

// Pools are isolated by prefix: releasing one chain's pool leaves another
// chain's pool, and the prefix it lives under, untouched.
func TestManagerIsolationByPrefix(t *testing.T) {
	m := NewManager()
	p1, err := m.CreatePool("chain-1", 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.CreatePool("chain-2", 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("two prefixes must get two pools")
	}
	if err := m.Release("chain-3"); err != ErrUnknownPrefix {
		t.Fatalf("releasing a foreign prefix: %v, want ErrUnknownPrefix", err)
	}
	if err := m.Release("chain-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Get(); err != ErrClosed {
		t.Fatalf("Get on the released pool: %v, want ErrClosed", err)
	}
	h, err := p2.Get()
	if err != nil {
		t.Fatalf("the other chain's pool must survive: %v", err)
	}
	if err := p2.Put(h); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.pools["chain-2"]; !ok || len(m.pools) != 1 {
		t.Fatalf("pools after release: %v", m.pools)
	}
}

// The buffer header carries the trace context the gateway installs, the
// span each hop updates and the last enqueue stamp; a buffer that carries
// no sampled trace reads back the zero context.
func TestPoolTraceContextRoundTrip(t *testing.T) {
	p, _ := NewPool("x", 2, 16)
	h, _ := p.Get()
	if tc := p.TraceContext(h); tc != (TraceContext{}) {
		t.Fatalf("fresh buffer context %+v", tc)
	}
	tc := TraceContext{TraceHi: 1, TraceLo: 2, Span: 3, Flags: TraceSampled | TraceTail}
	p.SetTraceContext(h, tc)
	if got := p.TraceContext(h); got != tc || !got.Sampled() {
		t.Fatalf("context %+v, want %+v", got, tc)
	}
	p.SetTraceSpan(h, 9)
	if got := p.TraceContext(h).Span; got != 9 {
		t.Fatalf("span %d after SetTraceSpan, want 9", got)
	}
	if p.TraceStamp(h) != 0 {
		t.Fatal("fresh context must carry no enqueue stamp")
	}
	p.StampTrace(h, 42)
	if got := p.TraceStamp(h); got != 42 {
		t.Fatalf("stamp %d, want 42", got)
	}
	tail := TraceContext{TraceHi: 4, TraceLo: 5, Span: 6, Flags: TraceTail}
	p.SetTraceContext(h, tail)
	if got := p.TraceContext(h); got != tail || got.Sampled() || p.TraceSampled(h) {
		t.Fatalf("tail-only context %+v must read back unsampled", got)
	}
	if p.TraceStamp(h) != 0 {
		t.Fatal("installing a context must clear the previous stamp")
	}
	const out = 99
	p.SetTraceContext(out, tc)
	p.StampTrace(out, 1)
	if got := p.TraceContext(out); got != (TraceContext{}) || p.TraceStamp(out) != 0 {
		t.Fatalf("out-of-range handle context %+v", got)
	}
}

// The carrier mark says the attached object is the message itself. Any
// in-buffer payload write and any new attachment clear it, so it cannot
// outlive the attachment that set it.
func TestPoolObjCarrierLifetime(t *testing.T) {
	p, _ := NewPool("x", 1, 16)
	var released []uint64
	p.SetObjReleaseHook(func(obj uint64) { released = append(released, obj) })
	h, _ := p.Get()
	if p.ObjCarrier(h) || p.ObjHandle(h) != 0 {
		t.Fatal("fresh buffer carries no object")
	}
	if prev := p.SetObjHandle(h, 7); prev != 0 {
		t.Fatalf("first attach displaced %d", prev)
	}
	p.SetObjCarrier(h, true)
	if !p.ObjCarrier(h) {
		t.Fatal("carrier mark not set")
	}
	if _, err := p.Write(h, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if p.ObjCarrier(h) || p.ObjHandle(h) != 7 {
		t.Fatal("a payload write must demote the object to a rider and keep it attached")
	}
	p.SetObjCarrier(h, true)
	if prev := p.SetObjHandle(h, 8); prev != 7 {
		t.Fatalf("re-attach displaced %d, want 7", prev)
	}
	if p.ObjCarrier(h) {
		t.Fatal("a new attachment must clear the carrier mark")
	}
	p.SetObjCarrier(h, true)
	p.SetObjCarrier(h, false)
	if p.ObjCarrier(h) {
		t.Fatal("SetObjCarrier(false) must clear the mark")
	}
	if err := p.Put(h); err != nil {
		t.Fatal(err)
	}
	if len(released) != 1 || released[0] != 8 {
		t.Fatalf("released %v, want the attached object 8", released)
	}
	if p.ObjCarrier(99) || p.ObjHandle(99) != 0 || p.SetObjHandle(99, 1) != 0 {
		t.Fatal("out-of-range handle must carry no object")
	}
}

// ParseTraceparent accepts only version 00 with well-formed hex fields and
// non-zero IDs, and reads only the sampled bit of the flags.
func TestParseTraceparent(t *testing.T) {
	const (
		trace = "0102030405060708090a0b0c0d0e0f10"
		span  = "1112131415161718"
	)
	id := TraceContext{TraceHi: 0x0102030405060708, TraceLo: 0x090a0b0c0d0e0f10, Span: 0x1112131415161718}
	sampled := id
	sampled.Flags = TraceSampled
	cases := []struct {
		name string
		in   string
		want TraceContext
		ok   bool
	}{
		{"sampled", "00-" + trace + "-" + span + "-01", sampled, true},
		{"unsampled", "00-" + trace + "-" + span + "-00", id, true},
		{"upstream-bits-other-than-sampled-ignored", "00-" + trace + "-" + span + "-fe", id, true},
		{"dash-misplaced", "00-" + trace + span[:1] + "-" + span[1:] + "-01", TraceContext{}, false},
		{"version-ff", "ff-" + trace + "-" + span + "-01", TraceContext{}, false},
		{"trace-hi-not-hex", "00-zz02030405060708090a0b0c0d0e0f10-" + span + "-01", TraceContext{}, false},
		{"trace-lo-not-hex", "00-0102030405060708zz0a0b0c0d0e0f10-" + span + "-01", TraceContext{}, false},
		{"span-not-hex", "00-" + trace + "-zz12131415161718-01", TraceContext{}, false},
		{"flags-not-hex", "00-" + trace + "-" + span + "-zz", TraceContext{}, false},
		{"too-long", "00-" + trace + "-" + span + "-01-", TraceContext{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := ParseTraceparent(c.in)
			if ok != c.ok || got != c.want {
				t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v, %v", c.in, got, ok, c.want, c.ok)
			}
		})
	}
}

package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	r, err := New(8, MP)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		if err := r.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 8; i++ {
		v, err := r.Dequeue()
		if err != nil || v != i {
			t.Fatalf("got %d,%v want %d", v, err, i)
		}
	}
}

func TestFullAndEmpty(t *testing.T) {
	r, _ := New(2, MP)
	if _, err := r.Dequeue(); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	r.Enqueue(1)
	r.Enqueue(2)
	if err := r.Enqueue(3); err != ErrFull {
		t.Fatalf("want ErrFull, got %v", err)
	}
	r.Dequeue()
	if err := r.Enqueue(3); err != nil {
		t.Fatalf("space freed, enqueue should work: %v", err)
	}
}

func TestCapacityRounding(t *testing.T) {
	r, _ := New(5, MP)
	if r.Capacity() != 8 {
		t.Fatalf("capacity %d want 8 (next power of two)", r.Capacity())
	}
	if _, err := New(1, MP); err == nil {
		t.Fatal("capacity 1 must be rejected")
	}
	if _, err := New(8, MP+1); err == nil {
		t.Fatal("a mode other than MP must be rejected")
	}
}

func TestWrapAround(t *testing.T) {
	r, _ := New(4, MP)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if err := r.Enqueue(uint64(round*10 + i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			v, err := r.Dequeue()
			if err != nil || v != uint64(round*10+i) {
				t.Fatalf("round %d: got %d,%v", round, v, err)
			}
		}
	}
}

func TestLenAndFree(t *testing.T) {
	r, _ := New(8, MP)
	for i := 0; i < 5; i++ {
		r.Enqueue(uint64(i))
	}
	if free := r.Capacity() - r.Len(); r.Len() != 5 || free != 3 {
		t.Fatalf("len=%d free=%d want 5,3", r.Len(), free)
	}
}

func TestEnqueueBulkAllOrNothing(t *testing.T) {
	r, _ := New(4, MP)
	if n := r.EnqueueBulk([]uint64{1, 2, 3}); n != 3 {
		t.Fatalf("bulk of 3 into empty 4-ring: got %d", n)
	}
	if n := r.EnqueueBulk([]uint64{4, 5}); n != 0 {
		t.Fatalf("bulk of 2 into ring with 1 free must be all-or-nothing: got %d", n)
	}
	if r.Len() != 3 {
		t.Fatalf("failed bulk must not partially insert: len=%d", r.Len())
	}
}

// TestBulkBoundaries is the contract table for EnqueueBulk/DequeueBurst:
// all-or-nothing enqueue, partial-take burst dequeue, across the full,
// empty and wraparound boundaries of the index space.
func TestBulkBoundaries(t *testing.T) {
	seq := func(lo, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(lo + i)
		}
		return out
	}
	steps := []struct {
		name    string
		enq     []uint64 // when set, EnqueueBulk and expect wantN
		burst   int      // when >0, DequeueBurst(out[:burst])
		wantN   int
		wantOut []uint64 // expected DequeueBurst contents
	}{
		{name: "empty-bulk-is-noop", enq: []uint64{}, wantN: 0},
		{name: "burst-on-empty", burst: 4, wantN: 0},
		{name: "bulk-exact-capacity", enq: seq(0, 4), wantN: 4},
		{name: "bulk-one-into-full", enq: seq(9, 1), wantN: 0},
		{name: "burst-partial-take", burst: 2, wantN: 2, wantOut: seq(0, 2)},
		{name: "bulk-over-free", enq: seq(10, 3), wantN: 0},
		{name: "bulk-wraparound", enq: seq(10, 2), wantN: 2},
		{name: "burst-over-avail", burst: 8, wantN: 4, wantOut: []uint64{2, 3, 10, 11}},
		{name: "bulk-over-capacity", enq: seq(0, 5), wantN: 0},
		{name: "burst-drained", burst: 1, wantN: 0},
	}
	r, _ := New(4, MP)
	for _, s := range steps {
		name := s.name
		if s.burst > 0 || s.enq == nil {
			out := make([]uint64, s.burst)
			n := r.DequeueBurst(out)
			if n != s.wantN {
				t.Fatalf("%s: burst got %d want %d", name, n, s.wantN)
			}
			for i, want := range s.wantOut {
				if out[i] != want {
					t.Fatalf("%s: out[%d]=%d want %d", name, i, out[i], want)
				}
			}
			continue
		}
		if n := r.EnqueueBulk(s.enq); n != s.wantN {
			t.Fatalf("%s: bulk got %d want %d", name, n, s.wantN)
		}
		if s.wantN == 0 && len(s.enq) > 0 {
			// all-or-nothing: a refused bulk must leave no prefix
			before := r.Len()
			if before > r.Capacity() {
				t.Fatalf("%s: len %d exceeds capacity", name, before)
			}
		}
	}
}

// TestBulkReservationAtomicity checks the single-reservation property: a
// bulk enqueue owns a contiguous span, so the pairs enqueued by concurrent
// producers come out adjacent, never interleaved.
func TestBulkReservationAtomicity(t *testing.T) {
	r, _ := New(64, MP)
	const producers, pairs = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				base := uint64(p*pairs+i) * 2
				for r.EnqueueBulk([]uint64{base, base + 1}) == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	got := make([]uint64, 0, producers*pairs*2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		out := make([]uint64, 16)
		for len(got) < producers*pairs*2 {
			n := r.DequeueBurst(out)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			got = append(got, out[:n]...)
		}
	}()
	wg.Wait()
	<-done
	for i := 0; i+1 < len(got); i += 2 {
		if got[i]%2 != 0 || got[i+1] != got[i]+1 {
			t.Fatalf("pair broken at %d: %d,%d (bulk reservation interleaved)", i, got[i], got[i+1])
		}
	}
}

func TestPollDequeueBurst(t *testing.T) {
	r, _ := New(8, MP)
	out := make([]uint64, 8)
	done := make(chan int)
	go func() {
		done <- r.PollDequeueBurst(out, nil)
	}()
	r.EnqueueBulk([]uint64{7, 8, 9})
	n := <-done
	if n < 1 || n > 3 {
		t.Fatalf("poll burst got %d items", n)
	}
	if out[0] != 7 {
		t.Fatalf("poll burst out[0]=%d want 7", out[0])
	}
	stop := atomic.Bool{}
	stop.Store(true)
	if n := r.PollDequeueBurst(out, stop.Load); n != 0 && r.Len() == 0 {
		t.Fatalf("stopped poll on empty ring returned %d", n)
	}

	// Room for one item — how an instance worker polls: the rest stays queued.
	for r.Len() > 0 { // what the first poll left behind
		r.Dequeue()
	}
	go func() {
		done <- r.PollDequeueBurst(out[:1], nil)
	}()
	r.EnqueueBulk([]uint64{42, 43})
	if n := <-done; n != 1 || out[0] != 42 || r.Len() != 1 {
		t.Fatalf("one-slot poll took %d items, first %d, left %d queued; want 1, 42, 1", n, out[0], r.Len())
	}
	r.Dequeue()

	// A poller already spinning leaves when stop turns true.
	stop.Store(false)
	go func() {
		done <- r.PollDequeueBurst(out, stop.Load)
	}()
	stop.Store(true)
	if n := <-done; n != 0 {
		t.Fatalf("poller must report stop, got %d items", n)
	}
}

func TestDequeueBurst(t *testing.T) {
	r, _ := New(8, MP)
	for i := 0; i < 5; i++ {
		r.Enqueue(uint64(i))
	}
	out := make([]uint64, 8)
	if n := r.DequeueBurst(out); n != 5 {
		t.Fatalf("burst got %d want 5", n)
	}
	for i := 0; i < 5; i++ {
		if out[i] != uint64(i) {
			t.Fatalf("burst order wrong: %v", out[:5])
		}
	}
}

func TestMPMCNoLossNoDuplication(t *testing.T) {
	r, _ := New(64, MP)
	const producers, perProducer = 4, 1000
	const consumers = 4
	var seen sync.Map
	var got atomic.Int64
	var wg sync.WaitGroup

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got.Load() < producers*perProducer {
				v, err := r.Dequeue()
				if err != nil {
					runtime.Gosched()
					continue
				}
				if _, dup := seen.LoadOrStore(v, true); dup {
					t.Errorf("duplicate item %d", v)
					return
				}
				got.Add(1)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := uint64(p*perProducer + i)
				for r.Enqueue(v) != nil {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	if got.Load() != producers*perProducer {
		t.Fatalf("received %d items, want %d", got.Load(), producers*perProducer)
	}
}

// Property: for any operation sequence on a single goroutine, items come
// out in the order they went in.
func TestFIFOProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		r, _ := New(128, MP)
		for _, v := range vals {
			if r.Enqueue(v) != nil {
				return false
			}
		}
		for _, v := range vals {
			got, err := r.Dequeue()
			if err != nil || got != v {
				return false
			}
		}
		_, err := r.Dequeue()
		return err == ErrEmpty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

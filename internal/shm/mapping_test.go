package shm_test

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
)

// TestPoolMappingLifecycle walks a pool from creation to the return of its
// slab's mapping along every path that can return it. In each case the slab
// must stay mapped while any buffer is out, be returned by the step that
// leaves a closed pool with none, and from then on every Pool method must
// answer with an error instead of touching the slab.
func TestPoolMappingLifecycle(t *testing.T) {
	const n, bufSize = 8, 64
	cases := []struct {
		name string
		// run drives the pool to a closed, drained state, checking the
		// mapping at each step with mapped.
		run func(t *testing.T, p *shm.Pool, mapped func(step string, want bool))
	}{
		{"close drained", func(t *testing.T, p *shm.Pool, mapped func(string, bool)) {
			h, _ := p.Get()
			if err := p.Put(h); err != nil {
				t.Fatal(err)
			}
			mapped("open, drained", true)
			p.Close()
			mapped("closed", false)
		}},
		{"close twice", func(t *testing.T, p *shm.Pool, mapped func(string, bool)) {
			h, _ := p.Get()
			p.Close()
			p.Close()
			mapped("closed twice, buffer out", true)
			if err := p.Put(h); err != nil {
				t.Fatal(err)
			}
			mapped("last put", false)
			p.Close()
			mapped("closed again", false)
		}},
		{"buffers out stay usable, last put unmaps", func(t *testing.T, p *shm.Pool, mapped func(string, bool)) {
			a, _ := p.Get()
			b, _ := p.Get()
			if _, err := p.Write(a, []byte("before close")); err != nil {
				t.Fatal(err)
			}
			if err := p.Ref(b); err != nil {
				t.Fatal(err)
			}
			p.Close()
			mapped("closed, two buffers out", true)
			if got, err := p.Payload(a); err != nil || !bytes.Equal(got, []byte("before close")) {
				t.Fatalf("buffer out at Close reads %q, %v", got, err)
			}
			if _, err := p.Write(b, []byte("after close")); err != nil {
				t.Fatalf("buffer out at Close must stay writable: %v", err)
			}
			if got, err := p.Payload(b); err != nil || !bytes.Equal(got, []byte("after close")) {
				t.Fatalf("write after Close reads back %q, %v", got, err)
			}
			if err := p.Put(a); err != nil {
				t.Fatal(err)
			}
			if err := p.Put(b); err != nil {
				t.Fatal(err)
			}
			mapped("one reference left", true)
			if err := p.Put(b); err != nil {
				t.Fatal(err)
			}
			mapped("last put", false)
		}},
		{"last PutN unmaps", func(t *testing.T, p *shm.Pool, mapped func(string, bool)) {
			hs := make([]uint32, 4)
			if got := p.GetN(hs); got != len(hs) {
				t.Fatalf("GetN got %d", got)
			}
			p.Close()
			p.PutN(hs[:2])
			mapped("half put back", true)
			p.PutN(hs[2:])
			mapped("last PutN", false)
		}},
		{"object released after Store.Close", func(t *testing.T, p *shm.Pool, mapped func(string, bool)) {
			st := objstore.New(p, objstore.Config{SpillDir: t.TempDir()})
			obj, err := st.Put("k", bytes.Repeat([]byte{7}, 3*bufSize))
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			p.Close()
			mapped("closed, object resident", true)
			if err := st.Release(obj); err != nil {
				t.Fatal(err)
			}
			mapped("object released", false)
		}},
		{"object riding the last buffer", func(t *testing.T, p *shm.Pool, mapped func(string, bool)) {
			st := objstore.New(p, objstore.Config{SpillDir: t.TempDir()})
			obj, err := st.Put("k", bytes.Repeat([]byte{7}, 2*bufSize))
			if err != nil {
				t.Fatal(err)
			}
			h, _ := p.Get()
			if err := st.Attach(h, obj); err != nil {
				t.Fatal(err)
			}
			if err := st.Release(obj); err != nil { // the buffer holds the last reference
				t.Fatal(err)
			}
			st.Close()
			p.Close()
			mapped("closed, buffer carries the object", true)
			// The buffer's Put hands the object to the store, whose Release
			// puts the slabs back: that PutN is the last.
			if err := p.Put(h); err != nil {
				t.Fatal(err)
			}
			mapped("buffer put", false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := shm.NewPool("mapping", n, bufSize)
			if err != nil {
				t.Fatal(err)
			}
			mapped := func(step string, want bool) {
				t.Helper()
				if p.Unmapped() == want {
					t.Fatalf("%s: slab mapped = %v, want %v", step, !want, want)
				}
			}
			tc.run(t, p, mapped)
			if s := p.Stats(); s.InUse != 0 || s.Allocs != s.Frees {
				t.Fatalf("accounting: %+v", s)
			}
			for h := uint32(0); h < n; h++ {
				if _, err := p.Get(); !errors.Is(err, shm.ErrClosed) {
					t.Fatalf("Get: %v", err)
				}
				if got := p.GetN(make([]uint32, 2)); got != 0 {
					t.Fatalf("GetN got %d", got)
				}
				if err := p.Ref(h); !errors.Is(err, shm.ErrClosed) {
					t.Fatalf("Ref(%d): %v", h, err)
				}
				if err := p.Put(h); !errors.Is(err, shm.ErrNotOwned) {
					t.Fatalf("Put(%d): %v", h, err)
				}
				p.PutN([]uint32{h})
				if _, err := p.Bytes(h); !errors.Is(err, shm.ErrNotOwned) {
					t.Fatalf("Bytes(%d): %v", h, err)
				}
				if _, err := p.Payload(h); !errors.Is(err, shm.ErrNotOwned) {
					t.Fatalf("Payload(%d): %v", h, err)
				}
				if _, err := p.Write(h, []byte("x")); !errors.Is(err, shm.ErrNotOwned) {
					t.Fatalf("Write(%d): %v", h, err)
				}
			}
			if _, err := p.Bytes(n); !errors.Is(err, shm.ErrBadHandle) {
				t.Fatalf("Bytes(out of range): %v", err)
			}
			if err := p.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			mapped("after the sweep", false)
		})
	}
}

// TestPoolMappingCloseRace lands Close among goroutines getting, writing and
// putting buffers one at a time and in bulk. Every get that succeeds must find
// the slab still mapped: a getter reserves in InUse before it looks at the
// closed flag, and Close looks at InUse after setting it, so one of the two
// sees the other. The flag is checked rather than the memory, so the test
// means the same in race builds, where the slab is heap. Run with -race.
func TestPoolMappingCloseRace(t *testing.T) {
	const getters = 4
	for round := 0; round < 200; round++ {
		p, err := shm.NewPool("mapping-race", 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var gets atomic.Int64
		start := make(chan struct{})
		for g := 0; g < getters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				hs := make([]uint32, 3)
				for i := 0; ; i++ {
					if i%2 == 0 {
						h, err := p.GetOn(uint32(g))
						if errors.Is(err, shm.ErrClosed) {
							return
						}
						if err != nil {
							continue // exhausted: legal under contention
						}
						if p.Unmapped() {
							t.Errorf("Get returned buffer %d of an unmapped slab", h)
						}
						if _, err := p.Write(h, []byte{byte(g)}); err != nil {
							t.Error(err)
						}
						gets.Add(1)
						if err := p.Put(h); err != nil {
							t.Error(err)
						}
						continue
					}
					got := p.GetN(hs)
					if got == 0 {
						continue // closed or exhausted: the next GetOn tells which
					}
					if p.Unmapped() {
						t.Errorf("GetN returned %d buffers of an unmapped slab", got)
					}
					for _, h := range hs[:got] {
						if _, err := p.Write(h, []byte{byte(g)}); err != nil {
							t.Error(err)
						}
					}
					gets.Add(int64(got))
					p.PutN(hs[:got])
				}
			}(g)
		}
		close(start)
		// Some rounds close at once, others after a few gets.
		for gets.Load() < int64(round%8) {
			runtime.Gosched()
		}
		p.Close()
		wg.Wait()
		if !p.Unmapped() {
			t.Fatalf("round %d: drained closed pool kept its mapping: %+v", round, p.Stats())
		}
		if s := p.Stats(); s.InUse != 0 || s.Allocs != s.Frees || s.HighWater > s.Capacity {
			t.Fatalf("round %d: accounting %+v", round, s)
		}
	}
}

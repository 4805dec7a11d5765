package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/spright-go/spright/internal/shm"
)

// testPool builds a small pool whose geometry forces multi-slab objects.
func testPool(t *testing.T, n, bufSize int) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool("/objstore-test", n, bufSize)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

// pattern fills n bytes with a position-dependent sequence so slab
// misalignment shows up as content corruption, not just length mismatch.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// readAll copies an open object's content via its slab views.
func readAll(t *testing.T, r *Object) []byte {
	t.Helper()
	out := make([]byte, 0, r.Size())
	for i := 0; i < r.Slabs(); i++ {
		out = append(out, r.Slab(i)...)
	}
	return out
}

func TestObjStoreRoundtrip(t *testing.T) {
	pool := testPool(t, 64, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	// 10000 bytes over 1 KiB slabs: 10 slabs, last one partial.
	want := pattern(10000, 3)
	h, err := s.Put("tensor", want)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !h.Valid() {
		t.Fatal("Put returned zero handle")
	}

	r, err := s.Open(h)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if r.Size() != int64(len(want)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(want))
	}
	if r.Slabs() != 10 {
		t.Fatalf("Slabs = %d, want 10", r.Slabs())
	}
	if r.o.key != "tensor" {
		t.Fatalf("key = %q", r.o.key)
	}
	if got := readAll(t, r); !bytes.Equal(got, want) {
		t.Fatal("slab-view content mismatch")
	}

	// ReadAt across a slab boundary.
	chunk := make([]byte, 2048)
	if _, err := r.ReadAt(chunk, 512); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(chunk, want[512:512+2048]) {
		t.Fatal("ReadAt content mismatch")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if err := s.Release(h); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("store LeakCheck: %v", err)
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
}

func TestObjStoreStaleHandle(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	h, err := s.Put("", pattern(100, 1))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Release(h); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.Ref(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("Ref after delete = %v, want ErrStaleHandle", err)
	}
	if _, err := s.Open(h); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("Open after delete = %v, want ErrStaleHandle", err)
	}
	if _, err := s.Open(0); !errors.Is(err, ErrNoObject) {
		t.Fatalf("Open(0) = %v, want ErrNoObject", err)
	}
}

func TestObjStoreRefCounting(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	h, err := s.Put("k", pattern(3000, 2))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Two extra refs (fan-out consumers): object must survive the
	// creator's release and each consumer's.
	if err := s.Ref(h); err != nil {
		t.Fatalf("Ref: %v", err)
	}
	if err := s.Ref(h); err != nil {
		t.Fatalf("Ref: %v", err)
	}
	if err := s.Release(h); err != nil { // creator
		t.Fatalf("Release: %v", err)
	}
	if err := s.Release(h); err != nil { // consumer 1
		t.Fatalf("Release: %v", err)
	}
	if st := s.Stats(); st.Objects != 1 {
		t.Fatalf("Objects = %d before final release", st.Objects)
	}
	if err := s.Release(h); err != nil { // consumer 2: deletes
		t.Fatalf("Release: %v", err)
	}
	if st := s.Stats(); st.Objects != 0 || st.Deletes != 1 {
		t.Fatalf("after final release: %+v", st)
	}
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d after delete", pool.InUse())
	}
}

func TestObjStoreAttachLifetime(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	h, err := s.Put("intermediate", pattern(2500, 4))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	// A request buffer carries the handle downstream; the buffer's final
	// Put fires the pool hook, which releases the attached reference.
	buf, err := pool.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := s.Attach(buf, h); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if got := Handle(s.pool.ObjHandle(buf)); got != h {
		t.Fatalf("Attached = %v, want %v", got, h)
	}
	if err := s.Release(h); err != nil { // creator drops its reference
		t.Fatalf("Release: %v", err)
	}
	if st := s.Stats(); st.Objects != 1 {
		t.Fatal("object died while still attached to a live buffer")
	}

	// Fan-out: the buffer gains a second reference, both branches Put. The
	// object must die exactly once, on the last Put.
	if err := pool.Ref(buf); err != nil {
		t.Fatalf("pool.Ref: %v", err)
	}
	if err := pool.Put(buf); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if st := s.Stats(); st.Objects != 1 {
		t.Fatal("object released before the buffer's last reference")
	}
	if err := pool.Put(buf); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if st := s.Stats(); st.Objects != 0 {
		t.Fatal("buffer death did not release the attached object")
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
}

func TestObjStoreDetachAndDisplace(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	h1, _ := s.Put("a", pattern(100, 1))
	h2, _ := s.Put("b", pattern(100, 2))
	buf, err := pool.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := s.Attach(buf, h1); err != nil {
		t.Fatalf("Attach h1: %v", err)
	}
	_ = s.Release(h1) // buffer now holds h1's only reference

	// Attaching h2 displaces h1: its reference must be released, not leaked.
	if err := s.Attach(buf, h2); err != nil {
		t.Fatalf("Attach h2: %v", err)
	}
	if err := s.Ref(h1); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("displaced object not released: %v", err)
	}

	s.Detach(buf)
	if got := Handle(s.pool.ObjHandle(buf)); got != 0 {
		t.Fatalf("Attached after Detach = %v", got)
	}
	_ = s.Release(h2) // creator reference; detach already dropped the buffer's
	if err := pool.Put(buf); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck: %v", err)
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
}

func TestObjStoreLookup(t *testing.T) {
	pool := testPool(t, 32, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	h1, _ := s.Put("model", pattern(100, 1))
	h2, _ := s.Put("model", pattern(200, 2)) // latest wins
	got, ok := s.Lookup("model")
	if !ok || got != h2 {
		t.Fatalf("Lookup = %v,%v want %v", got, ok, h2)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}

	r, err := s.Open(got)
	if err != nil {
		t.Fatalf("Open of the looked-up handle: %v", err)
	}
	if r.Size() != 200 {
		t.Fatalf("looked-up object size = %d", r.Size())
	}
	_ = r.Close()

	// Deleting the latest clears the key; the older object (different ID)
	// does not resurrect under it.
	_ = s.Release(h2)
	if _, ok := s.Lookup("model"); ok {
		t.Fatal("key still resolves after latest object deleted")
	}
	_ = s.Release(h1)
}

func TestObjStoreSpillAndReload(t *testing.T) {
	dir := t.TempDir()
	pool := testPool(t, 64, 1024)
	// Budget of 4 slabs: committing the second 4-slab object must spill the
	// first to the file tier.
	s := New(pool, Config{MaxResidentBytes: 4 * 1024, SpillDir: dir})

	want1 := pattern(4000, 10)
	want2 := pattern(4000, 20)
	h1, err := s.Put("cold", want1)
	if err != nil {
		t.Fatalf("Put cold: %v", err)
	}
	h2, err := s.Put("hot", want2)
	if err != nil {
		t.Fatalf("Put hot: %v", err)
	}

	st := s.Stats()
	if st.Spills != 1 || st.Spilled != 1 || st.Resident != 1 {
		t.Fatalf("after budget spill: %+v", st)
	}
	if st.SpillBytes != 4000 {
		t.Fatalf("SpillBytes = %d", st.SpillBytes)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "spright-obj-*"))
	if len(files) != 1 {
		t.Fatalf("spill files = %v", files)
	}

	// Transparent reload: Open of the spilled object must return its exact
	// content and evict the other one (budget still 4 slabs).
	r, err := s.Open(h1)
	if err != nil {
		t.Fatalf("Open spilled: %v", err)
	}
	if got := readAll(t, r); !bytes.Equal(got, want1) {
		t.Fatal("content corrupted across spill+reload")
	}
	_ = r.Close()

	st = s.Stats()
	if st.Reloads != 1 || st.ReloadBytes != 4000 {
		t.Fatalf("after reload: %+v", st)
	}
	if st.Spills != 2 { // reload pushed "hot" over budget
		t.Fatalf("Spills = %d, want 2 (reload evicts the other)", st.Spills)
	}

	// The second object survives its own spill round-trip too.
	r2, err := s.Open(h2)
	if err != nil {
		t.Fatalf("Open h2: %v", err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, want2) {
		t.Fatal("h2 corrupted across spill+reload")
	}
	_ = r2.Close()

	_ = s.Release(h1)
	_ = s.Release(h2)
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck: %v", err)
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "spright-obj-*")); len(files) != 0 {
		t.Fatalf("spill files left after release: %v", files)
	}
}

// TestObjStoreSpillReloadChurnConcurrent hammers the busy-transition
// machinery: a tight resident budget forces every Open to reload its target
// and evict a sibling, while other goroutines' Opens race both. Tier
// transitions drop s.mu around their file I/O, so this is the test that
// makes a mid-transition object visible to concurrent Open/Close/Release —
// run under -race it pins the lock-free I/O rework.
func TestObjStoreSpillReloadChurnConcurrent(t *testing.T) {
	pool := testPool(t, 256, 1024)
	// Budget of 8 slabs with 4-slab objects: at most two resident, so
	// every reload evicts and every commit spills.
	s := New(pool, Config{MaxResidentBytes: 8 * 1024, SpillDir: t.TempDir()})

	const objects = 6
	handles := make([]Handle, objects)
	wants := make([][]byte, objects)
	for i := range handles {
		wants[i] = pattern(4000, byte(i*3+1))
		h, err := s.Put(fmt.Sprintf("churn-%d", i), wants[i])
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		handles[i] = h
	}

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (seed + it) % objects
				r, err := s.Open(handles[i])
				if err != nil {
					errs <- fmt.Errorf("Open %d: %w", i, err)
					return
				}
				if !bytes.Equal(readAll(t, r), wants[i]) {
					_ = r.Close()
					errs <- fmt.Errorf("object %d corrupted across churn", i)
					return
				}
				if err := r.Close(); err != nil {
					errs <- fmt.Errorf("Close %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, h := range handles {
		if err := s.Release(h); err != nil {
			t.Fatalf("Release %d: %v", i, err)
		}
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck: %v", err)
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
	s.Close()
}

func TestObjStorePinBlocksSpill(t *testing.T) {
	pool := testPool(t, 64, 1024)
	s := New(pool, Config{MaxResidentBytes: 4 * 1024, SpillDir: t.TempDir()})

	h1, _ := s.Put("pinned", pattern(4000, 1))
	r, err := s.Open(h1) // pin: h1 cannot spill while open
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h2, err := s.Put("other", pattern(4000, 2))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	// The budget wants a spill, but the only other resident object is
	// pinned — the freshly committed one is exempt, so nothing spills and
	// the store simply runs over budget.
	st := s.Stats()
	if st.Spilled != 0 {
		t.Fatalf("pinned or fresh object spilled: %+v", st)
	}
	if got := readAll(t, r); !bytes.Equal(got, pattern(4000, 1)) {
		t.Fatal("pinned object content changed")
	}
	_ = r.Close()
	_ = s.Release(h1)
	_ = s.Release(h2)
}

func TestObjStorePoolExhaustionSpills(t *testing.T) {
	// Pool of 8 slabs, no byte budget: the second object's writes exhaust
	// the pool and must push the first object out to the file tier.
	pool := testPool(t, 8, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	want1 := pattern(6000, 5) // 6 slabs
	want2 := pattern(6000, 9) // needs 6 of the remaining 2 → forces spill
	h1, err := s.Put("first", want1)
	if err != nil {
		t.Fatalf("Put first: %v", err)
	}
	h2, err := s.Put("second", want2)
	if err != nil {
		t.Fatalf("Put second: %v", err)
	}

	st := s.Stats()
	if st.ExhaustSpills == 0 {
		t.Fatalf("expected exhaustion-driven spill: %+v", st)
	}
	r1, err := s.Open(h1) // reload: evicts h2 or fails? budget unlimited → pool pressure again
	if err != nil {
		t.Fatalf("Open first after spill: %v", err)
	}
	if got := readAll(t, r1); !bytes.Equal(got, want1) {
		t.Fatal("first object corrupted")
	}
	_ = r1.Close()
	r2, err := s.Open(h2)
	if err != nil {
		t.Fatalf("Open second: %v", err)
	}
	if got := readAll(t, r2); !bytes.Equal(got, want2) {
		t.Fatal("second object corrupted")
	}
	_ = r2.Close()

	_ = s.Release(h1)
	_ = s.Release(h2)
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
}

func TestObjStoreMaxObjectBytes(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{MaxObjectBytes: 2048, SpillDir: t.TempDir()})

	if _, err := s.Put("big", pattern(4096, 1)); !errors.Is(err, shm.ErrPayloadTooLarge) {
		t.Fatalf("oversize Put = %v, want ErrPayloadTooLarge", err)
	}
	// The aborted write must not leak slabs.
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d after rejected Put", pool.InUse())
	}
	// At the cap exactly is fine.
	if _, err := s.Put("fits", pattern(2048, 2)); err != nil {
		t.Fatalf("Put at cap: %v", err)
	}
}

func TestObjStoreWriterAbort(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	w := s.Create("aborted")
	if _, err := w.Write(pattern(3000, 1)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if pool.InUse() != 3 {
		t.Fatalf("InUse = %d mid-write", pool.InUse())
	}
	w.Abort()
	if pool.InUse() != 0 {
		t.Fatalf("InUse = %d after Abort", pool.InUse())
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrWriterCommitted) {
		t.Fatalf("Write after Abort = %v", err)
	}
	if _, err := w.Commit(); !errors.Is(err, ErrWriterCommitted) {
		t.Fatalf("Commit after Abort = %v", err)
	}
	if _, ok := s.Lookup("aborted"); ok {
		t.Fatal("aborted object visible under its key")
	}
}

func TestObjStoreClose(t *testing.T) {
	dir := t.TempDir()
	pool := testPool(t, 64, 1024)
	s := New(pool, Config{MaxResidentBytes: 4 * 1024, SpillDir: dir})

	h1, _ := s.Put("a", pattern(4000, 1))
	h2, _ := s.Put("b", pattern(4000, 2)) // spills h1
	s.Close()

	// Spill files are gone; new work is refused; draining still works.
	if files, _ := filepath.Glob(filepath.Join(dir, "spright-obj-*")); len(files) != 0 {
		t.Fatalf("spill files after Close: %v", files)
	}
	if _, err := s.Put("c", []byte("x")); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Put after Close = %v", err)
	}
	if _, err := s.Open(h2); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Open after Close = %v", err)
	}
	if err := s.Release(h1); err != nil {
		t.Fatalf("Release after Close: %v", err)
	}
	if err := s.Release(h2); err != nil {
		t.Fatalf("Release after Close: %v", err)
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
}

func TestObjStoreLeakCheckReports(t *testing.T) {
	pool := testPool(t, 16, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})

	h, _ := s.Put("leaky", pattern(100, 1))
	err := s.LeakCheck()
	if err == nil {
		t.Fatal("LeakCheck nil with a live object")
	}
	for _, frag := range []string{"leaky", "1 leaked"} {
		if !bytes.Contains([]byte(err.Error()), []byte(frag)) {
			t.Fatalf("LeakCheck error %q missing %q", err, frag)
		}
	}
	_ = s.Release(h)
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck after release: %v", err)
	}
}

// TestObjStoreConcurrentReaders is the fan-out shape under race: one 10-slab
// object, many goroutines opening, verifying content zero-copy, and closing,
// while a writer goroutine churns unrelated objects to keep the allocator and
// the LRU busy.
func TestObjStoreConcurrentReaders(t *testing.T) {
	pool := testPool(t, 256, 1024)
	s := New(pool, Config{MaxResidentBytes: 64 * 1024, SpillDir: t.TempDir()})

	want := pattern(10240, 7)
	h, err := s.Put("shared", want)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	const readers = 8
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r, err := s.Open(h)
				if err != nil {
					errs <- fmt.Errorf("Open: %w", err)
					return
				}
				ok := true
				for j := 0; j < r.Slabs(); j++ {
					lo := j * pool.BufSize()
					hi := lo + len(r.Slab(j))
					if !bytes.Equal(r.Slab(j), want[lo:hi]) {
						ok = false
					}
				}
				if cerr := r.Close(); cerr != nil {
					errs <- fmt.Errorf("Close: %w", cerr)
					return
				}
				if !ok {
					errs <- errors.New("content mismatch under concurrency")
					return
				}
			}
		}()
	}
	// Churn: unrelated objects come and go, stressing spill decisions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			hc, err := s.Put("", pattern(5000, byte(i)))
			if err != nil {
				errs <- fmt.Errorf("churn Put: %w", err)
				return
			}
			if err := s.Release(hc); err != nil {
				errs <- fmt.Errorf("churn Release: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := s.Release(h); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.LeakCheck(); err != nil {
		t.Fatalf("LeakCheck: %v", err)
	}
	if err := pool.LeakCheck(); err != nil {
		t.Fatalf("pool LeakCheck: %v", err)
	}
}

// TestObjStoreOpenAllocFree asserts the steady-state read path allocates
// nothing: pooled readers, zero-copy slab views.
func TestObjStoreOpenAllocFree(t *testing.T) {
	pool := testPool(t, 64, 1024)
	s := New(pool, Config{SpillDir: t.TempDir()})
	h, err := s.Put("hot", pattern(8192, 3))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Warm the reader pool.
	r, _ := s.Open(h)
	_ = r.Close()

	var total int64
	allocs := testing.AllocsPerRun(100, func() {
		r, err := s.Open(h)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < r.Slabs(); i++ {
			total += int64(len(r.Slab(i)))
		}
		_ = r.Close()
	})
	if allocs > 0 {
		t.Fatalf("read path allocates %v per op, want 0", allocs)
	}
	if total == 0 {
		t.Fatal("read nothing")
	}
	_ = s.Release(h)
}

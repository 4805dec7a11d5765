//go:build linux && !race

package shm_test

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"github.com/spright-go/spright/internal/shm"
)

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		t.Fatalf("statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatalf("statm: %v", err)
	}
	return pages * int64(os.Getpagesize())
}

// TestPoolCommitsWhatItTouches creates 64 MiB pools and checks that the
// process grows by the buffers it writes, not by the pool's capacity. The
// second pool comes after a collection that gave the first pool's memory back
// to the OS: a heap slab there is reused memory the runtime must zero in
// full before handing it out, where a mapping faults in only what is touched.
func TestPoolCommitsWhatItTouches(t *testing.T) {
	const n, bufSize, bound = 4096, 16 << 10, 8 << 20
	grew := func(step string, before int64) {
		t.Helper()
		if d := residentBytes(t) - before; d >= bound {
			t.Fatalf("%s: resident set grew %.1f MiB, want under %d MiB", step, float64(d)/(1<<20), bound>>20)
		}
	}

	base := residentBytes(t)
	p, err := shm.NewPool("rss-a", n, bufSize)
	if err != nil {
		t.Fatal(err)
	}
	grew("first pool created", base)
	p.Close()
	runtime.GC()
	debug.FreeOSMemory()

	base = residentBytes(t)
	p, err = shm.NewPool("rss-b", n, bufSize)
	if err != nil {
		t.Fatal(err)
	}
	grew("second pool created", base)
	page := make([]byte, bufSize)
	for i := range page {
		page[i] = byte(i)
	}
	hs := make([]uint32, 4)
	for i := range hs {
		if hs[i], err = p.Get(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(hs[i], page); err != nil {
			t.Fatal(err)
		}
	}
	grew("four buffers written", base)
	p.PutN(hs)
	p.Close()
}

package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestStripedHistogramMatchesSerial: a snapshot of a striped histogram holds
// exactly the buckets, count and extremes of one dense histogram (the model
// in dense_test.go) fed the same stream serially, whether the keys spread
// over all 32 stripes or land on one, and only the stripes a key reached hold
// a histogram. The snapshot's sum is the per-stripe sums added in stripe
// order, so the mean may differ from the serial one in the last bits.
func TestStripedHistogramMatchesSerial(t *testing.T) {
	for _, keys := range []struct {
		name    string
		of      func(i int) uint64
		stripes int
	}{
		{"all stripes", func(i int) uint64 { return uint64(i) }, stripeCount},
		{"one stripe", func(i int) uint64 { return uint64(7 + i*stripeCount) }, 1},
	} {
		rng := rand.New(rand.NewSource(3))
		s, m := NewStripedHistogram(), newDense()
		sameAsModel(t, keys.name+": empty", s.Snapshot(), m)
		for i := 0; i < 5000; i++ {
			v := valueMix(rng)
			s.Observe(keys.of(i), v)
			m.Observe(v)
		}
		snap := s.Snapshot()
		if math.Abs(snap.sum-m.sum) > 1e-12*m.sum {
			t.Fatalf("%s: sum %v, serial %v", keys.name, snap.sum, m.sum)
		}
		snap.sum = m.sum
		sameAsModel(t, keys.name, snap, m)
		used := 0
		for i := range s.stripes {
			if s.stripes[i].h != nil {
				used++
			}
		}
		if used != keys.stripes {
			t.Fatalf("%s: %d stripes hold a histogram, want %d", keys.name, used, keys.stripes)
		}
	}
}

// TestStripedHistogramConcurrent: writers observe while Snapshot runs in a
// loop from before the first Observe, so the readers race the creation of
// every stripe's histogram; counts read never go backwards.
func TestStripedHistogramConcurrent(t *testing.T) {
	s := NewStripedHistogram()
	const writers, perWriter = stripeCount, 1000
	start, done := make(chan struct{}), make(chan struct{})
	var writing, reading sync.WaitGroup
	for range 2 {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var prev uint64
			for {
				n := s.Snapshot().Count()
				if n < prev {
					t.Errorf("count went backwards: %d after %d", n, prev)
					return
				}
				prev = n
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			<-start
			// Writer w's first key is stripe w's, so every stripe's first
			// Observe races the readers; then it walks all the stripes.
			for i := 0; i < perWriter; i++ {
				s.Observe(uint64(w+i), 1e-3)
			}
		}(w)
	}
	close(start)
	writing.Wait()
	close(done)
	reading.Wait()
	if got := s.Snapshot().Count(); got != writers*perWriter {
		t.Fatalf("snapshot count %d want %d", got, writers*perWriter)
	}
}

// TestHistogramFootprint: a histogram costs what it holds. A fresh Histogram
// is its header and chunk table, a fresh StripedHistogram its 32 stripes,
// with no bucket allocated; and once the chunks a stream touches exist,
// Observe allocates nothing, striped or not.
func TestHistogramFootprint(t *testing.T) {
	const fresh = 64
	bytesPer := func(newOne func() any) uint64 {
		keep := make([]any, fresh)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = newOne()
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return (after.TotalAlloc - before.TotalAlloc) / fresh
	}
	plain, striped := bytesPer(func() any { return NewHistogram() }), bytesPer(func() any { return NewStripedHistogram() })
	t.Logf("fresh Histogram %d B, fresh StripedHistogram %d B", plain, striped)
	if plain > 512 {
		t.Errorf("NewHistogram allocates %d B, want at most 512", plain)
	}
	if striped > 4096 {
		t.Errorf("NewStripedHistogram allocates %d B, want at most 4096", striped)
	}

	values := []float64{-1, 0, 1e-9, 3e-6, 2e-5, 4e-4, 1e-3, 0.25, 7, 1e3, 1e9}
	h, s := NewHistogram(), NewStripedHistogram()
	for _, v := range values {
		h.Observe(v)
		for key := uint64(0); key < stripeCount; key++ {
			s.Observe(key, v)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range values {
			h.Observe(v)
		}
	}); n != 0 {
		t.Errorf("Histogram.Observe into existing chunks: %v allocations per run, want 0", n)
	}
	key := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range values {
			s.Observe(key, v)
			key++
		}
	}); n != 0 {
		t.Errorf("StripedHistogram.Observe into existing chunks: %v allocations per run, want 0", n)
	}
}

package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// denseHistogram is the reference model for Histogram: the same geometry and
// arithmetic over one flat 2048-bucket slice, every bucket allocated up front.
// Histogram keeps its buckets in chunks allocated on first touch, and must
// give bit-identical results.
type denseHistogram struct {
	buckets  []uint64
	count    uint64
	sum      float64
	min, max float64
	base     float64
	ratio    float64
}

func newDense() *denseHistogram {
	return &denseHistogram{
		buckets: make([]uint64, bucketCount),
		base:    1e-9,
		ratio:   1.0138,
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

func (h *denseHistogram) bucketOf(v float64) int {
	if v <= h.base {
		return 0
	}
	b := int(math.Log(v/h.base) / math.Log(h.ratio))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	return b
}

func (h *denseHistogram) bucketValue(i int) float64 {
	return h.base * math.Pow(h.ratio, float64(i+1))
}

func (h *denseHistogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[h.bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *denseHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *denseHistogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

func (h *denseHistogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			v := h.bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

func (h *denseHistogram) Merge(other *denseHistogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

func (h *denseHistogram) Sub(older *denseHistogram) *denseHistogram {
	d := newDense()
	if older == nil {
		d.Merge(h)
		return d
	}
	clamped := false
	for i, c := range h.buckets {
		oc := older.buckets[i]
		if c < oc {
			clamped = true
		}
		if c <= oc {
			continue
		}
		n := c - oc
		d.buckets[i] = n
		d.count += n
		if lo := d.base * math.Pow(d.ratio, float64(i)); lo < d.min {
			d.min = lo
		}
		if hi := d.bucketValue(i); hi > d.max {
			d.max = hi
		}
	}
	if d.count == 0 {
		return d
	}
	if clamped {
		d.sum = 0
		for i, n := range d.buckets {
			if n > 0 {
				d.sum += float64(n) * d.base * math.Pow(d.ratio, float64(i)+0.5)
			}
		}
	} else if d.sum = h.sum - older.sum; d.sum < 0 {
		d.sum = 0
	}
	return d
}

// flat returns h's buckets as one dense slice.
func (h *Histogram) flat() []uint64 {
	out := make([]uint64, bucketCount)
	for i, c := range h.buckets {
		out[i] = c
	}
	return out
}

// quantiles are the q values every comparison reads.
var quantiles = []float64{0, 0.5, 0.9, 0.99, 0.999, 1}

// sameAsModel fails t unless h and the model m hold the same state and
// answer every read identically, to the bit.
func sameAsModel(t *testing.T, what string, h *Histogram, m *denseHistogram) {
	t.Helper()
	if !reflect.DeepEqual(h.flat(), m.buckets) {
		t.Fatalf("%s: buckets differ from the dense model", what)
	}
	if h.Count() != m.count || h.sum != m.sum || h.min != m.min || h.max != m.max {
		t.Fatalf("%s: count/sum/min/max %d/%v/%v/%v, model %d/%v/%v/%v",
			what, h.Count(), h.sum, h.min, h.max, m.count, m.sum, m.min, m.max)
	}
	if h.Mean() != m.Mean() || h.Max() != m.Max() {
		t.Fatalf("%s: mean/max %v/%v, model %v/%v", what, h.Mean(), h.Max(), m.Mean(), m.Max())
	}
	for _, q := range quantiles {
		if got, want := h.Quantile(q), m.Quantile(q); got != want {
			t.Fatalf("%s: q%v = %v, model %v", what, q, got, want)
		}
	}
}

// valueMix draws one value: mostly latencies spread log-uniformly over
// 1 ns – 1 s, plus the edges — values at or below the 1e-9 base, exact zero,
// negatives (clamped to 0), and values at or past 1e3, which all land in the
// last bucket.
func valueMix(rng *rand.Rand) float64 {
	switch r := rng.Intn(20); {
	case r == 0:
		return -rng.Float64() * 10
	case r == 1:
		return 0
	case r == 2:
		return 1e-9 * rng.Float64()
	case r == 3:
		return 1e3 * (1 + rng.Float64()*1e3)
	case r == 4:
		return 1e3
	default:
		return math.Pow(10, -9+9*rng.Float64())
	}
}

// narrow draws values inside [lo, lo*4): two chunks at most, so a stream of
// them leaves most chunks unallocated.
func narrow(rng *rand.Rand, lo float64) float64 { return lo * (1 + 3*rng.Float64()) }

// pair feeds the same n values to a fresh Histogram and a fresh model.
func pair(n int, draw func() float64) (*Histogram, *denseHistogram) {
	h, m := NewHistogram(), newDense()
	for i := 0; i < n; i++ {
		v := draw()
		h.Observe(v)
		m.Observe(v)
	}
	return h, m
}

// TestHistogramMatchesDenseModel: over seeded random streams — empty, edge
// values, narrow bands that leave most chunks unallocated — the chunked
// histogram answers Count, Mean, Min, Max, Quantile, CDF and Summary exactly
// as the dense model does, and so do the results of Merge and Sub, including
// Sub's reset/clamp case where the older snapshot has counts in a chunk the
// newer one never allocated.
func TestHistogramMatchesDenseModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wide := func() float64 { return valueMix(rng) }
		fast := func() float64 { return narrow(rng, 2e-6) }
		slow := func() float64 { return narrow(rng, 5e-2) }
		n := rng.Intn(2000)

		empty, emptyM := pair(0, wide)
		sameAsModel(t, "empty", empty, emptyM)
		a, am := pair(n, wide)
		sameAsModel(t, fmt.Sprintf("seed %d: stream of %d", seed, n), a, am)
		f, fm := pair(rng.Intn(500), fast)
		sameAsModel(t, fmt.Sprintf("seed %d: narrow stream", seed), f, fm)

		// Merge: into an empty histogram, of an empty one, and of two streams
		// whose chunks only partly overlap.
		for _, c := range []struct {
			name   string
			into   *Histogram
			intoM  *denseHistogram
			other  *Histogram
			otherM *denseHistogram
		}{
			{"merge into empty", NewHistogram(), newDense(), a, am},
			{"merge of empty", a.Sub(nil), am.Sub(nil), empty, emptyM},
			{"merge narrow into wide", a.Sub(nil), am.Sub(nil), f, fm},
			{"merge wide into narrow", f.Sub(nil), fm.Sub(nil), a, am},
		} {
			c.into.Merge(c.other)
			c.intoM.Merge(c.otherM)
			sameAsModel(t, fmt.Sprintf("seed %d: %s", seed, c.name), c.into, c.intoM)
		}

		// Sub of a growing stream: the newer snapshot is the older one plus
		// more observations, some in chunks the older never touched.
		older, olderM := pair(rng.Intn(1000), wide)
		newer, newerM := older.Sub(nil), olderM.Sub(nil)
		for i, k := 0, rng.Intn(1000); i < k; i++ {
			v := wide()
			if i%3 == 0 {
				v = slow()
			}
			newer.Observe(v)
			newerM.Observe(v)
		}
		sameAsModel(t, fmt.Sprintf("seed %d: window", seed), newer.Sub(older), newerM.Sub(olderM))
		sameAsModel(t, fmt.Sprintf("seed %d: Sub(nil)", seed), newer.Sub(nil), newerM.Sub(nil))
		sameAsModel(t, fmt.Sprintf("seed %d: empty window", seed), newer.Sub(newer), newerM.Sub(newerM))
		sameAsModel(t, fmt.Sprintf("seed %d: empty minus empty", seed), empty.Sub(empty), emptyM.Sub(emptyM))
		sameAsModel(t, fmt.Sprintf("seed %d: empty minus stream", seed), empty.Sub(a), emptyM.Sub(am))
		sameAsModel(t, fmt.Sprintf("seed %d: stream minus empty", seed), a.Sub(empty), am.Sub(emptyM))

		// Reset: the stream restarted, so older has counts in slow chunks the
		// newer, fast-only snapshot never allocated, and every bucket clamps
		// there; partly reset, some of the slow counts are back but fewer.
		was, wasM := pair(1+rng.Intn(500), slow)
		if c := was.bucketOf(was.Max()) >> chunkBits; f.chunks[c] != nil {
			t.Fatalf("seed %d: chunk %d is in both snapshots; the reset case needs it in the older only", seed, c)
		}
		sameAsModel(t, fmt.Sprintf("seed %d: reset window", seed), f.Sub(was), fm.Sub(wasM))
		partial, partialM := f.Sub(nil), fm.Sub(nil)
		for i, k := 0, rng.Intn(int(was.Count())); i < k; i++ {
			v := slow()
			partial.Observe(v)
			partialM.Observe(v)
		}
		sameAsModel(t, fmt.Sprintf("seed %d: partial reset window", seed), partial.Sub(was), partialM.Sub(wasM))
	}
}

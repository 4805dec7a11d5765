// Package metrics provides the measurement toolkit for the evaluation:
// log-bucketed latency histograms with percentile/CDF extraction, time
// series for RPS and CPU usage, and confidence intervals across repeated
// runs (the paper reports 99% CIs over 10 repetitions).
package metrics

import (
	"math"
)

// Bucket geometry: bucketCount buckets, stored as chunkCount chunks of
// chunkSize buckets each.
const (
	bucketCount = 2048
	chunkBits   = 6
	chunkSize   = 1 << chunkBits
	chunkCount  = bucketCount / chunkSize
)

// chunk is chunkSize consecutive bucket counters (512 B).
type chunk [chunkSize]uint64

// Histogram is a log-bucketed histogram of non-negative values (latencies
// in seconds, sizes in bytes, ...). Buckets grow geometrically, giving
// ~1.5% relative error over nine decades, HDR-histogram style. The buckets
// live in chunks allocated the first time a value lands in them, so a
// histogram costs its ~300 B header plus 512 B per chunk its values touch.
// A chunk spans a factor of ~2.4, so values within one decade touch three
// or four of the 32. The zero value is not ready; use NewHistogram.
type Histogram struct {
	chunks [chunkCount]*chunk // nil: every bucket of the chunk is 0
	count  uint64
	sum    float64
	min    float64
	max    float64

	base  float64 // smallest representable value
	ratio float64 // bucket growth factor
}

// NewHistogram creates a histogram covering [1e-9, ~1e3) seconds.
func NewHistogram() *Histogram {
	return &Histogram{
		base:  1e-9,
		ratio: 1.0138, // 2048 buckets span ~12 decades
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}
}

func (h *Histogram) bucketOf(v float64) int {
	if v <= h.base {
		return 0
	}
	b := int(math.Log(v/h.base) / math.Log(h.ratio))
	if b >= bucketCount {
		b = bucketCount - 1
	}
	return b
}

// bucketValue returns the representative (upper-edge) value of bucket i.
func (h *Histogram) bucketValue(i int) float64 {
	return h.base * math.Pow(h.ratio, float64(i+1))
}

// touch returns chunk ci, allocating it on first touch.
func (h *Histogram) touch(ci int) *chunk {
	if h.chunks[ci] == nil {
		h.chunks[ci] = new(chunk)
	}
	return h.chunks[ci]
}

// bucket returns bucket i's counter, allocating its chunk on first touch.
func (h *Histogram) bucket(i int) *uint64 {
	return &h.touch(i >> chunkBits)[i&(chunkSize-1)]
}

// buckets is an iterator over the index and count of every bucket in the
// chunks h has, in index order. The buckets of absent chunks, all 0, are
// skipped.
func (h *Histogram) buckets(yield func(i int, c uint64) bool) {
	for ci, ch := range h.chunks {
		if ch == nil {
			continue
		}
		for j, c := range ch {
			if !yield(ci<<chunkBits+j, c) {
				return
			}
		}
	}
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	*h.bucket(h.bucketOf(v))++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) with bucket resolution.
func (h *Histogram) Quantile(q float64) float64 {
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

// Merge adds other's observations into h (same geometry required), walking
// only the chunks other has.
func (h *Histogram) Merge(other *Histogram) {
	for ci, och := range other.chunks {
		if och == nil {
			continue
		}
		ch := h.touch(ci)
		for j, c := range och {
			ch[j] += c
		}
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

// Sub returns the observations present in h but not in older: the sliding
// window between two cumulative snapshots of the same stream (same
// geometry). Bucket counts are clamped at zero, so a stream reset degrades
// to the newer snapshot instead of underflowing; when any bucket clamps,
// the sum is rebuilt from bucket midpoints (the raw difference would not
// match the clamped counts, skewing Mean). The window's min/max are
// bucket-edge approximations — the exact extremes are not recoverable from
// two cumulative snapshots.
func (h *Histogram) Sub(older *Histogram) *Histogram {
	d := NewHistogram()
	if older == nil {
		d.Merge(h)
		return d
	}
	clamped := false
	for ci, och := range older.chunks {
		if h.chunks[ci] == nil && och != nil && *och != (chunk{}) {
			clamped = true // older counted in a chunk h has never touched (reset)
		}
	}
	for i, c := range h.buckets {
		var oc uint64
		if och := older.chunks[i>>chunkBits]; och != nil {
			oc = och[i&(chunkSize-1)]
		}
		if c < oc {
			clamped = true // this bucket's counter went backwards (reset)
		}
		if c <= oc {
			continue
		}
		n := c - oc
		*d.bucket(i) = n
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
		// After a partial reset the raw sum difference no longer matches
		// the clamped buckets; rebuild it from bucket midpoints so Mean()
		// stays consistent with the window's counts (bucket-resolution
		// approximation, like Quantile).
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

// ConfidenceInterval99 returns the half-width of the 99% CI of the mean of
// xs using the normal approximation (z = 2.576), as the paper reports over
// its 10 repetitions.
func ConfidenceInterval99(xs []float64) (mean, halfWidth float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 2.576 * sd / math.Sqrt(n)
}

package metrics

import "strings"

// TimeSeries accumulates (t, value) observations bucketed into fixed
// windows — the RPS and CPU-usage traces of Figs. 9–12.
type TimeSeries struct {
	window float64 // seconds per bucket
	sums   []float64
	counts []uint64
	mode   SeriesMode
}

// SeriesMode selects how bucket values are reported.
type SeriesMode int

// Series modes.
const (
	// ModeRate reports bucketSum/window (e.g. requests per second when
	// each observation contributes 1).
	ModeRate SeriesMode = iota
	// ModeMean reports the average of observations in the bucket
	// (e.g. response time or CPU usage samples).
	ModeMean
)

// NewTimeSeries creates a series with the given bucket width in seconds.
func NewTimeSeries(windowSec float64, mode SeriesMode) *TimeSeries {
	if windowSec <= 0 {
		panic("metrics: window must be positive")
	}
	return &TimeSeries{window: windowSec, mode: mode}
}

func (ts *TimeSeries) grow(idx int) {
	for len(ts.sums) <= idx {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
}

// Observe adds value at time t (seconds).
func (ts *TimeSeries) Observe(t, value float64) {
	if t < 0 {
		return
	}
	idx := int(t / ts.window)
	ts.grow(idx)
	ts.sums[idx] += value
	ts.counts[idx]++
}

// Point is one reported bucket.
type Point struct {
	T float64 // bucket start time, seconds
	V float64
}

// Points renders the series.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.sums))
	for i := range ts.sums {
		v := 0.0
		switch ts.mode {
		case ModeRate:
			v = ts.sums[i] / ts.window
		case ModeMean:
			if ts.counts[i] > 0 {
				v = ts.sums[i] / float64(ts.counts[i])
			}
		}
		out[i] = Point{T: float64(i) * ts.window, V: v}
	}
	return out
}

// Mean returns the mean of all bucket values (ignoring empty buckets in
// ModeMean).
func (ts *TimeSeries) Mean() float64 {
	pts := ts.Points()
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for i, p := range pts {
		if ts.mode == ModeMean && ts.counts[i] == 0 {
			continue
		}
		sum += p.V
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Max returns the maximum bucket value.
func (ts *TimeSeries) Max() float64 {
	var max float64
	for _, p := range ts.Points() {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// Sparkline renders an ASCII sparkline for terminal reports.
func (ts *TimeSeries) Sparkline(width int) string {
	pts := ts.Points()
	if len(pts) == 0 || width <= 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	max := ts.Max()
	if max == 0 {
		return strings.Repeat("▁", min(width, len(pts)))
	}
	step := float64(len(pts)) / float64(width)
	if step < 1 {
		step = 1
	}
	var b strings.Builder
	for i := 0.0; int(i) < len(pts) && b.Len() < width*4; i += step {
		v := pts[int(i)].V
		lvl := int(v / max * float64(len(ramp)-1))
		b.WriteRune(ramp[lvl])
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

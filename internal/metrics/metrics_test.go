package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0.001, 0.002, 0.003, 0.004, 0.005} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-0.003) > 1e-9 {
		t.Fatalf("mean %v", m)
	}
	if h.min != 0.001 || h.Max() != 0.005 {
		t.Fatalf("min/max %v/%v", h.min, h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	// 1000 values uniform on (0, 1] seconds
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if rel := math.Abs(got-q) / q; rel > 0.03 {
			t.Errorf("q%.2f: got %v (rel err %.3f)", q, got, rel)
		}
	}
	if h.Quantile(0) != h.min || h.Quantile(1) != h.Max() {
		t.Fatal("extreme quantiles must be min/max")
	}
}

func TestHistogramEmptySafe(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.min != 0 {
		t.Fatal("negative observation must clamp to 0")
	}
}

// The quantile function is the inverse CDF: non-decreasing in q, from the
// minimum at q=0 to the maximum at q=1.
func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%10+1) * 0.01)
	}
	prev := h.Quantile(0)
	if prev != h.min {
		t.Fatalf("q=0 reads %v, want the minimum %v", prev, h.min)
	}
	for q := 0.01; q < 1; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile fell from %v to %v at q=%.2f", prev, v, q)
		}
		prev = v
	}
	if last := h.Quantile(1); last != h.Max() || last < prev {
		t.Fatalf("q=1 reads %v, want the maximum %v", last, h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(0.001)
	b.Observe(0.1)
	a.Merge(b)
	if a.Count() != 2 || a.Max() != 0.1 || a.min != 0.001 {
		t.Fatalf("merge wrong: count %d, min %v, max %v", a.Count(), a.min, a.Max())
	}
}

func TestHistogramSub(t *testing.T) {
	older := NewHistogram()
	for i := 0; i < 100; i++ {
		older.Observe(0.050) // old slow era
	}
	cur := NewHistogram()
	cur.Merge(older)
	for i := 0; i < 1000; i++ {
		cur.Observe(0.001) // new fast era
	}

	win := cur.Sub(older)
	if win.Count() != 1000 {
		t.Fatalf("window count %d, want 1000", win.Count())
	}
	if p99 := win.Quantile(0.99); p99 > 0.010 {
		t.Fatalf("window p99 %.4fs polluted by the subtracted era, want ~1ms", p99)
	}
	if mean := win.Mean(); mean > 0.010 {
		t.Fatalf("window mean %.4fs, want ~1ms", mean)
	}

	// Nil baseline: Sub degrades to a copy of the cumulative histogram.
	if all := cur.Sub(nil); all.Count() != cur.Count() {
		t.Fatalf("Sub(nil) count %d, want %d", all.Count(), cur.Count())
	}

	// A stale (larger) baseline clamps to empty rather than underflowing.
	if neg := older.Sub(cur); neg.Count() != 0 {
		t.Fatalf("underflowing Sub count %d, want clamp to 0", neg.Count())
	}
}

// TestHistogramSubPartialReset: when some bucket's counter goes backwards
// (the stream restarted below the baseline), the window sum is rebuilt from
// bucket midpoints so Mean() matches the clamped counts instead of the
// meaningless raw sum difference.
func TestHistogramSubPartialReset(t *testing.T) {
	older := NewHistogram()
	for i := 0; i < 100; i++ {
		older.Observe(0.050)
	}
	reset := NewHistogram() // restarted stream: fewer slow, many fast
	for i := 0; i < 10; i++ {
		reset.Observe(0.050)
	}
	for i := 0; i < 1000; i++ {
		reset.Observe(0.001)
	}
	win := reset.Sub(older)
	if win.Count() != 1000 {
		t.Fatalf("window count %d, want the 1000 un-clamped observations", win.Count())
	}
	if mean := win.Mean(); mean < 0.0005 || mean > 0.002 {
		t.Fatalf("window mean %.5fs after a partial reset, want ~1ms (midpoint approximation)", mean)
	}
}

func TestHistogramQuantileWithinBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(float64(r) / 1000)
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			v := h.Quantile(q)
			if v < h.min || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceInterval(t *testing.T) {
	mean, hw := ConfidenceInterval99([]float64{10, 10, 10, 10})
	if mean != 10 || hw != 0 {
		t.Fatalf("constant data: mean=%v hw=%v", mean, hw)
	}
	mean, hw = ConfidenceInterval99([]float64{9, 11})
	if mean != 10 || hw <= 0 {
		t.Fatalf("spread data: mean=%v hw=%v", mean, hw)
	}
	if m, h := ConfidenceInterval99(nil); m != 0 || h != 0 {
		t.Fatal("empty input must be zero")
	}
	if m, h := ConfidenceInterval99([]float64{5}); m != 5 || h != 0 {
		t.Fatal("single sample must have zero width")
	}
}

func TestTimeSeriesRate(t *testing.T) {
	ts := NewTimeSeries(1.0, ModeRate)
	// 10 requests in second 0, 20 in second 2
	for i := 0; i < 10; i++ {
		ts.Observe(0.5, 1)
	}
	for i := 0; i < 20; i++ {
		ts.Observe(2.5, 1)
	}
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("points %d want 3", len(pts))
	}
	if pts[0].V != 10 || pts[1].V != 0 || pts[2].V != 20 {
		t.Fatalf("rates %v", pts)
	}
}

func TestTimeSeriesMean(t *testing.T) {
	ts := NewTimeSeries(1.0, ModeMean)
	ts.Observe(0.1, 2)
	ts.Observe(0.9, 4)
	pts := ts.Points()
	if pts[0].V != 3 {
		t.Fatalf("mean bucket %v want 3", pts[0].V)
	}
}

func TestTimeSeriesNegativeTimeIgnored(t *testing.T) {
	ts := NewTimeSeries(1.0, ModeRate)
	ts.Observe(-1, 1)
	if len(ts.Points()) != 0 {
		t.Fatal("negative time must be ignored")
	}
}

func TestTimeSeriesMeanSkipsEmptyBuckets(t *testing.T) {
	ts := NewTimeSeries(1.0, ModeMean)
	ts.Observe(0.5, 10)
	ts.Observe(5.5, 20)
	if m := ts.Mean(); m != 15 {
		t.Fatalf("mean %v want 15 (empty buckets skipped)", m)
	}
}

func TestTimeSeriesMaxAndSparkline(t *testing.T) {
	ts := NewTimeSeries(1.0, ModeRate)
	ts.Observe(0.5, 1)
	ts.Observe(1.5, 1)
	ts.Observe(1.6, 1)
	if ts.Max() != 2 {
		t.Fatalf("max %v", ts.Max())
	}
	if s := ts.Sparkline(10); s == "" {
		t.Fatal("sparkline empty")
	}
	empty := NewTimeSeries(1.0, ModeRate)
	if empty.Sparkline(10) != "" {
		t.Fatal("empty series sparkline must be empty")
	}
}

func TestTimeSeriesWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window must panic")
		}
	}()
	NewTimeSeries(0, ModeRate)
}

package obs

// Tail-latency attribution and SLO evaluation. The tracer already keeps
// cumulative per-stage histograms (ring.wait, handler, gateway.drain, …)
// and the gateway a cumulative end-to-end latency histogram; what they
// cannot answer is "what is the p99 *now*". The SLOMonitor turns those
// cumulative signals into sliding-window percentiles by snapshotting them
// on the chain's scrape-interval agent tick and differencing the newest
// snapshot against the one just older than the window
// (metrics.Histogram.Sub) — the classic two-cumulative-counters window
// without a second set of per-request observations. /slo renders the
// result per chain: window p50/p99/p999 end to end and per stage, the
// error rate, and a "p99 budget breakdown" naming the stage that dominates
// the tail.

import (
	"math"
	"sync"
	"time"

	"github.com/spright-go/spright/internal/metrics"
)

// SLOSource exposes one chain's cumulative latency signals to the monitor.
// All three funcs must be safe for concurrent use (they snapshot live
// counters, like registry collectors do).
type SLOSource struct {
	// Latency returns the cumulative end-to-end latency histogram.
	Latency func() *metrics.Histogram
	// Stages returns the cumulative per-stage duration histograms.
	Stages func() map[string]*metrics.Histogram
	// Counts returns cumulative completed and failed request counts.
	Counts func() (completed, failed uint64)
}

// sloSnap is one cumulative snapshot taken at a tick.
type sloSnap struct {
	at        time.Time
	latency   *metrics.Histogram
	stages    map[string]*metrics.Histogram
	completed uint64
	failed    uint64
}

// SLOMonitor maintains the sliding-window view of one chain.
type SLOMonitor struct {
	src    SLOSource
	window time.Duration
	start  time.Time

	mu    sync.Mutex // guards the snapshot ring and trend (TimeSeries has no internal locking)
	snaps []sloSnap  // ring, oldest overwritten
	next  int
	n     int
	trend *metrics.TimeSeries // window p99 (ms) over time, ModeMean
}

// NewSLOMonitor builds a monitor over src with the given sliding window.
// The snapshot ring holds enough ticks to always span the window at the
// given tick interval (both <= 0 fall back to 10s window, 500ms ticks).
func NewSLOMonitor(src SLOSource, window, tick time.Duration) *SLOMonitor {
	if window <= 0 {
		window = 10 * time.Second
	}
	if tick <= 0 {
		tick = 500 * time.Millisecond
	}
	depth := int(window/tick) + 2
	if depth < 4 {
		depth = 4
	}
	if depth > 4096 {
		depth = 4096
	}
	// Trend buckets at tick resolution, floored at 100ms so a fast agent
	// does not balloon the series.
	bucket := tick.Seconds()
	if bucket < 0.1 {
		bucket = 0.1
	}
	return &SLOMonitor{
		src:    src,
		window: window,
		start:  time.Now(),
		snaps:  make([]sloSnap, depth),
		trend:  metrics.NewTimeSeries(bucket, metrics.ModeMean),
	}
}

// snapshot captures the source's cumulative state.
func (m *SLOMonitor) snapshot(now time.Time) sloSnap {
	s := sloSnap{at: now}
	if m.src.Latency != nil {
		s.latency = m.src.Latency()
	}
	if m.src.Stages != nil {
		s.stages = m.src.Stages()
	}
	if m.src.Counts != nil {
		s.completed, s.failed = m.src.Counts()
	}
	return s
}

// Tick records one snapshot (called from the chain's metrics-agent cadence
// or a test) and feeds the p99 trend series. The trend observation stays
// inside the critical section: Report reads trend concurrently from the
// /slo handler, and the snapshot histograms are immutable copies, so the
// Sub under the lock is cheap and race-free.
func (m *SLOMonitor) Tick(now time.Time) {
	s := m.snapshot(now)
	m.mu.Lock()
	m.snaps[m.next] = s
	m.next = (m.next + 1) % len(m.snaps)
	if m.n < len(m.snaps) {
		m.n++
	}
	base := m.baselineLocked(now)
	if s.latency != nil {
		win := s.latency.Sub(baseLatency(base))
		if win.Count() > 0 {
			m.trend.Observe(now.Sub(m.start).Seconds(), win.Quantile(0.99)*1e3)
		}
	}
	m.mu.Unlock()
}

func baseLatency(base *sloSnap) *metrics.Histogram {
	if base == nil {
		return nil
	}
	return base.latency
}

// baselineLocked returns the newest retained snapshot at least window old
// (falling back to the oldest retained one), or nil when none exists yet.
// Callers hold mu.
func (m *SLOMonitor) baselineLocked(now time.Time) *sloSnap {
	var best *sloSnap
	for i := 0; i < m.n; i++ {
		idx := m.next - 1 - i
		for idx < 0 {
			idx += len(m.snaps)
		}
		s := &m.snaps[idx]
		if s.at.IsZero() {
			continue
		}
		best = s
		if now.Sub(s.at) >= m.window {
			break
		}
	}
	return best
}

// StageSLO is one stage's share of the window tail.
type StageSLO struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// P99Share is this stage's fraction of the summed per-stage p99 —
	// the "p99 budget breakdown" of the window.
	P99Share float64 `json:"p99_share"`
}

// SLOReport is the sliding-window view rendered at /slo for one chain.
type SLOReport struct {
	Chain         string     `json:"chain"`
	WindowSeconds float64    `json:"window_seconds"`
	Requests      uint64     `json:"requests"`
	Failed        uint64     `json:"failed"`
	ErrorRate     float64    `json:"error_rate"`
	P50Ms         float64    `json:"p50_ms"`
	P99Ms         float64    `json:"p99_ms"`
	P999Ms        float64    `json:"p999_ms"`
	Dominant      string     `json:"p99_dominant_stage,omitempty"`
	Stages        []StageSLO `json:"stages,omitempty"`
	TrendP99Ms    []float64  `json:"p99_trend_ms,omitempty"`
}

// Report computes the current sliding-window view: a fresh snapshot
// differenced against the retained baseline. Before the first tick the
// report covers the chain's whole lifetime.
func (m *SLOMonitor) Report(chain string, now time.Time) SLOReport {
	cur := m.snapshot(now)
	m.mu.Lock()
	var base *sloSnap
	if b := m.baselineLocked(now); b != nil {
		// Copy out of the ring: a concurrent Tick may overwrite the slot.
		// The snap's histograms are immutable snapshots, so a shallow copy
		// is enough.
		cp := *b
		base = &cp
	}
	m.mu.Unlock()

	rep := SLOReport{Chain: chain, WindowSeconds: m.window.Seconds()}
	if base != nil {
		if span := now.Sub(base.at); span > 0 {
			rep.WindowSeconds = span.Seconds()
		}
		rep.Requests = sat(cur.completed, base.completed) + sat(cur.failed, base.failed)
		rep.Failed = sat(cur.failed, base.failed)
	} else {
		rep.Requests = cur.completed + cur.failed
		rep.Failed = cur.failed
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Failed) / float64(rep.Requests)
	}
	if cur.latency != nil {
		win := cur.latency.Sub(baseLatency(base))
		rep.P50Ms = win.Quantile(0.50) * 1e3
		rep.P99Ms = win.Quantile(0.99) * 1e3
		rep.P999Ms = win.Quantile(0.999) * 1e3
	}

	var budget float64
	for stage, h := range cur.stages {
		var old *metrics.Histogram
		if base != nil {
			old = base.stages[stage]
		}
		win := h.Sub(old)
		if win.Count() == 0 {
			continue
		}
		s := StageSLO{
			Stage:  stage,
			Count:  win.Count(),
			P50Ms:  win.Quantile(0.50) * 1e3,
			P99Ms:  win.Quantile(0.99) * 1e3,
			P999Ms: win.Quantile(0.999) * 1e3,
		}
		budget += s.P99Ms
		rep.Stages = append(rep.Stages, s)
	}
	// Deterministic order: biggest p99 first; the head names the tail.
	sortStages(rep.Stages)
	if budget > 0 {
		for i := range rep.Stages {
			rep.Stages[i].P99Share = rep.Stages[i].P99Ms / budget
		}
		rep.Dominant = rep.Stages[0].Stage
	}

	m.mu.Lock()
	pts := m.trend.Points()
	m.mu.Unlock()
	if len(pts) > 0 {
		const keep = 32
		if len(pts) > keep {
			pts = pts[len(pts)-keep:]
		}
		rep.TrendP99Ms = make([]float64, 0, len(pts))
		for _, p := range pts {
			rep.TrendP99Ms = append(rep.TrendP99Ms, round3(p.V))
		}
	}
	return rep
}

func sat(a, b uint64) uint64 {
	if a <= b {
		return 0
	}
	return a - b
}

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }

func sortStages(ss []StageSLO) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0; j-- {
			a, b := &ss[j-1], &ss[j]
			if a.P99Ms > b.P99Ms || (a.P99Ms == b.P99Ms && a.Stage < b.Stage) {
				break
			}
			*a, *b = *b, *a
		}
	}
}

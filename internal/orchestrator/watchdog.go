package orchestrator

// SLO watchdog: the per-chain breach detector layered on the sliding-window
// SLO monitor. It evaluates on the gateway's metrics-agent tick (no
// goroutine of its own), counts breaches by kind into /metrics, journals
// them on the flight recorder, and — rate-limited — captures a diagnostic
// bundle at breach time: the flight events and tail traces around the
// breach, the full stats snapshot, the window report that tripped it, and
// process profiles. The bundle is written while the evidence is still in
// the bounded rings, which is the whole point of a black box.

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/obs"
)

// SLOPolicy is one chain's service-level objective plus the capture knobs
// of its watchdog.
type SLOPolicy struct {
	// TargetP99 breaches when the window p99 latency exceeds it (0: the
	// latency objective is unchecked).
	TargetP99 time.Duration
	// MaxErrorRate breaches when the window error rate (failed/requests)
	// exceeds it (0: the error objective is unchecked).
	MaxErrorRate float64
	// Window overrides the monitor's sliding window (0: keep the monitor's).
	Window time.Duration
	// MinRequests is the minimum window request count before either
	// objective is evaluated, so an idle chain's stale tail cannot breach
	// (<= 0: 16).
	MinRequests uint64

	// BundleDir is where breach bundles are written ("" falls back to the
	// observability layer's configured dir; both empty disables capture).
	BundleDir string
	// BundleCooldown is the minimum gap between bundle captures — the rate
	// limit that keeps a sustained breach from filling the disk (<= 0: 30s).
	BundleCooldown time.Duration
	// CPUProfile, when > 0, samples a CPU profile of that duration into
	// each bundle.
	CPUProfile time.Duration
	// FlightEvents bounds how many of the chain's most recent flight
	// events a bundle retains (<= 0: 256).
	FlightEvents int
	// TraceLimit bounds the retained traces rendered per bundle (<= 0: 64).
	TraceLimit int
}

// Breach kinds (the `kind` label of spright_slo_breaches_total).
const (
	BreachLatency   = "latency"
	BreachErrorRate = "error_rate"
)

// SLOWatchdog evaluates one deployment's SLOPolicy against its monitor.
type SLOWatchdog struct {
	dep    *Deployment
	obsv   *obs.Observability
	mon    *obs.SLOMonitor
	policy SLOPolicy

	breachLatency atomic.Uint64
	breachErrRate atomic.Uint64
	captured      atomic.Uint64
	suppressed    atomic.Uint64
	failed        atomic.Uint64

	// capturing serializes bundle writes per chain; lastBundle is the
	// unix-nano stamp of the newest capture (the cooldown clock).
	capturing  atomic.Bool
	lastBundle atomic.Int64

	unobserve func()
}

// EnableSLOWatchdog attaches a watchdog to a deployed chain. It evaluates
// on the chain's metrics-agent tick; Evaluate is exported for deterministic
// tests. Returns the watchdog; Deployment.Close tears it down.
func (ctl *Controller) EnableSLOWatchdog(name string, policy SLOPolicy) (*SLOWatchdog, error) {
	d, ok := ctl.Deployment(name)
	if !ok {
		return nil, fmt.Errorf("orchestrator: chain %q not deployed", name)
	}
	if policy.MinRequests <= 0 {
		policy.MinRequests = 16
	}
	if policy.BundleCooldown <= 0 {
		policy.BundleCooldown = 30 * time.Second
	}
	if policy.FlightEvents <= 0 {
		policy.FlightEvents = 256
	}
	if policy.TraceLimit <= 0 {
		policy.TraceLimit = 64
	}
	// Check-and-install is one critical section so two concurrent calls
	// cannot both pass the "already" check, double-register the slo:
	// collector, and leak a watchdog. The registry and /slo registrations
	// ride inside it: both only take their own short-lived locks, and no
	// collector or report path locks sloMu, so the order is deadlock-free.
	d.sloMu.Lock()
	defer d.sloMu.Unlock()
	if d.watchdog != nil {
		return nil, fmt.Errorf("orchestrator: chain %q already has an SLO watchdog", name)
	}
	mon := d.sloMon
	if mon == nil {
		return nil, fmt.Errorf("orchestrator: chain %q has no SLO monitor (observability off)", name)
	}
	if policy.Window > 0 {
		// A policy window replaces the default monitor so the breach math
		// and /slo agree on what "the window" means. The agent tick reads
		// d.sloMon on every tick, so the replacement starts ticking here.
		mon = obs.NewSLOMonitor(sloSource(d), policy.Window, d.Chain.ScrapeInterval())
		ctl.obsv.RegisterSLOMonitor(name, mon)
	}
	w := &SLOWatchdog{dep: d, obsv: ctl.obsv, mon: mon, policy: policy}
	if ctl.obsv != nil {
		key := "slo:" + name
		o := ctl.obsv
		o.Registry().Register(key, func() []obs.Family { return collectWatchdog(name, w) })
		w.unobserve = func() { o.Registry().Unregister(key) }
	}
	d.sloMon = mon
	d.watchdog = w
	return w, nil
}

// close drops the watchdog's collector (called from Deployment.Close).
func (w *SLOWatchdog) close() {
	if w.unobserve != nil {
		w.unobserve()
	}
}

// Policy returns the resolved policy.
func (w *SLOWatchdog) Policy() SLOPolicy { return w.policy }

// Evaluate runs one breach check against the monitor's current window and
// returns the breach kinds found (empty: within SLO). Called on every
// metrics-agent tick; safe to call concurrently.
func (w *SLOWatchdog) Evaluate(now time.Time) []string {
	chain := w.dep.Chain.Name()
	rep := w.mon.Report(chain, now)
	if rep.Requests < w.policy.MinRequests {
		return nil
	}
	fr := flightOf(w.obsv)
	var kinds []string
	if t := w.policy.TargetP99; t > 0 && rep.P99Ms > t.Seconds()*1e3 {
		w.breachLatency.Add(1)
		kinds = append(kinds, BreachLatency)
		fr.Emit(chain, obs.EventSLOBreach, rep.Dominant, BreachLatency,
			int64(rep.P99Ms*1e6)) // measured p99 in nanos
	}
	if m := w.policy.MaxErrorRate; m > 0 && rep.ErrorRate > m {
		w.breachErrRate.Add(1)
		kinds = append(kinds, BreachErrorRate)
		fr.Emit(chain, obs.EventSLOBreach, "", BreachErrorRate,
			int64(rep.ErrorRate*1e6)) // parts per million
	}
	if len(kinds) > 0 {
		w.maybeCapture(now, rep, kinds)
	}
	return kinds
}

// flightOf tolerates a nil observability (tests constructing a watchdog by
// hand); FlightRecorder.Emit is already nil-safe.
func flightOf(o *obs.Observability) *obs.FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight()
}

// maybeCapture writes one diagnostic bundle unless the cooldown or an
// in-flight capture suppresses it. The evidence (events, traces, stats,
// report) is gathered synchronously — the rings are still hot — and only
// the disk writes and profiles run on a background goroutine, so the agent
// tick never blocks on a CPU profile.
func (w *SLOWatchdog) maybeCapture(now time.Time, rep obs.SLOReport, kinds []string) {
	dir := w.policy.BundleDir
	if dir == "" && w.obsv != nil {
		dir = w.obsv.BundleDir()
	}
	if dir == "" {
		return
	}
	last := w.lastBundle.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < w.policy.BundleCooldown {
		w.suppressed.Add(1)
		return
	}
	if !w.capturing.CompareAndSwap(false, true) {
		w.suppressed.Add(1)
		return
	}
	w.lastBundle.Store(now.UnixNano())

	chain := w.dep.Chain.Name()
	id := chain + "-" + strconv.FormatInt(now.UnixNano(), 10)
	fr := flightOf(w.obsv)
	// Last N flight events: the ring snapshot is oldest-first, so keep the
	// tail.
	var events []obs.Event
	if fr != nil {
		events = fr.Events(chain, 0, 0)
		if n := w.policy.FlightEvents; len(events) > n {
			events = events[len(events)-n:]
		}
	}
	spec := obs.BundleSpec{
		Dir: dir,
		ID:  id,
		Meta: map[string]any{
			"chain":          chain,
			"breach_kinds":   kinds,
			"captured_at":    now.Format(time.RFC3339Nano),
			"target_p99_ms":  float64(w.policy.TargetP99) / 1e6,
			"max_error_rate": w.policy.MaxErrorRate,
			"window_p99_ms":  rep.P99Ms,
			"error_rate":     rep.ErrorRate,
		},
		Events:     events,
		Traces:     completedTraceData(w.dep.Chain, w.policy.TraceLimit),
		Stats:      w.dep.Gateway.Stats(),
		SLO:        rep,
		CPUProfile: w.policy.CPUProfile,
	}
	go func() {
		defer w.capturing.Store(false)
		if _, err := obs.WriteBundle(spec); err != nil {
			// A failed write is not a suppression: count it under its own
			// outcome and journal the error so disk trouble is diagnosable.
			w.failed.Add(1)
			fr.Emit(chain, obs.EventBundleFailed, "", err.Error(), 0)
			return
		}
		w.captured.Add(1)
		fr.Emit(chain, obs.EventBundleCaptured, "", id, 0)
	}()
}

// collectWatchdog exports the watchdog's breach and bundle counters.
func collectWatchdog(chain string, w *SLOWatchdog) []obs.Family {
	breaches := obs.Family{
		Name: "spright_slo_breaches_total",
		Help: "SLO watchdog breaches, by kind.",
		Type: obs.Counter,
		Samples: []obs.Sample{
			{Labels: obs.L("chain", chain, "kind", BreachLatency),
				Value: float64(w.breachLatency.Load())},
			{Labels: obs.L("chain", chain, "kind", BreachErrorRate),
				Value: float64(w.breachErrRate.Load())},
		},
	}
	bundles := obs.Family{
		Name: "spright_slo_bundles_total",
		Help: "Diagnostic bundle captures, by outcome (captured, suppressed, failed).",
		Type: obs.Counter,
		Samples: []obs.Sample{
			{Labels: obs.L("chain", chain, "outcome", "captured"),
				Value: float64(w.captured.Load())},
			{Labels: obs.L("chain", chain, "outcome", "suppressed"),
				Value: float64(w.suppressed.Load())},
			{Labels: obs.L("chain", chain, "outcome", "failed"),
				Value: float64(w.failed.Load())},
		},
	}
	return []obs.Family{breaches, bundles}
}

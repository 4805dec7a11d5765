package orchestrator

import (
	"math"
	"sync"
	"time"
)

// Autoscaler is the per-chain scaling control plane (§3.7, ROADMAP item 1):
// an EWMA controller over the dataplane's live signals — per-instance
// inflight, queue backlog (socket queue or D-SPRIGHT ring), parked scale-from-zero
// requests, gateway admission rate, circuit-breaker state — with
// hysteresis, cooldown windows, and a max step to keep it from flapping.
//
// It is self-healing: circuit-open instances are replaced through
// Chain.RestartInstance and never counted as capacity. With
// ScaleToZeroAfter set, an idle chain retires every function to zero
// replicas; the first request afterwards parks at the gateway, kicks the
// controller awake, and is served by a resumed (ideally prewarmed)
// instance rather than failed.
type Autoscaler struct {
	dep *Deployment

	cfg     AutoscalerConfig
	prewarm *PrewarmPool

	mu    sync.Mutex
	state map[string]*fnState

	// reasons counts every decision ever taken, by reason.
	reasons map[string]uint64

	// decisionSink, when set, journals every recorded decision on the
	// node's flight recorder so scale actions interleave with sheds and
	// breaker flips in one timeline. Called with a.mu held: the sink must
	// not call back into the autoscaler.
	decisionSink func(ScaleDecision)

	// idleSince marks when the whole chain last went quiet (scale-to-zero
	// clock); zero while any demand exists.
	idleSince time.Time

	// Admission-rate signal: EWMA of Δadmitted/Δt between evaluations.
	lastAdmitted uint64
	lastEval     time.Time
	admitRate    float64

	// remoteBacklog, when set, reports frames queued on inter-node send
	// rings bound for fn — cross-node demand the local queueing signals
	// cannot see (a backed-up mesh link means the remote replica set is
	// undersized exactly like a deep local socket queue would).
	remoteBacklog func(fn string) int

	ticker  *time.Ticker
	stop    chan struct{}
	kick    chan struct{}
	started bool
}

// fnState is the controller's per-function memory.
type fnState struct {
	ewma     float64
	seen     bool
	desired  int
	lastUp   time.Time
	lastDown time.Time
}

// AutoscalerConfig tunes the controller. The zero value of every knob
// reproduces the legacy instantaneous controller: no smoothing
// (EWMAAlpha 1), no hysteresis (ratios 1), no cooldowns, unbounded step,
// scale-to-zero off.
type AutoscalerConfig struct {
	// Target is the per-instance concurrency target (<=0: 32).
	Target int
	// MinReplicas is the active-chain floor (0 permits scale-to-zero as
	// a floor even without ScaleToZeroAfter; the legacy constructor uses 1).
	MinReplicas int
	// MaxReplicas caps each function (<=0: 8).
	MaxReplicas int

	// EWMAAlpha is the demand-smoothing factor in (0,1]; <=0 means 1
	// (no smoothing — the instantaneous signal).
	EWMAAlpha float64

	// ScaleUpRatio and ScaleDownRatio are the hysteresis thresholds:
	// scale up only when smoothed demand exceeds ScaleUpRatio × current
	// capacity, down only when it falls below ScaleDownRatio × capacity.
	// <=0 means 1 (no dead band). Sensible production values bracket 1,
	// e.g. 1.1 / 0.9.
	ScaleUpRatio   float64
	ScaleDownRatio float64

	// UpCooldown / DownCooldown are minimum gaps between scale actions in
	// the same direction per function. Resume-from-zero ignores them:
	// cold starts must not wait out a cooldown.
	UpCooldown   time.Duration
	DownCooldown time.Duration

	// MaxStep bounds how many replicas one evaluation may add or remove
	// per function (0: unbounded). Resume-from-zero ignores it.
	MaxStep int

	// ScaleToZeroAfter retires the whole chain to zero replicas after
	// being idle this long (0: never scale to zero).
	ScaleToZeroAfter time.Duration

	// Prewarm keeps this many pre-wired instances per function ready for
	// activation (0: no prewarm pool).
	Prewarm int

	// Interval is the evaluation period used by EnableAutoscaling
	// (<=0: 50ms).
	Interval time.Duration
}

// Scale-decision reasons.
const (
	// ReasonLoad: demand crossed a hysteresis threshold.
	ReasonLoad = "load"
	// ReasonResume: a parked request forced a zero-replica function back up.
	ReasonResume = "resume"
	// ReasonToZero: the idle chain retired to zero replicas.
	ReasonToZero = "to_zero"
	// ReasonSelfHeal is the self-heal pass replacing a circuit-open instance.
	ReasonSelfHeal = "self_heal"
)

// ScaleDecision records one autoscaling action for observability.
type ScaleDecision struct {
	Function string
	From     int
	To       int
	// Reason is one of the Reason* constants.
	Reason string
	// At is when the decision was taken.
	At time.Time
}

const defaultInterval = 50 * time.Millisecond

// NewAutoscaler builds the legacy-shaped autoscaler: instantaneous (no
// smoothing, no hysteresis, no cooldowns), floor 1, cap 8.
func NewAutoscaler(dep *Deployment, target int) *Autoscaler {
	return NewAutoscalerWithConfig(dep, AutoscalerConfig{
		Target:      target,
		MinReplicas: 1,
	})
}

// NewAutoscalerWithConfig builds an autoscaler from an explicit config.
func NewAutoscalerWithConfig(dep *Deployment, cfg AutoscalerConfig) *Autoscaler {
	if cfg.Target <= 0 {
		cfg.Target = 32
	}
	if cfg.MinReplicas < 0 {
		cfg.MinReplicas = 0
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 8
	}
	if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
		cfg.EWMAAlpha = 1
	}
	if cfg.ScaleUpRatio <= 0 {
		cfg.ScaleUpRatio = 1
	}
	if cfg.ScaleDownRatio <= 0 {
		cfg.ScaleDownRatio = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	return &Autoscaler{
		dep:     dep,
		cfg:     cfg,
		state:   make(map[string]*fnState),
		reasons: make(map[string]uint64),
		stop:    make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
}

// SetRemoteBacklog installs the cross-node demand hook: fn's queued frame
// count on this node's outbound mesh rings is folded into fn's demand
// signal each evaluation. Safe to call while the evaluate loop runs (the
// placed deployment wires it after EnableAutoscaling has started it).
func (a *Autoscaler) SetRemoteBacklog(f func(fn string) int) {
	a.mu.Lock()
	a.remoteBacklog = f
	a.mu.Unlock()
}

// Kick requests an immediate out-of-band evaluation — the gateway calls
// this (via the park notifier) when a request parks on a zero-replica
// function, so resume latency is bounded by the scheduler, not the
// evaluation interval. Non-blocking; coalesces while an evaluation runs.
func (a *Autoscaler) Kick() {
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

func (a *Autoscaler) fnState(fn string) *fnState {
	st, ok := a.state[fn]
	if !ok {
		st = &fnState{}
		a.state[fn] = st
	}
	return st
}

// SetDecisionSink installs the flight-recorder bridge (nil clears). The
// reason counters keep working regardless.
func (a *Autoscaler) SetDecisionSink(fn func(ScaleDecision)) {
	a.mu.Lock()
	a.decisionSink = fn
	a.mu.Unlock()
}

// record bumps d's reason counter and hands d to the decision sink when
// one is attached.
func (a *Autoscaler) record(d ScaleDecision) ScaleDecision {
	a.reasons[d.Reason]++
	if a.decisionSink != nil {
		a.decisionSink(d)
	}
	return d
}

// Evaluate performs one control pass and returns the decisions taken.
func (a *Autoscaler) Evaluate() []ScaleDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.evaluateLocked(time.Now())
}

func (a *Autoscaler) evaluateLocked(now time.Time) []ScaleDecision {
	c := a.dep.Chain
	g := a.dep.Gateway
	var out []ScaleDecision

	// Self-heal first: a circuit-open instance is not capacity, it is a
	// fault. Replace it before sizing so the demand below lands on
	// instances that can serve it.
	for _, in := range c.Instances() {
		if !in.CircuitOpen() {
			continue
		}
		fn := in.Function()
		n := len(c.Router().Instances(fn))
		if _, err := c.RestartInstance(in.ID()); err == nil {
			out = append(out, a.record(ScaleDecision{
				Function: fn, From: n, To: n, Reason: ReasonSelfHeal, At: now,
			}))
		}
	}

	// Admission-rate signal (EWMA of Δadmitted/Δt): exported for
	// observability and dashboards; the sizing below keys on the queueing
	// signals, which lead it.
	gs := g.Stats()
	if !a.lastEval.IsZero() {
		if dt := now.Sub(a.lastEval).Seconds(); dt > 0 {
			inst := float64(gs.Admitted-a.lastAdmitted) / dt
			a.admitRate = a.cfg.EWMAAlpha*inst + (1-a.cfg.EWMAAlpha)*a.admitRate
		}
	}
	a.lastAdmitted, a.lastEval = gs.Admitted, now

	totalDemand := 0.0

	for _, fn := range c.Functions() {
		insts := c.Router().Instances(fn)
		routable := len(insts)
		healthy := 0
		// Demand = requests parked on fn + in-flight work + the backlog
		// queued for its instances (QueueDepth: socket queue, or ring).
		parked := g.ParkedFor(fn)
		demand := float64(parked)
		for _, in := range insts {
			if !in.CircuitOpen() {
				healthy++
			}
			demand += float64(in.Inflight() + in.QueueDepth())
		}
		if a.remoteBacklog != nil {
			demand += float64(a.remoteBacklog(fn))
		}
		totalDemand += demand

		st := a.fnState(fn)
		if !st.seen {
			st.ewma, st.seen = demand, true
		} else {
			st.ewma = a.cfg.EWMAAlpha*demand + (1-a.cfg.EWMAAlpha)*st.ewma
		}

		desired := int(math.Ceil(st.ewma / float64(a.cfg.Target)))
		// Any parked request resumes the whole chain: a zero-replica
		// mid-chain function must come back too, or the head's forward
		// would fail the request the park just saved.
		if desired < 1 && (parked > 0 || (gs.Parked > 0 && routable == 0)) {
			desired = 1
		}
		if desired < a.cfg.MinReplicas {
			desired = a.cfg.MinReplicas
		}
		if desired > a.cfg.MaxReplicas {
			desired = a.cfg.MaxReplicas
		}
		st.desired = desired

		// A function deliberately idled to zero stays there: the min-
		// replica floor yields to the scale-to-zero policy until demand
		// (anywhere in the chain — mid-chain functions must come back
		// before the head forwards to them) reappears.
		atZeroIdle := routable == 0 && demand == 0 && gs.Parked == 0 &&
			a.cfg.ScaleToZeroAfter > 0
		if atZeroIdle {
			continue
		}

		switch {
		case healthy == 0 && desired > 0:
			// Resume / zero-replica restore: hysteresis, cooldown and
			// MaxStep do not apply — there is nothing serving, and a
			// parked request is waiting on this decision.
			reason := ReasonLoad
			if gs.Parked > 0 {
				reason = ReasonResume
			}
			if d, ok := a.scaleUpTo(fn, routable, routable+desired, reason, now); ok {
				out = append(out, d)
				st.lastUp = now
			}
		case desired > healthy:
			capacity := float64(healthy * a.cfg.Target)
			if st.ewma >= a.cfg.ScaleUpRatio*capacity && now.Sub(st.lastUp) >= a.cfg.UpCooldown {
				add := desired - healthy
				if a.cfg.MaxStep > 0 && add > a.cfg.MaxStep {
					add = a.cfg.MaxStep
				}
				if d, ok := a.scaleUpTo(fn, routable, routable+add, ReasonLoad, now); ok {
					out = append(out, d)
					st.lastUp = now
				}
			}
		case desired < healthy:
			capacity := float64(healthy * a.cfg.Target)
			if st.ewma <= a.cfg.ScaleDownRatio*capacity && now.Sub(st.lastDown) >= a.cfg.DownCooldown {
				drop := healthy - desired
				if a.cfg.MaxStep > 0 && drop > a.cfg.MaxStep {
					drop = a.cfg.MaxStep
				}
				if d, ok := a.scaleDownTo(fn, routable, routable-drop, now); ok {
					out = append(out, d)
					st.lastDown = now
				}
			}
		}
	}

	// Scale-to-zero: the whole chain must be quiet — no demand at any
	// function, no pending responses, no parked requests — for the full
	// idle window before it retires.
	if a.cfg.ScaleToZeroAfter > 0 {
		if totalDemand == 0 && gs.Parked == 0 && gs.Pending == 0 {
			if a.idleSince.IsZero() {
				a.idleSince = now
			} else if now.Sub(a.idleSince) >= a.cfg.ScaleToZeroAfter {
				for _, fn := range c.Functions() {
					from := len(c.Router().Instances(fn))
					if from == 0 {
						continue
					}
					if n, err := c.ScaleToZero(fn); err == nil && n > 0 {
						out = append(out, a.record(ScaleDecision{
							Function: fn, From: from, To: from - n,
							Reason: ReasonToZero, At: now,
						}))
					}
				}
			}
		} else {
			a.idleSince = time.Time{}
		}
	}

	// Keep the prewarm pool topped up for the next cold start.
	if a.prewarm != nil {
		a.prewarm.Fill()
	}
	return out
}

// scaleUpTo grows fn from `from` routable instances toward `to`,
// activating prewarmed instances first and falling back to cold ScaleUp.
func (a *Autoscaler) scaleUpTo(fn string, from, to int, reason string, now time.Time) (ScaleDecision, bool) {
	c := a.dep.Chain
	if to > a.cfg.MaxReplicas {
		to = a.cfg.MaxReplicas
	}
	have := from
	for have < to {
		if a.prewarm != nil {
			if _, ok := a.prewarm.Take(fn); ok {
				have++
				continue
			}
		}
		if _, err := c.ScaleUp(fn); err != nil {
			break
		}
		have++
	}
	if have == from {
		return ScaleDecision{}, false
	}
	return a.record(ScaleDecision{Function: fn, From: from, To: have, Reason: reason, At: now}), true
}

// scaleDownTo shrinks fn from `from` routable instances toward `to`
// (never below one — full retirement goes through ScaleToZero).
func (a *Autoscaler) scaleDownTo(fn string, from, to int, now time.Time) (ScaleDecision, bool) {
	c := a.dep.Chain
	if to < 1 {
		to = 1
	}
	have := from
	for have > to {
		if err := c.ScaleDown(fn); err != nil {
			break
		}
		have--
	}
	if have == from {
		return ScaleDecision{}, false
	}
	return a.record(ScaleDecision{Function: fn, From: from, To: have, Reason: ReasonLoad, At: now}), true
}

// Start runs Evaluate on a period (and immediately on every Kick) until
// Stop.
func (a *Autoscaler) Start(period time.Duration) {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return
	}
	a.started = true
	a.ticker = time.NewTicker(period)
	ticker, stop, kick := a.ticker, a.stop, a.kick
	a.mu.Unlock()
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				a.Evaluate()
			case <-kick:
				a.Evaluate()
			}
		}
	}()
}

// Stop halts the background loop.
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.started {
		a.ticker.Stop()
		close(a.stop)
		a.started = false
		a.stop = make(chan struct{})
	}
}

// Close stops the loop and tears down the prewarm pool.
func (a *Autoscaler) Close() {
	a.Stop()
	if a.prewarm != nil {
		a.prewarm.Close()
	}
}

// Prewarm returns the controller's prewarm pool (nil without one).
func (a *Autoscaler) PrewarmPool() *PrewarmPool { return a.prewarm }

// DecisionCounts returns all-time decision counts by reason.
func (a *Autoscaler) DecisionCounts() map[string]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]uint64, len(a.reasons))
	for k, v := range a.reasons {
		out[k] = v
	}
	return out
}

// AdmitRate returns the smoothed gateway admission rate (requests/s)
// observed between evaluations.
func (a *Autoscaler) AdmitRate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitRate
}

// FunctionScaleView is one function's controller state for observability.
type FunctionScaleView struct {
	Function string
	Replicas int // routable instances
	Healthy  int // routable minus circuit-open
	Desired  int // last computed desired replicas
	EWMA     float64
	Parked   int
}

// Views snapshots the controller's per-function state.
func (a *Autoscaler) Views() []FunctionScaleView {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.dep.Chain
	g := a.dep.Gateway
	var out []FunctionScaleView
	for _, fn := range c.Functions() {
		insts := c.Router().Instances(fn)
		healthy := 0
		for _, in := range insts {
			if !in.CircuitOpen() {
				healthy++
			}
		}
		v := FunctionScaleView{
			Function: fn,
			Replicas: len(insts),
			Healthy:  healthy,
			Parked:   g.ParkedFor(fn),
		}
		if st, ok := a.state[fn]; ok {
			v.Desired = st.desired
			v.EWMA = st.ewma
		}
		out = append(out, v)
	}
	return out
}

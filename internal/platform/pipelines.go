package platform

import (
	"fmt"

	"github.com/spright-go/spright/internal/cost"
	"github.com/spright-go/spright/internal/sim"
)

// Pipeline is one modeled dataplane. Submit pushes a request through it:
// seq is the service-visit sequence (Table 3 style; for a plain n-function
// chain use 1..n), size the payload bytes; done receives the response
// latency.
type Pipeline interface {
	Name() string
	Submit(seq []int, size int, done func(sim.Time))
	// Collect copies CPU usage series into a result after the run.
	Collect(res *Result)
}

// FnCost returns the application cycles for one visit of service svc.
type FnCost func(svc int) float64

// ConstFnCost is a uniform per-visit cost.
func ConstFnCost(cycles float64) FnCost { return func(int) float64 { return cycles } }

// ---------------------------------------------------------------------------
// Knative
// ---------------------------------------------------------------------------

// KnativeParams calibrates the Knative pipeline (§2, Fig. 1): every message
// between functions crosses the front-end/broker, and every function pod
// front-ends a queue-proxy sidecar.
type KnativeParams struct {
	// BrokerCycles is the front-end's user-space mediation work per
	// message (NGINX front-end for fig5; Istio ingress for the boutique).
	BrokerCycles float64
	// QPPathCycles is the queue proxy work on the request's critical
	// path per sidecar crossing; QPBackgroundCycles is additional CPU
	// the sidecar burns off the path (buffering, metrics — it contends
	// for cores but overlaps the request, §3.2.2's masking).
	QPPathCycles       float64
	QPBackgroundCycles float64
	// FnRuntimeCycles is the per-visit server overhead inside the user
	// container (HTTP/gRPC handling in Go).
	FnRuntimeCycles float64
	// AppCycles is the per-visit application work.
	AppCycles FnCost
	// Concurrency is the per-pod concurrency limit; Replicas the pod
	// count per function.
	Concurrency int
	Replicas    int

	// VisitLatency is non-CPU blocking time per visit (see SprightParams).
	VisitLatency sim.Time

	// ZeroScale enables §4.2.2 scale-to-zero semantics.
	ZeroScale *ZeroScaleParams
}

// ZeroScaleParams models Knative's zero-scaling machinery.
type ZeroScaleParams struct {
	Grace           sim.Time // idle time before scale-down begins (30 s)
	ColdStart       sim.Time // pod startup latency when invoked at zero
	TerminatingHold sim.Time // how long a terminating pod keeps burning CPU (§4.2.2: ~80 s)
	StartupCycles   float64  // CPU burned to instantiate a pod
	TerminatingRate float64  // cores consumed while terminating (per pod)
	PrewarmAt       []sim.Time
}

// DefaultKnativeFig5 calibrates the 2-function NGINX chain of Fig. 5.
func DefaultKnativeFig5() KnativeParams {
	return KnativeParams{
		BrokerCycles:       160e3,
		QPPathCycles:       100e3,
		QPBackgroundCycles: 750e3,
		FnRuntimeCycles:    150e3,
		AppCycles:          ConstFnCost(40e3),
		Concurrency:        32,
		Replicas:           1,
	}
}

type fnState struct {
	comp *Component
	// zero-scale state
	replicas   int
	starting   bool
	queue      []func()
	lastActive sim.Time
	prewarmed  bool
}

// Knative is the Fig. 1 pipeline model.
type Knative struct {
	name string
	eng  *sim.Engine
	cfg  Config

	node  *sim.CPUSet // shared cores: QPs + functions
	gwCPU *sim.CPUSet // dedicated front-end cores
	gw    *Component
	qp    *Component // queue-proxy work pool (unbounded, group "qp")
	fns   map[int]*fnState
	p     KnativeParams

	coldStarts int
}

// NewKnative builds the model for the services appearing in sequences.
func NewKnative(name string, eng *sim.Engine, cfg Config, services []int, p KnativeParams) *Knative {
	k := &Knative{
		name:  name,
		eng:   eng,
		cfg:   cfg,
		node:  sim.NewCPUSet(eng, cfg.NodeCores, cfg.SampleInterval),
		gwCPU: sim.NewCPUSet(eng, cfg.GatewayCores, cfg.SampleInterval),
		fns:   make(map[int]*fnState),
		p:     p,
	}
	k.gw = NewComponent(eng, cfg, k.gwCPU, "gw", 0)
	k.qp = NewComponent(eng, cfg, k.node, "qp", 0)
	for _, svc := range services {
		conc := p.Concurrency * maxInt(1, p.Replicas)
		st := &fnState{
			comp:     NewComponent(eng, cfg, k.node, "fn", conc),
			replicas: maxInt(1, p.Replicas),
		}
		if p.ZeroScale != nil {
			st.replicas = 0 // start scaled to zero
		}
		k.fns[svc] = st
	}
	if p.ZeroScale != nil {
		eng.After(sim.Time(1e9), k.scaleCheck)
		for _, at := range p.ZeroScale.PrewarmAt {
			at := at
			eng.At(at, func() { k.prewarmAll() })
		}
	}
	return k
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name implements Pipeline.
func (k *Knative) Name() string { return k.name }

// ColdStarts reports how many cold starts occurred.
func (k *Knative) ColdStarts() int { return k.coldStarts }

// Submit implements Pipeline. The message flow follows Fig. 1: ingress →
// broker → fn_0 → broker → fn_1 → ... → broker → response.
func (k *Knative) Submit(seq []int, size int, done func(sim.Time)) {
	start := k.eng.Now()
	m := k.cfg.Model

	var visit func(i int)
	respond := func() {
		// final broker mediation + external out
		k.gw.Do(k.p.BrokerCycles+m.HopCycles(cost.HopExternalOut, size), func() {
			done(k.eng.Now() - start)
		})
	}
	visit = func(i int) {
		if i >= len(seq) {
			respond()
			return
		}
		svc := seq[i]
		st, ok := k.fns[svc]
		if !ok {
			panic(fmt.Sprintf("platform: unknown service %d", svc))
		}
		// broker mediation toward the function
		k.gw.Do(k.p.BrokerCycles+m.HopCycles(cost.HopCrossPod, size), func() {
			// inbound queue proxy crossing
			k.qpCrossing(size, func() {
				k.invokeFn(st, svc, func() {
					// outbound queue proxy crossing
					k.qpCrossing(size, func() { visit(i + 1) })
				})
			})
		})
	}
	// ingress: external in + cross-pod to the front-end
	k.qp.cpu.Exec("kernel", k.cfg.cyclesToTime(m.HopCycles(cost.HopExternalIn, size)), func() {
		visit(0)
	})
}

// qpCrossing pays the sidecar's path cycles and schedules its background
// CPU burn concurrently.
func (k *Knative) qpCrossing(size int, then func()) {
	m := k.cfg.Model
	if k.p.QPBackgroundCycles > 0 {
		k.qp.Do(k.p.QPBackgroundCycles, func() {})
	}
	k.qp.Do(k.p.QPPathCycles+m.HopCycles(cost.HopIntraPod, size), then)
}

// invokeFn runs one function visit, handling cold starts when zero-scaled.
func (k *Knative) invokeFn(st *fnState, svc int, then func()) {
	work := func() {
		st.comp.Do(k.p.FnRuntimeCycles+k.p.AppCycles(svc), func() {
			st.lastActive = k.eng.Now()
			k.eng.After(k.p.VisitLatency, then)
		})
	}
	if k.p.ZeroScale == nil || st.replicas > 0 {
		work()
		return
	}
	// cold start: queue the invocation; first arrival triggers the start.
	st.queue = append(st.queue, work)
	if !st.starting {
		st.starting = true
		k.coldStarts++
		zs := k.p.ZeroScale
		// pod instantiation burns CPU on the node
		k.qp.Do(zs.StartupCycles, func() {})
		k.eng.After(zs.ColdStart, func() {
			st.starting = false
			st.replicas = 1
			st.lastActive = k.eng.Now()
			q := st.queue
			st.queue = nil
			for _, w := range q {
				w()
			}
		})
	}
}

// prewarmAll starts all functions ahead of a known burst (§4.2.2's
// pre-warm configuration), paying the instantiation CPU.
func (k *Knative) prewarmAll() {
	zs := k.p.ZeroScale
	for _, st := range k.fns {
		if st.replicas == 0 && !st.starting {
			st.starting = true
			k.qp.Do(zs.StartupCycles, func() {})
			stRef := st
			k.eng.After(zs.ColdStart, func() {
				stRef.starting = false
				stRef.replicas = 1
				stRef.lastActive = k.eng.Now()
				q := stRef.queue
				stRef.queue = nil
				for _, w := range q {
					w()
				}
			})
		}
	}
}

// scaleCheck runs every second: idle pods past the grace period enter a
// CPU-holding terminating state before reaching zero.
func (k *Knative) scaleCheck() {
	zs := k.p.ZeroScale
	now := k.eng.Now()
	for _, st := range k.fns {
		if st.replicas > 0 && st.comp.Inflight() == 0 && now-st.lastActive > zs.Grace {
			st.replicas = 0
			// Terminating pods keep consuming CPU for the hold period
			// (the 80 s "terminating without releasing CPU" of §4.2.2),
			// trickled in one-second slices so the usage series shows
			// the elevated plateau rather than one dense block.
			perSlice := zs.TerminatingRate * k.cfg.Model.HzPerCore
			for s := sim.Time(0); s < zs.TerminatingHold; s += sim.Time(1e9) {
				s := s
				if perSlice > 0 {
					k.eng.After(s, func() { k.qp.Do(perSlice, func() {}) })
				}
			}
		}
	}
	k.eng.After(sim.Time(1e9), k.scaleCheck)
}

// Collect implements Pipeline.
func (k *Knative) Collect(res *Result) {
	res.CollectGroupCPU(k.gwCPU, map[string]string{"gw": "GW"})
	res.CollectGroupCPU(k.node, map[string]string{"qp": "QPs", "fn": "SFs", "kernel": "kernel"})
}

package platform

import (
	"github.com/spright-go/spright/internal/cost"
	"github.com/spright-go/spright/internal/sim"
)

// ---------------------------------------------------------------------------
// gRPC direct-call mode ("server-full" baseline of §4.2.1)
// ---------------------------------------------------------------------------

// GRPCParams calibrates the gRPC pipeline: no broker, no sidecars —
// functions call each other directly over the kernel stack with gRPC
// serialization on every hop.
type GRPCParams struct {
	// FnRuntimeCycles is the per-visit gRPC server overhead (framing,
	// protobuf handling, Go runtime) in the receiving function.
	FnRuntimeCycles float64
	AppCycles       FnCost
	Concurrency     int
	Replicas        int
	// VisitLatency is non-CPU blocking time per visit (see SprightParams).
	VisitLatency sim.Time
}

// GRPC is the direct-call pipeline model.
type GRPC struct {
	name string
	eng  *sim.Engine
	cfg  Config
	node *sim.CPUSet
	fns  map[int]*Component
	p    GRPCParams
}

// NewGRPC builds the model.
func NewGRPC(name string, eng *sim.Engine, cfg Config, services []int, p GRPCParams) *GRPC {
	g := &GRPC{
		name: name,
		eng:  eng,
		cfg:  cfg,
		node: sim.NewCPUSet(eng, cfg.NodeCores, cfg.SampleInterval),
		fns:  make(map[int]*Component),
	}
	g.p = p
	for _, svc := range services {
		conc := p.Concurrency * maxInt(1, p.Replicas)
		g.fns[svc] = NewComponent(eng, cfg, g.node, "fn", conc)
	}
	return g
}

// Name implements Pipeline.
func (g *GRPC) Name() string { return g.name }

// Submit implements Pipeline: client → fn_0 → fn_1 → ... → client, each
// hop a cross-pod kernel traversal plus per-visit gRPC work.
func (g *GRPC) Submit(seq []int, size int, done func(sim.Time)) {
	start := g.eng.Now()
	m := g.cfg.Model
	var visit func(i int)
	visit = func(i int) {
		if i >= len(seq) {
			g.node.Exec("kernel", g.cfg.cyclesToTime(m.HopCycles(cost.HopExternalOut, size)), func() {
				done(g.eng.Now() - start)
			})
			return
		}
		svc := seq[i]
		hop := m.HopCycles(cost.HopCrossPod, size)
		if i == 0 {
			hop = m.HopCycles(cost.HopExternalIn, size)
		}
		g.node.Exec("kernel", g.cfg.cyclesToTime(hop), func() {
			g.fns[svc].Do(g.p.FnRuntimeCycles+g.p.AppCycles(svc), func() {
				g.eng.After(g.p.VisitLatency, func() { visit(i + 1) })
			})
		})
	}
	visit(0)
}

// Collect implements Pipeline.
func (g *GRPC) Collect(res *Result) {
	res.CollectGroupCPU(g.node, map[string]string{"fn": "SFs", "kernel": "kernel"})
}

// ---------------------------------------------------------------------------
// SPRIGHT (S- and D- variants)
// ---------------------------------------------------------------------------

// SprightVariant selects the descriptor transport.
type SprightVariant int

// Variants of §3.2.2.
const (
	SVariant SprightVariant = iota // event-driven SPROXY (sockmap)
	DVariant                       // DPDK polling rings
)

func (v SprightVariant) String() string {
	if v == DVariant {
		return "D-SPRIGHT"
	}
	return "S-SPRIGHT"
}

// SprightParams calibrates the SPRIGHT pipeline.
type SprightParams struct {
	Variant SprightVariant
	// GatewayCycles is the SPRIGHT gateway's user work per request:
	// protocol consolidation + the single payload copy into shared
	// memory (size-dependent part computed from the cost model).
	GatewayCycles float64
	// AppCycles is the per-visit application work (C functions — no
	// per-hop server stack, that is the whole point).
	AppCycles   FnCost
	Concurrency int
	Replicas    int
	// PollerCoresPerFn dedicates cores per function in D mode (default 1).
	PollerCoresPerFn int
	// XDPAccel enables the §3.5 eBPF XDP/TC forwarding path for traffic
	// outside the chain: the ingress→gateway traversals skip the kernel
	// stack and iptables.
	XDPAccel bool
	// VisitLatency is non-CPU latency per function visit (blocking I/O
	// such as the boutique's in-memory DB lookups): it stretches response
	// time without consuming cores.
	VisitLatency sim.Time
}

// Spright is the SPRIGHT pipeline model.
type Spright struct {
	name string
	eng  *sim.Engine
	cfg  Config
	p    SprightParams

	gwCPU *sim.CPUSet
	gw    *Component
	node  *sim.CPUSet        // S mode: shared cores for functions
	fns   map[int]*Component // per service
	dCPUs map[int]*sim.CPUSet
}

// NewSpright builds the model.
func NewSpright(name string, eng *sim.Engine, cfg Config, services []int, p SprightParams) *Spright {
	s := &Spright{
		name:  name,
		eng:   eng,
		cfg:   cfg,
		p:     p,
		gwCPU: sim.NewCPUSet(eng, cfg.GatewayCores, cfg.SampleInterval),
		fns:   make(map[int]*Component),
		dCPUs: make(map[int]*sim.CPUSet),
	}
	s.gw = NewComponent(eng, cfg, s.gwCPU, "gw", 0)
	if p.Variant == DVariant {
		s.gw.Polling = true
		s.gw.PollingCores = cfg.GatewayCores
		per := p.PollerCoresPerFn
		if per <= 0 {
			per = 1
		}
		for _, svc := range services {
			cpu := sim.NewCPUSet(eng, per, cfg.SampleInterval)
			s.dCPUs[svc] = cpu
			c := NewComponent(eng, cfg, cpu, "fn", 0)
			c.Polling = true
			c.PollingCores = per
			s.fns[svc] = c
		}
	} else {
		s.node = sim.NewCPUSet(eng, cfg.NodeCores, cfg.SampleInterval)
		conc := p.Concurrency * maxInt(1, p.Replicas)
		for _, svc := range services {
			s.fns[svc] = NewComponent(eng, cfg, s.node, "fn", conc)
		}
	}
	return s
}

// Name implements Pipeline.
func (s *Spright) Name() string { return s.p.Variant.String() + ":" + s.name }

// descriptorHop returns the per-hop delivery cost under the variant,
// split into CPU-busy cycles and pure scheduling latency: a sockmap
// redirect's two context switches cost wall-clock time, but roughly half
// of it is the scheduler waking the destination rather than burned cycles
// (which is why S-SPRIGHT adds latency over D-SPRIGHT while still using
// *less* CPU, §3.2.2).
func (s *Spright) descriptorHop(size int) (cpu float64, latency sim.Time) {
	if s.p.Variant == DVariant {
		return s.cfg.Model.HopCycles(cost.HopRingDelivery, size), 0
	}
	total := s.cfg.Model.HopCycles(cost.HopSockmapRedirect, size)
	cpu = 0.4 * total
	latency = s.cfg.cyclesToTime(total - cpu)
	return cpu, latency
}

// Submit implements Pipeline: ingress → SPRIGHT gateway (protocol
// consolidation, one payload copy) → zero-copy DFR through the chain →
// gateway constructs the response.
func (s *Spright) Submit(seq []int, size int, done func(sim.Time)) {
	start := s.eng.Now()
	m := s.cfg.Model

	extIn := m.HopCycles(cost.HopExternalIn, size)
	toGw := m.HopCycles(cost.HopCrossPod, size) // cluster ingress → SPRIGHT gateway
	if s.p.XDPAccel {
		// §3.5: raw-frame redirect skips the stack and iptables on both
		// external traversals; only the final copy+wake to userspace
		// remains.
		deliver := cost.Audit{Copies: 1, CtxSwitches: 1, Interrupts: 1, BytesCopied: size}
		extIn = m.HopCycles(cost.HopXDPRedirect, size) + m.Cycles(deliver)
		toGw = extIn
	}
	ingress := extIn + toGw +
		s.p.GatewayCycles +
		float64(size)*m.CopyPerByte // the single copy into shared memory

	var visit func(i int)
	respond := func() {
		out := m.SerdeBaseCycles + float64(size)*m.SerdePerByte +
			m.HopCycles(cost.HopExternalOut, size)
		s.gw.Do(out, func() { done(s.eng.Now() - start) })
	}
	hopCPU, hopLat := s.descriptorHop(size)
	visit = func(i int) {
		if i >= len(seq) {
			respond()
			return
		}
		svc := seq[i]
		// The descriptor send is paid by the *sender*: the function
		// stage is application work plus its own onward send — DFR in
		// S mode costs context switches per hop; in D mode a ring
		// enqueue. The non-CPU share of the send is pure latency.
		s.fns[svc].Do(s.p.AppCycles(svc)+hopCPU, func() {
			s.eng.After(hopLat+s.p.VisitLatency, func() { visit(i + 1) })
		})
	}
	// The gateway pays the first descriptor send (① in Fig. 4): this is
	// where S and D differ on the gateway's two cores — sockmap send
	// costs context switches; ring enqueue costs almost nothing.
	s.gw.Do(ingress+hopCPU, func() {
		s.eng.After(hopLat, func() { visit(0) })
	})
}

// Collect implements Pipeline. Polling components report their full core
// count (the DPDK poll loop burns the core regardless of load).
func (s *Spright) Collect(res *Result) {
	if s.p.Variant == DVariant {
		// Pollers burn their cores regardless of load: report flat
		// usage, summing across the per-function poller sets.
		for _, smp := range s.gwCPU.Samples() {
			res.ObserveCPU("GW", smp.At, float64(s.cfg.GatewayCores))
		}
		totalFnCores := 0
		var times []sim.Sample
		for _, cpu := range s.dCPUs {
			totalFnCores += cpu.Cores()
			if len(cpu.Samples()) > len(times) {
				times = cpu.Samples()
			}
		}
		for _, smp := range times {
			res.ObserveCPU("SFs", smp.At, float64(totalFnCores))
		}
		return
	}
	res.CollectGroupCPU(s.gwCPU, map[string]string{"gw": "GW"})
	res.CollectGroupCPU(s.node, map[string]string{"fn": "SFs"})
}

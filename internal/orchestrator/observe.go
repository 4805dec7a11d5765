package orchestrator

// Collector glue between the dataplane and the obs registry: each deployed
// chain registers one collector closure that snapshots the live counters at
// scrape time — gateway admission/completion/latency, EPROXY L3 and failure
// maps, SPROXY per-instance invocation counts, per-socket delivery
// counters, shared-memory pool occupancy, ring queue flow, and the sampled
// hop tracer — plus a health check and a span source. Registration is keyed
// by chain name, so teardown drops a chain's series atomically.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/obs"
)

// transportLabel maps a chain mode onto the stable `transport` label value.
func transportLabel(m core.Mode) string {
	if m == core.ModePolling {
		return "ring"
	}
	return "sockmap"
}

// observeDeployment registers the deployment's collector, health check and
// span source under its chain name, wires the chain's dataplane event
// hooks into the node's flight recorder, and installs the sliding-window
// SLO monitor behind /slo. Returns the matching unregister.
func observeDeployment(o *obs.Observability, d *Deployment) func() {
	if o == nil {
		return func() {}
	}
	name := d.Chain.Name()
	key := "chain:" + name
	o.Registry().Register(key, func() []obs.Family { return collectChain(d) })
	o.RegisterHealthCheck(key, func() error { return checkFlightDeployment(o, d) })
	o.RegisterSpanSource(name, func(limit int) []obs.TraceData {
		return completedTraceData(d.Chain, limit)
	})

	// Flight recorder: the chain gets its own ring, and the dataplane's
	// hook-emitted events (sheds, breaker flips, cold-start resumes) are
	// adapted into it with the chain name attached. The core kinds are the
	// same strings as the obs kinds, so the sink forwards them verbatim.
	fr := o.Flight()
	fr.RegisterChain(name)
	d.Chain.SetFlightSink(func(kind, subject, reason string, value int64) {
		fr.Emit(name, kind, subject, reason, value)
	})
	if st := d.Chain.ObjectStore(); st != nil {
		st.SetEventHook(func(event string, bytes int64) {
			kind := obs.EventObjSpill
			if event == "reload" {
				kind = obs.EventObjReload
			}
			fr.Emit(name, kind, "", "", bytes)
		})
	}

	// SLO monitor: cumulative latency/stage/count signals snapshotted on
	// the gateway's metrics-agent tick, differenced into window percentiles
	// for /slo. The watchdog (EnableSLOWatchdog) evaluates on the same tick.
	mon := obs.NewSLOMonitor(sloSource(d), 0, d.Chain.ScrapeInterval())
	o.RegisterSLOMonitor(name, mon)
	d.sloMu.Lock()
	d.sloMon = mon
	d.sloMu.Unlock()
	d.Gateway.SetAgentTick(func() {
		now := time.Now()
		// Read the live monitor on every tick: EnableSLOWatchdog swaps in a
		// policy-window replacement after deployment, and a captured local
		// would leave that replacement un-ticked (its window never slides).
		d.sloMu.Lock()
		mon := d.sloMon
		wd := d.watchdog
		d.sloMu.Unlock()
		if mon != nil {
			mon.Tick(now)
		}
		if wd != nil {
			wd.Evaluate(now)
		}
	})

	return func() {
		d.Gateway.SetAgentTick(nil)
		d.Chain.SetFlightSink(nil)
		if st := d.Chain.ObjectStore(); st != nil {
			st.SetEventHook(nil)
		}
		fr.UnregisterChain(name)
		o.UnregisterSLOMonitor(name)
		d.sloMu.Lock()
		d.sloMon = nil
		d.sloMu.Unlock()
		o.Registry().Unregister(key)
		o.UnregisterHealthCheck(key)
		o.UnregisterSpanSource(name)
	}
}

// sloSource adapts one deployment's cumulative counters into the monitor's
// source funcs. Stage histograms come from the tracer when one is attached.
func sloSource(d *Deployment) obs.SLOSource {
	return obs.SLOSource{
		Latency: d.Gateway.Latency,
		Stages: func() map[string]*metrics.Histogram {
			if tr := d.Chain.Tracer(); tr != nil {
				return tr.StageDurations()
			}
			return nil
		},
		Counts: func() (uint64, uint64) {
			gs := d.Gateway.Stats()
			return gs.Completed, gs.Failed
		},
	}
}

// checkFlightDeployment runs the health check and journals a failed leak
// heuristic on the flight recorder, so the suspicion is addressable later
// even after /healthz recovers.
func checkFlightDeployment(o *obs.Observability, d *Deployment) error {
	err := checkDeployment(d)
	if err != nil && strings.Contains(err.Error(), "suspected leak") {
		ps := d.Chain.Pool().Stats()
		o.Flight().Emit(d.Chain.Name(), obs.EventLeakCheck, "", err.Error(), int64(ps.InUse))
	}
	return err
}

// collectChain snapshots every subsystem of one chain into metric families.
// Families share names across chains; the registry merges them, so the
// exposition carries one spright_gateway_admitted_total family with one
// sample per chain.
func collectChain(d *Deployment) []obs.Family {
	c, g := d.Chain, d.Gateway
	chain := obs.L("chain", c.Name())
	gs := g.Stats()

	fams := []obs.Family{
		obs.GaugeFamily("spright_transport_info",
			"Chain transport (value is always 1; transport in the label).",
			obs.L("chain", c.Name(), "transport", transportLabel(c.Mode())), 1),
		obs.CounterFamily("spright_gateway_admitted_total",
			"Requests admitted into the chain's shared-memory pool.", chain, float64(gs.Admitted)),
		obs.CounterFamily("spright_gateway_rejected_total",
			"Requests rejected at admission (pool backpressure).", chain, float64(gs.Rejected)),
		obs.CounterFamily("spright_gateway_completed_total",
			"Requests completed with a response descriptor.", chain, float64(gs.Completed)),
		obs.CounterFamily("spright_gateway_failed_total",
			"Requests terminated by a dataplane error.", chain, float64(gs.Failed)),
		obs.GaugeFamily("spright_gateway_pending",
			"Requests currently awaiting a response.", chain, float64(gs.Pending)),
		obs.GaugeFamily("spright_scrape_rate_pps",
			"Packet rate measured by the metrics agent's last EPROXY scrape.",
			chain, gs.ScrapeRate),
		obs.SummaryFamily("spright_gateway_latency_seconds",
			"End-to-end invocation latency through the chain.", chain, g.Latency()),
	}

	// Admission control: shed counters by reason, the park queue, and the
	// cold-start latency of parked requests that resumed.
	shed := obs.Family{
		Name: "spright_gateway_shed_total",
		Help: "Requests deliberately refused by admission control, by reason.",
		Type: obs.Counter,
	}
	for _, kv := range []struct {
		reason string
		v      uint64
	}{
		{core.ShedOverload, gs.ShedOverload},
		{core.ShedParkFull, gs.ShedParkFull},
		{core.ShedParkTimeout, gs.ShedParkTimeout},
		{core.ShedPoolExhausted, gs.ShedPoolExhausted},
		{core.ShedPayloadTooLarge, gs.ShedPayloadTooLarge},
	} {
		shed.Samples = append(shed.Samples, obs.Sample{
			Labels: obs.L("chain", c.Name(), "reason", kv.reason),
			Value:  float64(kv.v),
		})
	}
	fams = append(fams, shed,
		obs.GaugeFamily("spright_gateway_parked",
			"Requests currently parked awaiting scale-from-zero capacity.",
			chain, float64(gs.Parked)),
		obs.CounterFamily("spright_gateway_parked_total",
			"Requests that parked at the gateway.", chain, float64(gs.ParkedTotal)),
		obs.CounterFamily("spright_gateway_resumed_total",
			"Parked requests dispatched after capacity resumed.", chain, float64(gs.Resumed)),
		obs.SummaryFamily("spright_coldstart_seconds",
			"Park-to-dispatch latency of requests that arrived at zero replicas.",
			chain, g.ColdStartLatency()),
	)

	if ep := g.EProxy(); ep != nil {
		pkts, bytes := ep.L3Stats()
		fams = append(fams,
			obs.CounterFamily("spright_eproxy_l3_packets_total",
				"Packets counted by the EPROXY XDP monitor.", chain, float64(pkts)),
			obs.CounterFamily("spright_eproxy_l3_bytes_total",
				"Bytes counted by the EPROXY XDP monitor.", chain, float64(bytes)),
		)
	}
	failures := obs.Family{
		Name: "spright_failures_total",
		Help: "Failure-recovery events by kind.",
		Type: obs.Counter,
	}
	for _, kv := range []struct {
		kind string
		v    uint64
	}{
		{"crash", gs.Crashes},
		{"retry", gs.Retries},
		{"circuit_open", gs.CircuitOpens},
		{"reclaimed", gs.Reclaimed},
		{"deadline", gs.DeadlinesExceeded},
		{"injected", gs.FaultsInjected},
		{"retries_exhausted", gs.RetriesExhausted},
		{"terminal", gs.TerminalFailures},
	} {
		failures.Samples = append(failures.Samples, obs.Sample{
			Labels: obs.L("chain", c.Name(), "kind", kv.kind),
			Value:  float64(kv.v),
		})
	}
	fams = append(fams, failures)

	// Shared-memory pool.
	ps := c.Pool().Stats()
	fams = append(fams,
		obs.GaugeFamily("spright_shm_inuse_buffers",
			"Pool buffers currently referenced.", chain, float64(ps.InUse)),
		obs.GaugeFamily("spright_shm_free_buffers",
			"Pool buffers currently free.", chain, float64(ps.Capacity-ps.InUse)),
		obs.GaugeFamily("spright_shm_capacity_buffers",
			"Pool capacity.", chain, float64(ps.Capacity)),
		obs.GaugeFamily("spright_shm_highwater_buffers",
			"Peak concurrent pool occupancy.", chain, float64(ps.HighWater)),
		obs.CounterFamily("spright_shm_allocs_total",
			"Pool buffer allocations.", chain, float64(ps.Allocs)),
		obs.CounterFamily("spright_shm_frees_total",
			"Pool buffer releases.", chain, float64(ps.Frees)),
		obs.CounterFamily("spright_shm_alloc_failures_total",
			"Allocations refused by pool exhaustion (backpressure).", chain, float64(ps.Failures)),
		obs.CounterFamily("spright_shm_steals_total",
			"Allocations served from a non-home freelist shard.", chain, float64(ps.Steals)),
	)

	// Ephemeral object store: live objects split by tier, byte footprints,
	// and activity/spill counters (absent when the chain disabled it).
	if st := c.ObjectStore(); st != nil {
		ss := st.Stats()
		fams = append(fams,
			obs.GaugeFamily("spright_objstore_objects",
				"Live objects in the chain's ephemeral object store.", chain, float64(ss.Objects)),
			obs.GaugeFamily("spright_objstore_resident_objects",
				"Objects resident in shared-memory slabs.", chain, float64(ss.Resident)),
			obs.GaugeFamily("spright_objstore_spilled_objects",
				"Objects parked in the file-backed cold tier.", chain, float64(ss.Spilled)),
			obs.GaugeFamily("spright_objstore_resident_bytes",
				"Shared-memory footprint (slab capacity) of resident objects.",
				chain, float64(ss.ResidentBytes)),
			obs.GaugeFamily("spright_objstore_spilled_bytes",
				"Payload bytes parked in spill files.", chain, float64(ss.SpilledBytes)),
			obs.CounterFamily("spright_objstore_puts_total",
				"Objects committed to the store.", chain, float64(ss.Puts)),
			obs.CounterFamily("spright_objstore_deletes_total",
				"Objects whose last reference was released.", chain, float64(ss.Deletes)),
			obs.CounterFamily("spright_objstore_opens_total",
				"Zero-copy reader opens.", chain, float64(ss.Opens)),
			obs.CounterFamily("spright_objstore_refs_total",
				"Explicit object reference grabs.", chain, float64(ss.Refs)),
			obs.CounterFamily("spright_objstore_spills_total",
				"Objects spilled to the file tier (LRU budget or pool pressure).",
				chain, float64(ss.Spills)),
			obs.CounterFamily("spright_objstore_reloads_total",
				"Spilled objects transparently reloaded on access.", chain, float64(ss.Reloads)),
			obs.CounterFamily("spright_objstore_spill_bytes_total",
				"Payload bytes written to the file tier.", chain, float64(ss.SpillBytes)),
			obs.CounterFamily("spright_objstore_reload_bytes_total",
				"Payload bytes read back from the file tier.", chain, float64(ss.ReloadBytes)),
			obs.CounterFamily("spright_objstore_spill_errors_total",
				"Spill attempts that failed on file-tier I/O.", chain, float64(ss.SpillErrors)),
		)
	}

	// Per-socket delivery counters: the gateway's response socket plus one
	// sample per function instance; SPROXY invocation counts ride along in
	// event mode.
	delivered := obs.Family{Name: "spright_socket_delivered_total",
		Help: "Descriptors handed to instance sockets: queued, or run by the sender in a claimed slot.", Type: obs.Counter}
	dropped := obs.Family{Name: "spright_socket_dropped_total",
		Help: "Descriptors the transport gave up delivering.", Type: obs.Counter}
	queuedHops := obs.Family{Name: "spright_socket_queued_hops_total",
		Help: "Function-to-function hops queued because the sender could not claim a slot (instance busy, backlogged or stopping).",
		Type: obs.Counter}
	gd, gdr := g.SocketStats()
	gwLabels := obs.L("chain", c.Name(), "function", "gateway", "instance", "0")
	delivered.Samples = append(delivered.Samples, obs.Sample{Labels: gwLabels, Value: float64(gd)})
	dropped.Samples = append(dropped.Samples, obs.Sample{Labels: gwLabels, Value: float64(gdr)})

	sproxyReqs := obs.Family{Name: "spright_sproxy_requests_total",
		Help: "Descriptors redirected to each instance by the SPROXY SK_MSG program.",
		Type: obs.Counter}
	sp := c.SProxy()
	for _, in := range c.Instances() {
		ls := obs.L("chain", c.Name(), "function", in.Function(),
			"instance", strconv.FormatUint(uint64(in.ID()), 10))
		de, dr := in.SocketStats()
		delivered.Samples = append(delivered.Samples, obs.Sample{Labels: ls, Value: float64(de)})
		dropped.Samples = append(dropped.Samples, obs.Sample{Labels: ls, Value: float64(dr)})
		queuedHops.Samples = append(queuedHops.Samples, obs.Sample{Labels: ls, Value: float64(in.QueuedHops())})
		if sp != nil {
			sproxyReqs.Samples = append(sproxyReqs.Samples, obs.Sample{
				Labels: ls, Value: float64(sp.RequestCount(in.ID())),
			})
		}
	}
	fams = append(fams, delivered, dropped, queuedHops)
	if sp != nil {
		fams = append(fams, sproxyReqs)
	}

	// Ring queues (polling mode only).
	if rs := c.RingStats(); len(rs) > 0 {
		occupancy := obs.Family{Name: "spright_ring_occupancy",
			Help: "Descriptors queued in each instance's rte_ring.", Type: obs.Gauge}
		enq := obs.Family{Name: "spright_ring_enqueues_total",
			Help: "Descriptors accepted by instance rings.", Type: obs.Counter}
		deq := obs.Family{Name: "spright_ring_dequeues_total",
			Help: "Descriptors drained from instance rings.", Type: obs.Counter}
		fulls := obs.Family{Name: "spright_ring_full_total",
			Help: "Enqueue attempts refused by a full ring.", Type: obs.Counter}
		for _, r := range rs {
			ls := obs.L("chain", c.Name(),
				"instance", strconv.FormatUint(uint64(r.Instance), 10))
			occupancy.Samples = append(occupancy.Samples, obs.Sample{Labels: ls, Value: float64(r.Stats.Len)})
			enq.Samples = append(enq.Samples, obs.Sample{Labels: ls, Value: float64(r.Stats.Enqueues)})
			deq.Samples = append(deq.Samples, obs.Sample{Labels: ls, Value: float64(r.Stats.Dequeues)})
			fulls.Samples = append(fulls.Samples, obs.Sample{Labels: ls, Value: float64(r.Stats.Fulls)})
		}
		fams = append(fams, occupancy, enq, deq, fulls)
	}

	// Ring queue-wait accounting (sampled enqueue→dequeue residency).
	if rs := c.RingStats(); len(rs) > 0 {
		waitSecs := obs.Family{Name: "spright_ring_wait_seconds_total",
			Help: "Accumulated sampled ring residency (enqueue to dequeue).", Type: obs.Counter}
		waits := obs.Family{Name: "spright_ring_waits_total",
			Help: "Sampled descriptors whose ring residency was measured.", Type: obs.Counter}
		for _, r := range rs {
			ls := obs.L("chain", c.Name(),
				"instance", strconv.FormatUint(uint64(r.Instance), 10))
			waitSecs.Samples = append(waitSecs.Samples, obs.Sample{
				Labels: ls, Value: float64(r.Stats.WaitNanos) / 1e9})
			waits.Samples = append(waits.Samples, obs.Sample{
				Labels: ls, Value: float64(r.Stats.Waits)})
		}
		fams = append(fams, waitSecs, waits)
	}

	// Distributed tracer: sampling counters, per-function handler and
	// per-stage durations, and latency exemplars linking the summary to
	// concrete retained trace IDs.
	if tr := c.Tracer(); tr != nil {
		fams = append(fams,
			obs.CounterFamily("spright_trace_sampled_total",
				"Requests sampled into the tracer.", chain, float64(tr.TotalSampled())),
			obs.CounterFamily("spright_trace_tail_retained_total",
				"Traces retained by tail sampling (errors and slow requests).",
				chain, float64(tr.TotalTailRetained())),
			obs.GaugeFamily("spright_trace_sample_period",
				"Tracer sampling period (1 = every request).", chain, float64(tr.SampleEvery())),
		)
		hop := obs.Family{Name: "spright_trace_hop_duration_seconds",
			Help: "Sampled per-function handler durations.", Type: obs.Summary}
		for fn, h := range tr.HopDurations() {
			sub := obs.SummaryFamily("spright_trace_hop_duration_seconds", "",
				obs.L("chain", c.Name(), "function", fn), h)
			hop.Samples = append(hop.Samples, sub.Samples...)
		}
		fams = append(fams, hop)
		stage := obs.Family{Name: "spright_trace_stage_duration_seconds",
			Help: "Sampled per-stage durations (queue wait, redirect, handler, drain).",
			Type: obs.Summary}
		for st, h := range tr.StageDurations() {
			sub := obs.SummaryFamily("spright_trace_stage_duration_seconds", "",
				obs.L("chain", c.Name(), "stage", st), h)
			stage.Samples = append(stage.Samples, sub.Samples...)
		}
		fams = append(fams, stage)
		if exs := tr.Exemplars(4); len(exs) > 0 {
			ex := obs.Family{Name: "spright_gateway_latency_exemplar",
				Help: "Slowest retained traces: end-to-end seconds keyed by trace ID.",
				Type: obs.Gauge}
			for _, e := range exs {
				ex.Samples = append(ex.Samples, obs.Sample{
					Labels: obs.L("chain", c.Name(), "trace_id", e.TraceID),
					Value:  e.Seconds,
				})
			}
			fams = append(fams, ex)
		}
	}
	return fams
}

// collectAutoscaler snapshots the autoscaling control plane of one chain:
// per-function replica/desired/EWMA state, decision counters by reason, and
// prewarm pool activity.
func collectAutoscaler(d *Deployment, a *Autoscaler) []obs.Family {
	name := d.Chain.Name()
	chain := obs.L("chain", name)

	replicas := obs.Family{Name: "spright_autoscaler_replicas",
		Help: "Routable instances per function.", Type: obs.Gauge}
	healthy := obs.Family{Name: "spright_autoscaler_healthy_replicas",
		Help: "Routable instances whose circuit breaker is closed.", Type: obs.Gauge}
	desired := obs.Family{Name: "spright_autoscaler_desired_replicas",
		Help: "Controller-computed desired instances per function.", Type: obs.Gauge}
	ewma := obs.Family{Name: "spright_autoscaler_demand_ewma",
		Help: "Smoothed demand signal (inflight + backlog + parked).", Type: obs.Gauge}
	parked := obs.Family{Name: "spright_autoscaler_parked",
		Help: "Requests parked per function awaiting resume.", Type: obs.Gauge}
	for _, v := range a.Views() {
		ls := obs.L("chain", name, "function", v.Function)
		replicas.Samples = append(replicas.Samples, obs.Sample{Labels: ls, Value: float64(v.Replicas)})
		healthy.Samples = append(healthy.Samples, obs.Sample{Labels: ls, Value: float64(v.Healthy)})
		desired.Samples = append(desired.Samples, obs.Sample{Labels: ls, Value: float64(v.Desired)})
		ewma.Samples = append(ewma.Samples, obs.Sample{Labels: ls, Value: v.EWMA})
		parked.Samples = append(parked.Samples, obs.Sample{Labels: ls, Value: float64(v.Parked)})
	}

	decisions := obs.Family{Name: "spright_autoscaler_decisions_total",
		Help: "Scaling actions taken, by reason.", Type: obs.Counter}
	for reason, n := range a.DecisionCounts() {
		decisions.Samples = append(decisions.Samples, obs.Sample{
			Labels: obs.L("chain", name, "reason", reason),
			Value:  float64(n),
		})
	}

	fams := []obs.Family{replicas, healthy, desired, ewma, parked, decisions,
		obs.GaugeFamily("spright_autoscaler_admit_rate_rps",
			"Smoothed gateway admission rate between evaluations.", chain, a.AdmitRate()),
	}

	if pw := a.PrewarmPool(); pw != nil {
		ps := pw.Stats()
		fams = append(fams,
			obs.GaugeFamily("spright_prewarm_pool_size",
				"Warm instances held ready for activation.", chain, float64(ps.Size)),
			obs.CounterFamily("spright_prewarm_hits_total",
				"Scale-ups served by activating a prewarmed instance.", chain, float64(ps.Hits)),
			obs.CounterFamily("spright_prewarm_misses_total",
				"Scale-ups that fell back to a cold instance start.", chain, float64(ps.Misses)),
		)
	}

	return fams
}

// checkDeployment is the per-chain health check behind /healthz: every
// instance must probe healthy (no open circuit breakers), and the pool must
// not look leaked — exhausted while the gateway has nothing pending means
// buffers are held with nobody waiting for them.
func checkDeployment(d *Deployment) error {
	for _, pr := range d.Node.Kubelet.Probe(d) {
		if pr.CircuitOpen {
			return fmt.Errorf("instance %s/%d circuit breaker open", pr.Function, pr.Instance)
		}
	}
	ps := d.Chain.Pool().Stats()
	if ps.InUse >= ps.Capacity && d.Gateway.Stats().Pending == 0 {
		return fmt.Errorf("pool exhausted (%d/%d buffers) with no pending requests: suspected leak",
			ps.InUse, ps.Capacity)
	}
	return nil
}

// completedTraceData converts the chain's retained traces (head-sampled and
// tail-retained, deduplicated) into exporter-neutral TraceData for /traces,
// diagnostic bundles and file export, keeping the most recent `limit`
// (<= 0: all).
func completedTraceData(c *core.Chain, limit int) []obs.TraceData {
	tr := c.Tracer()
	if tr == nil {
		return nil
	}
	ts := tr.Retained()
	if limit > 0 && len(ts) > limit {
		ts = ts[len(ts)-limit:]
	}
	out := make([]obs.TraceData, 0, len(ts))
	for _, t := range ts {
		td := obs.TraceData{
			TraceIDHi: t.ID.Hi, TraceIDLo: t.ID.Lo, Seq: t.Seq,
			Chain: c.Name(), Caller: t.Caller, Error: t.Err, Tail: t.Tail,
			Spans: make([]obs.SpanData, 0, len(t.Spans)),
		}
		for _, s := range t.Spans {
			td.Spans = append(td.Spans, obs.SpanData{
				SpanID: s.ID, ParentID: s.Parent, Name: s.Stage,
				Function: s.Function, Instance: s.Instance,
				StartUnixNano: s.Start.UnixNano(), EndUnixNano: s.End.UnixNano(),
				Error: s.Err,
			})
		}
		out = append(out, td)
	}
	return out
}

// collectNode snapshots one worker node's eBPF kernel engine counters: how
// many program executions took a shape-specialized fast path (the engine
// label keeps its historical value "jit") versus the interpreter, and how
// many loaded programs have a fast path. A healthy dataplane shows
// runs_total{engine="interp"} near zero — interpreter runs in steady state
// mean a program fell back (matchFast says why) or the fast
// paths were switched off.
func collectNode(n *WorkerNode) []obs.Family {
	es := n.Kernel.EngineStats()
	node := n.Name
	return []obs.Family{
		{
			Name: "spright_ebpf_runs_total",
			Help: "eBPF program executions by engine (jit: shape-specialized SPROXY/EPROXY fast path; interp: bytecode interpreter).",
			Type: obs.Counter,
			Samples: []obs.Sample{
				{Labels: obs.L("engine", "jit", "node", node), Value: float64(es.JITRuns)},
				{Labels: obs.L("engine", "interp", "node", node), Value: float64(es.InterpRuns)},
			},
		},
		obs.GaugeFamily("spright_ebpf_loaded_programs",
			"Programs currently loaded into the node's eBPF kernel.",
			obs.L("node", node), float64(es.Loaded)),
		obs.GaugeFamily("spright_ebpf_compiled_programs",
			"Loaded programs with a shape-specialized fast path (the rest run on the interpreter).",
			obs.L("node", node), float64(es.Compiled)),
	}
}

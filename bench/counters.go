package main

import "runtime"

// counters is one reading of the public Stats() surfaces a deployed
// workload exposes, plus the Go runtime's allocation and GC totals.
type counters struct {
	jitRuns, interpRuns uint64

	ringFulls, ringDequeues, ringWaitNs, ringWaits uint64

	poolHighWater int
	poolSteals    uint64

	objSpills uint64

	frames, writes, wireBytes, drops, reconnects uint64

	shed, retries uint64

	mallocs, allocBytes, gcPauseNs uint64
	gcCycles                       uint32
}

func readCounters(tg *target) counters {
	var c counters
	for _, n := range tg.cluster.Nodes() {
		es := n.Kernel.EngineStats()
		c.jitRuns += es.JITRuns
		c.interpRuns += es.InterpRuns
		if n.Mesh == nil {
			continue
		}
		for _, p := range n.Mesh.Stats().Sent {
			c.frames += p.FramesSent
			c.writes += p.Writes
			c.wireBytes += p.BytesSent
			c.reconnects += p.Reconnects
			for _, d := range p.Drops {
				c.drops += d
			}
		}
	}
	for _, d := range tg.deps {
		for _, r := range d.Chain.RingStats() {
			c.ringFulls += r.Stats.Fulls
			c.ringDequeues += r.Stats.Dequeues
			c.ringWaitNs += r.Stats.WaitNanos
			c.ringWaits += r.Stats.Waits
		}
		ps := d.Chain.Pool().Stats()
		c.poolHighWater = max(c.poolHighWater, ps.HighWater)
		c.poolSteals += ps.Steals
		if st := d.Chain.ObjectStore(); st != nil {
			c.objSpills += st.Stats().Spills
		}
		gs := d.Gateway.Stats()
		c.shed += gs.Rejected
		c.retries += gs.Retries
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	c.gcPauseNs, c.gcCycles = ms.PauseTotalNs, ms.NumGC
	return c
}

// counterMetrics turns two readings around `reqs` verified replies (and
// `attempted` requests) into the counter-kind per-layer metrics.
func counterMetrics(a, b counters, reqs, attempted int) map[string]float64 {
	per := func(d uint64) float64 { return float64(d) / float64(max(reqs, 1)) }
	share := func(num, den uint64) float64 { return ratio(float64(num), float64(den)) }
	runs := (b.jitRuns - a.jitRuns) + (b.interpRuns - a.interpRuns)
	// Ring residency is sampled (1-in-1024 traced descriptors): scale the
	// mean sampled wait by the dequeues each request causes.
	meanWaitUs := share(b.ringWaitNs-a.ringWaitNs, b.ringWaits-a.ringWaits) / 1e3
	return map[string]float64{
		"ebpf.runs_per_req":           per(runs),
		"ebpf.interp_share":           share(b.interpRuns-a.interpRuns, runs),
		"ring.full_per_req":           per(b.ringFulls - a.ringFulls),
		"ring.wait_us_per_req":        meanWaitUs * per(b.ringDequeues-a.ringDequeues),
		"shm.pool_highwater":          float64(b.poolHighWater),
		"shm.steals_per_req":          per(b.poolSteals - a.poolSteals),
		"objstore.spills":             float64(b.objSpills - a.objSpills),
		"transport.frames_per_write":  share(b.frames-a.frames, b.writes-a.writes),
		"transport.bytes_per_req":     per(b.wireBytes - a.wireBytes),
		"transport.drops":             float64(b.drops - a.drops),
		"transport.reconnects":        float64(b.reconnects - a.reconnects),
		"core.shed_share":             share(b.shed-a.shed, uint64(max(attempted, 1))),
		"core.retries_per_req":        per(b.retries - a.retries),
		"runtime.allocs_per_req":      per(b.mallocs - a.mallocs),
		"runtime.alloc_bytes_per_req": per(b.allocBytes - a.allocBytes),
		"runtime.gc_cycles":           float64(b.gcCycles - a.gcCycles),
		"runtime.gc_pause_ms":         float64(b.gcPauseNs-a.gcPauseNs) / 1e6,
	}
}

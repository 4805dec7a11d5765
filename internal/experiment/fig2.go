package experiment

import (
	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/platform"
	"github.com/spright-go/spright/internal/sidecar"
	"github.com/spright-go/spright/internal/sim"
	"github.com/spright-go/spright/internal/workload"
)

// fig2Pod models the §2 sidecar experiment: one NGINX function pod
// (optionally fronted by a sidecar) pinned to a pod-level core budget,
// driven by the wrk variable-size mix on the same node.
const (
	fig2PodCores     = 8     // effective NGINX worker parallelism in the pod
	fig2NginxCycles  = 950e3 // per-request NGINX + base kernel work (Null ≈ 1M cycles)
	fig2KernelCycles = 50e3  // NIC in/out kernel path
)

type fig2Result struct {
	profile sidecar.Profile
	rps     float64
	lat     float64 // seconds
	nginx   float64 // cycles/request
	sidecar float64
	kernel  float64
}

func runFig2(p sidecar.Profile) fig2Result {
	eng := sim.NewEngine()
	cfg := platform.DefaultConfig()
	pod := sim.NewCPUSet(eng, fig2PodCores, 0)
	comp := platform.NewComponent(eng, cfg, pod, "pod", 0)

	lat := metrics.NewHistogram()
	rng := sim.NewRand(42)
	completed := 0
	duration := sim.Time(10e9)

	cl := &workload.ClosedLoop{
		Eng:         eng,
		Concurrency: 64,
		Seed:        1,
		Issue: func(_ int, done func()) {
			start := eng.Now()
			size := workload.WrkMix(rng)
			cycles := fig2KernelCycles + fig2NginxCycles + p.Cycles(size)
			comp.Do(cycles, func() {
				lat.Observe((eng.Now() - start).Seconds())
				completed++
				done()
			})
		},
	}
	cl.Start()
	eng.Run(duration)

	return fig2Result{
		profile: p,
		rps:     float64(completed) / duration.Seconds(),
		lat:     lat.Mean(),
		nginx:   fig2NginxCycles,
		sidecar: p.UserCycles + p.UserCyclesPerByte*300, // user-space share, mixed-size request
		kernel:  fig2KernelCycles + p.KernelCycles,
	}
}

// Fig2 reproduces the sidecar proxy comparison: RPS, average latency and
// the cycles/request breakdown for Null, QP, Envoy and OFW.
func Fig2() *Report {
	rb := newReport()
	rb.printf("Sidecar comparison — wrk mix (98%% 100B / 2%% 10KB), single pod, no autoscale\n")
	rb.printf("%-7s %10s %12s %16s %16s %16s\n",
		"proxy", "RPS", "avg lat(ms)", "sidecar Mcyc", "NGINX Mcyc", "kernel Mcyc")
	var null fig2Result
	for _, p := range sidecar.All() {
		r := runFig2(p)
		if p.Kind == sidecar.Null {
			null = r
		}
		rb.printf("%-7s %10.0f %12.3f %16.2f %16.2f %16.2f\n",
			p.Name, r.rps, r.lat*1e3, r.sidecar/1e6, r.nginx/1e6, r.kernel/1e6)
		key := map[sidecar.Kind]string{
			sidecar.Null: "null", sidecar.QueueProxy: "qp", sidecar.Envoy: "envoy", sidecar.OFWatchdog: "ofw",
		}[p.Kind]
		rb.set(key+"_rps", r.rps)
		rb.set(key+"_lat_ms", r.lat*1e3)
		rb.set(key+"_mcycles", (r.sidecar+r.nginx+r.kernel)/1e6)
	}
	rb.printf("\npaper check: sidecars cut RPS 3–7x and raise latency 3–7x vs Null (%.0f RPS)\n", null.rps)
	return rb.done("fig2", "Fig. 2")
}

package orchestrator

// End-to-end SLO watchdog test: faults injected via internal/fault (delay +
// error) push a chain past its SLO, the watchdog breaches on both
// objectives, and exactly one rate-limited diagnostic bundle lands on disk
// containing the breaching trace IDs and the surrounding shed / circuit
// flight events.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/obs"
)

func TestSLOWatchdogE2E(t *testing.T) {
	cl := NewCluster(1)
	// Faults: the first 2 invocations error (error-rate breach + one
	// circuit flip with ConsecutiveFailures 2), every later one is delayed
	// 3ms (latency breach against a 1ms target). The bounded error rule
	// comes first — the injector's first firing rule wins.
	inj := fault.New(11).
		Add(fault.Rule{Op: fault.OpError, Function: "work", Probability: 1, MaxCount: 2}).
		Add(fault.Rule{Op: fault.OpDelay, Delay: 3 * time.Millisecond})
	dep, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:             "wd",
		TraceSampleEvery: 1, // sample everything: the bundle must name trace IDs
		TraceTailLatency: time.Millisecond,
		ScrapeInterval:   -1, // no agent goroutine: the test drives Evaluate
		Injector:         inj,
		Health:           core.HealthPolicy{ConsecutiveFailures: 2, OpenDuration: time.Millisecond},
		Admission:        core.AdmissionPolicy{MaxPending: 2},
		Functions: []core.FunctionSpec{{
			Name:    "work",
			Handler: func(ctx *core.Ctx) error { return nil },
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"work"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	bundleDir := t.TempDir()
	wd, err := cl.Controller.EnableSLOWatchdog("wd", SLOPolicy{
		TargetP99:    time.Millisecond,
		MaxErrorRate: 0.01,
		BundleDir:    bundleDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Controller.EnableSLOWatchdog("wd", SLOPolicy{}); err == nil {
		t.Fatal("second EnableSLOWatchdog must fail")
	}

	// Drive faulted traffic in phases. First the errors: 2 serial requests
	// burn the 2-shot error rule and flip the breaker (circuit events).
	for i := 0; i < 2; i++ {
		_, _ = dep.Gateway.Invoke(context.Background(), "", []byte("x"))
	}
	time.Sleep(5 * time.Millisecond) // let the breaker's open window lapse

	// Then the delays: a concurrent burst of slow (3ms) requests overruns
	// MaxPending=2, shedding most of it (overload events), and serial slow
	// requests fill the window well past MinRequests.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = dep.Gateway.Invoke(context.Background(), "", []byte("x"))
		}()
	}
	wg.Wait()
	for i := 0; i < 40; i++ {
		_, _ = dep.Gateway.Invoke(context.Background(), "", []byte("x"))
	}

	gs := dep.Gateway.Stats()
	if gs.ShedOverload == 0 {
		t.Fatalf("burst shed nothing (stats %+v): the bundle needs shed events", gs)
	}

	// One evaluation breaches both objectives and captures a bundle; an
	// immediate second evaluation breaches again but is rate-limited away.
	kinds := wd.Evaluate(time.Now())
	if len(kinds) != 2 {
		t.Fatalf("breach kinds %v, want [latency error_rate]", kinds)
	}
	kinds = wd.Evaluate(time.Now())
	if len(kinds) == 0 {
		t.Fatal("second evaluation should still breach (only the bundle is rate-limited)")
	}

	// The bundle write runs on a background goroutine; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if wd.captured.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bundle never captured")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if wd.suppressed.Load() == 0 {
		t.Fatal("second breach not suppressed by the bundle cooldown")
	}

	entries, err := os.ReadDir(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d bundles on disk, want exactly 1 (rate limit)", len(entries))
	}
	bundle := filepath.Join(bundleDir, entries[0].Name())

	// meta.json names the chain and both breach kinds.
	meta := readBundleFile(t, bundle, "meta.json")
	for _, want := range []string{`"wd"`, BreachLatency, BreachErrorRate} {
		if !strings.Contains(meta, want) {
			t.Fatalf("meta.json missing %q:\n%s", want, meta)
		}
	}

	// events.json holds the surrounding shed and circuit-breaker events.
	events := readBundleFile(t, bundle, "events.json")
	for _, want := range []string{obs.EventShed, obs.EventCircuitOpen, obs.EventSLOBreach} {
		if !strings.Contains(events, want) {
			t.Fatalf("events.json missing %q events:\n%s", want, events)
		}
	}

	// traces.json reconstructs the breach: an OTLP document carrying the
	// tail-retained trace IDs of the slow/errored requests.
	roots := otlpRoots(t, []byte(readBundleFile(t, bundle, "traces.json")))["spright/wd"]
	tail := tailTraces(dep.Chain.Tracer())
	if len(tail) == 0 {
		t.Fatal("no tail-retained traces despite injected faults")
	}
	found := 0
	for _, tr := range tail {
		if roots[tr.ID.String()]["spright.tail"] == "true" {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("traces.json names none of the %d breaching trace IDs", len(tail))
	}

	// stats.json, slo.json and the profiles ride along.
	var stats map[string]any
	if err := json.Unmarshal([]byte(readBundleFile(t, bundle, "stats.json")), &stats); err != nil {
		t.Fatalf("stats.json not JSON: %v", err)
	}
	slo := readBundleFile(t, bundle, "slo.json")
	if !strings.Contains(slo, `"p99_ms"`) {
		t.Fatalf("slo.json missing window report:\n%s", slo)
	}
	for _, f := range []string{"goroutine.txt", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	// The breach counters are on /metrics via the slo: collector.
	exp := scrape(t, cl)
	for _, want := range []string{
		`spright_slo_breaches_total{chain="wd",kind="latency"}`,
		`spright_slo_breaches_total{chain="wd",kind="error_rate"}`,
		`spright_slo_bundles_total{chain="wd",outcome="captured"} 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestSLOWatchdogPolicyWindowMonitorTicked: a policy window swaps a
// replacement monitor into the deployment; the gateway's agent tick must
// pick up the replacement (not a captured original), or its snapshot ring
// stays empty, the window never slides, and the p99 trend never populates.
func TestSLOWatchdogPolicyWindowMonitorTicked(t *testing.T) {
	cl := NewCluster(1)
	dep, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:           "wdwin",
		ScrapeInterval: 2 * time.Millisecond,
		Functions: []core.FunctionSpec{{
			Name:    "work",
			Handler: func(ctx *core.Ctx) error { return nil },
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"work"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	sloMonitor := func() *obs.SLOMonitor {
		dep.sloMu.Lock()
		defer dep.sloMu.Unlock()
		return dep.sloMon
	}
	orig := sloMonitor()
	enabled := time.Now()
	if _, err := cl.Controller.EnableSLOWatchdog("wdwin", SLOPolicy{
		TargetP99: time.Second,
		Window:    250 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	mon := sloMonitor()
	if mon == orig {
		t.Fatal("policy window did not replace the deployment's monitor")
	}
	// Keep traffic flowing while the agent ticks every 2ms: the trend only
	// fills if those ticks reach the replacement monitor (an un-ticked
	// monitor has an empty ring, so its window never sees a delta).
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 5; i++ {
			if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if rep := mon.Report("wdwin", time.Now()); len(rep.TrendP99Ms) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replacement monitor never ticked: p99 trend still empty")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The replacement differences against the newest snapshot at least the
	// policy window old, so once it has ticked well past 250ms its report
	// spans about 250ms. A monitor built with the default 10s window would
	// span everything since its first tick, here at least 800ms.
	time.Sleep(time.Until(enabled.Add(800 * time.Millisecond)))
	if w := mon.Report("wdwin", time.Now()).WindowSeconds; w < 0.2 || w >= 0.6 {
		t.Fatalf("replacement monitor's window spans %.3fs, want about the policy's 0.25s", w)
	}
}

// TestEnableSLOWatchdogConcurrent: racing enables on one chain must elect
// exactly one watchdog (the check-and-install is a single critical
// section) instead of double-registering the slo: collector.
func TestEnableSLOWatchdogConcurrent(t *testing.T) {
	cl := NewCluster(1)
	dep, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:           "wdrace",
		ScrapeInterval: -1,
		Functions: []core.FunctionSpec{{
			Name:    "work",
			Handler: func(ctx *core.Ctx) error { return nil },
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"work"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	var won, lost atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Controller.EnableSLOWatchdog("wdrace", SLOPolicy{
				Window: 100 * time.Millisecond,
			})
			if err != nil {
				lost.Add(1)
			} else {
				won.Add(1)
			}
		}()
	}
	wg.Wait()
	if won.Load() != 1 || lost.Load() != 7 {
		t.Fatalf("concurrent enables: %d won / %d lost, want exactly 1 winner", won.Load(), lost.Load())
	}
	dep.sloMu.Lock()
	installed := dep.watchdog
	dep.sloMu.Unlock()
	if installed == nil {
		t.Fatal("no watchdog installed after the race")
	}
}

func readBundleFile(t *testing.T, dir, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("bundle file %s: %v", name, err)
	}
	return string(b)
}

func scrape(t *testing.T, cl *Cluster) string {
	t.Helper()
	rec := httptest.NewRecorder()
	cl.Observability().Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

package orchestrator

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/obs"
)

// pollUntil polls cond up to the deadline, failing the test on timeout.
func pollUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedSpec is a chain whose handler parks on a channel, so tests can
// hold an exact amount of demand (inflight + queued) in the dataplane.
func blockedSpec(name string, block chan struct{}) core.ChainSpec {
	return core.ChainSpec{
		Name: name,
		Functions: []core.FunctionSpec{{
			Name:        "slow",
			Concurrency: 4,
			Handler: func(ctx *core.Ctx) error {
				<-block
				return nil
			},
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"slow"}}},
		Admission: core.AdmissionPolicy{
			ParkCapacity: 32,
			ParkTimeout:  10 * time.Second,
		},
	}
}

// offerLoad fires n fire-and-forget invocations and returns a wait func.
func offerLoad(t *testing.T, d *Deployment, n int) func() {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			d.Gateway.Invoke(ctx, "", []byte("x"))
		}()
	}
	return wg.Wait
}

func totalInflight(d *Deployment) int {
	total := 0
	for _, in := range d.Chain.Instances() {
		total += in.Inflight() + in.QueueDepth()
	}
	return total
}

// Satellite regression: the controller must see zero-replica functions.
// The old implementation built its per-function view from Chain.Instances,
// so a function scaled to zero vanished from the evaluation entirely and
// could never come back.
func TestEvaluateResumesZeroReplicaFunction(t *testing.T) {
	cl := NewCluster(1)
	spec := upperSpec("zero")
	spec.Admission = core.AdmissionPolicy{ParkCapacity: 8, ParkTimeout: 10 * time.Second}
	d, err := cl.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	as := NewAutoscalerWithConfig(d, AutoscalerConfig{
		Target: 2, MinReplicas: 0, MaxReplicas: 4, ScaleToZeroAfter: time.Hour,
	})

	if _, err := d.Chain.ScaleToZero("up"); err != nil {
		t.Fatal(err)
	}
	if len(d.Chain.Router().Instances("up")) != 0 {
		t.Fatal("setup: function must be at zero replicas")
	}

	// With no demand the idled function must STAY at zero despite being
	// visible to the controller.
	if decs := as.Evaluate(); len(decs) != 0 {
		t.Fatalf("idle zero-replica function must not scale, got %+v", decs)
	}

	// A parked request is the resume signal.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := d.Gateway.Invoke(ctx, "", []byte("hi"))
		done <- err
	}()
	pollUntil(t, 2*time.Second, "request to park", func() bool {
		return d.Gateway.ParkedFor("up") == 1
	})

	decs := as.Evaluate()
	if len(decs) != 1 || decs[0].From != 0 || decs[0].To < 1 {
		t.Fatalf("want resume decision 0->1, got %+v", decs)
	}
	if decs[0].Reason != ReasonResume {
		t.Fatalf("reason %q, want %q", decs[0].Reason, ReasonResume)
	}
	if decs[0].At.IsZero() {
		t.Fatal("decision must carry its timestamp")
	}
	if err := <-done; err != nil {
		t.Fatalf("parked request failed after resume: %v", err)
	}
}

// Every decision comes back from Evaluate stamped and attributed, and the
// all-time reason counters add it up. The controller keeps no history of
// its own: the flight recorder's bounded rings journal the decisions.
func TestDecisionsStampedAndCounted(t *testing.T) {
	cl := NewCluster(1)
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	d, err := cl.Controller.DeployChain(blockedSpec("ring", block))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	as := NewAutoscalerWithConfig(d, AutoscalerConfig{
		Target: 1, MinReplicas: 1, MaxReplicas: 6, MaxStep: 1,
	})

	wait := offerLoad(t, d, 8)
	pollUntil(t, 2*time.Second, "demand to accumulate", func() bool {
		return totalInflight(d) >= 4
	})

	// MaxStep 1: each evaluation adds exactly one replica, 1 -> 6.
	var decs []ScaleDecision
	for i := 0; i < 5; i++ {
		got := as.Evaluate()
		if len(got) != 1 {
			t.Fatalf("evaluation %d: want 1 decision, got %+v", i, got)
		}
		decs = append(decs, got[0])
	}
	if got := len(d.Chain.Router().Instances("slow")); got != 6 {
		t.Fatalf("replicas %d, want 6", got)
	}
	if extra := as.Evaluate(); len(extra) != 0 || len(d.Chain.Router().Instances("slow")) != 6 {
		t.Fatalf("MaxReplicas must cap growth, got %+v", extra)
	}

	// Chronological, one step each, every decision stamped and attributed.
	for i, dec := range decs {
		if dec.At.IsZero() || dec.Reason == "" {
			t.Fatalf("decision %d missing timestamp/reason: %+v", i, dec)
		}
		if dec.From != i+1 || dec.To != i+2 {
			t.Fatalf("decision %d is %d -> %d, want %d -> %d", i, dec.From, dec.To, i+1, i+2)
		}
		if i > 0 && dec.At.Before(decs[i-1].At) {
			t.Fatalf("decision order broken: %+v", decs)
		}
	}
	if counts := as.DecisionCounts(); counts[ReasonLoad] != 5 {
		t.Fatalf("reason counts %+v, want load=5", counts)
	}
	unblock()
	wait()
}

func TestUpCooldownBlocksImmediateSecondScaleUp(t *testing.T) {
	cl := NewCluster(1)
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	d, err := cl.Controller.DeployChain(blockedSpec("cool", block))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	as := NewAutoscalerWithConfig(d, AutoscalerConfig{
		Target: 1, MinReplicas: 1, MaxReplicas: 8, MaxStep: 1,
		UpCooldown: 10 * time.Minute,
	})

	wait := offerLoad(t, d, 8)
	pollUntil(t, 2*time.Second, "demand to accumulate", func() bool {
		return totalInflight(d) >= 4
	})

	if decs := as.Evaluate(); len(decs) != 1 {
		t.Fatalf("first evaluation must scale up, got %+v", decs)
	}
	// Demand still exceeds capacity, but the cooldown window is open.
	if decs := as.Evaluate(); len(decs) != 0 {
		t.Fatalf("cooldown must block the second scale-up, got %+v", decs)
	}
	if got := len(d.Chain.Router().Instances("slow")); got != 2 {
		t.Fatalf("replicas %d, want 2 (one bounded step)", got)
	}
	unblock()
	wait()
}

func TestHysteresisDeadBandSuppressesMarginalScaleUp(t *testing.T) {
	cl := NewCluster(1)
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock()
	d, err := cl.Controller.DeployChain(blockedSpec("hyst", block))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	as := NewAutoscalerWithConfig(d, AutoscalerConfig{
		Target: 2, MinReplicas: 1, MaxReplicas: 8,
		ScaleUpRatio: 2.0, // scale up only when demand ≥ 2× capacity
	})

	// Demand 3 on capacity 2: desired is 2 > 1 replica, but 3 < 2×2 — the
	// dead band holds the line against a marginal, probably-transient need.
	wait := offerLoad(t, d, 3)
	pollUntil(t, 2*time.Second, "demand to accumulate", func() bool {
		return totalInflight(d) == 3
	})
	if decs := as.Evaluate(); len(decs) != 0 {
		t.Fatalf("dead band must suppress marginal scale-up, got %+v", decs)
	}

	// Push demand past the threshold: now it scales.
	wait2 := offerLoad(t, d, 3)
	pollUntil(t, 2*time.Second, "demand to accumulate", func() bool {
		return totalInflight(d) >= 4
	})
	if decs := as.Evaluate(); len(decs) != 1 {
		t.Fatalf("demand past threshold must scale, got %+v", decs)
	}
	unblock()
	wait()
	wait2()
}

func TestMaxStepBoundsScaleDown(t *testing.T) {
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(upperSpec("stepdown"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 4; i++ {
		if _, err := d.Chain.ScaleUp("up"); err != nil {
			t.Fatal(err)
		}
	}
	as := NewAutoscalerWithConfig(d, AutoscalerConfig{
		Target: 1, MinReplicas: 1, MaxReplicas: 8, MaxStep: 2,
	})

	// Idle at 5 replicas: the controller wants 1, but may only shed 2 per
	// evaluation — capacity drains gradually, never in one cliff.
	for i, want := range []int{3, 1} {
		decs := as.Evaluate()
		if len(decs) != 1 {
			t.Fatalf("evaluation %d: want 1 decision, got %+v", i, decs)
		}
		if got := len(d.Chain.Router().Instances("up")); got != want {
			t.Fatalf("evaluation %d: replicas %d, want %d", i, got, want)
		}
	}
	if decs := as.Evaluate(); len(decs) != 0 {
		t.Fatalf("at floor, no further decisions, got %+v", decs)
	}
}

func TestSelfHealReplacesCircuitOpenInstance(t *testing.T) {
	var badID atomic.Uint32
	spec := core.ChainSpec{
		Name: "heal",
		Functions: []core.FunctionSpec{{
			Name:      "w",
			Instances: 2,
			Handler: func(ctx *core.Ctx) error {
				if ctx.Instance() == badID.Load() {
					panic("replica corrupted")
				}
				return nil
			},
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"w"}}},
		Health: core.HealthPolicy{ConsecutiveFailures: 2, OpenDuration: time.Minute},
	}
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// MinReplicas 2 keeps the idle-sizing pass from also shrinking the
	// freshly healed pair, so the assertion isolates the self-heal path.
	as := NewAutoscalerWithConfig(d, AutoscalerConfig{
		Target: 32, MinReplicas: 2, MaxReplicas: 8,
	})

	bad := d.Chain.Router().Instances("w")[0]
	badID.Store(bad.ID())
	for i := 0; i < 100 && !bad.CircuitOpen(); i++ {
		if _, err := d.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
			if !errors.Is(err, core.ErrHandlerPanic) {
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	if !bad.CircuitOpen() {
		t.Fatal("breaker never opened on the crashing replica")
	}

	decs := as.Evaluate()
	healed := false
	for _, dec := range decs {
		if dec.Reason == ReasonSelfHeal {
			healed = true
		}
	}
	if !healed {
		t.Fatalf("want a self-heal decision, got %+v", decs)
	}
	insts := d.Chain.Router().Instances("w")
	if len(insts) != 2 {
		t.Fatalf("replicas %d after self-heal, want 2", len(insts))
	}
	for _, in := range insts {
		if in.ID() == bad.ID() {
			t.Fatal("circuit-open replica still routable after self-heal")
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := d.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatalf("invoke %d after self-heal: %v", i, err)
		}
	}
}

// The full control-plane loop through the controller: an idle chain
// retires to zero, its prewarm pool stays warm, and the first request
// afterwards parks, kicks the controller, and completes from a prewarmed
// instance — never surfacing an error.
func TestEnableAutoscalingScaleToZeroAndResume(t *testing.T) {
	cl := NewCluster(1)
	spec := upperSpec("stz")
	spec.Admission = core.AdmissionPolicy{ParkCapacity: 32, ParkTimeout: 10 * time.Second}
	d, err := cl.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	as, err := cl.Controller.EnableAutoscaling("stz", AutoscalerConfig{
		Target: 8, MinReplicas: 0, MaxReplicas: 4,
		ScaleToZeroAfter: 30 * time.Millisecond,
		Prewarm:          1,
		Interval:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Controller.EnableAutoscaling("stz", AutoscalerConfig{}); err == nil {
		t.Fatal("double enable must fail")
	}
	d.asMu.Lock()
	installed := d.autoscaler
	d.asMu.Unlock()
	if installed != as {
		t.Fatal("deployment must hold its autoscaler")
	}

	// Serve once warm, then go idle.
	if out, err := d.Gateway.Invoke(context.Background(), "", []byte("warm")); err != nil || string(out) != "WARM" {
		t.Fatalf("warm invoke: %q, %v", out, err)
	}
	pollUntil(t, 5*time.Second, "chain to retire to zero replicas", func() bool {
		return len(d.Chain.Router().Instances("up")) == 0
	})
	pollUntil(t, 5*time.Second, "prewarm pool to fill", func() bool {
		return as.PrewarmPool().Stats().Size >= 1
	})

	// First request after scale-to-zero: parks, resumes, completes.
	out, err := d.Gateway.Invoke(contextWithDeadline(t, 10*time.Second), "", []byte("cold"))
	if err != nil {
		t.Fatalf("first request after scale-to-zero must complete, got %v", err)
	}
	if string(out) != "COLD" {
		t.Fatalf("got %q want COLD", out)
	}

	gs := d.Gateway.Stats()
	if gs.ParkedTotal < 1 || gs.Resumed < 1 {
		t.Fatalf("parked_total=%d resumed=%d, want ≥1 each", gs.ParkedTotal, gs.Resumed)
	}
	if gs.ShedPoolExhausted != 0 {
		t.Fatalf("pool-exhaustion blackhole fired %d times", gs.ShedPoolExhausted)
	}
	if n := d.Gateway.ColdStartLatency().Count(); n < 1 {
		t.Fatalf("cold-start histogram count %d, want ≥1", n)
	}
	pollUntil(t, 5*time.Second, "a coldstart_resume event for up in the flight recorder", func() bool {
		for _, ev := range cl.Observability().Flight().Events("stz", 0, 0) {
			if ev.Kind == obs.EventColdStartResume && ev.Subject == "up" && ev.Value > 0 {
				return true
			}
		}
		return false
	})
	if ps := as.PrewarmPool().Stats(); ps.Hits < 1 {
		t.Fatalf("prewarm stats %+v: resume must activate a prewarmed instance", ps)
	}
	counts := as.DecisionCounts()
	if counts[ReasonToZero] < 1 || counts[ReasonResume] < 1 {
		t.Fatalf("decision counts %+v, want to_zero and resume", counts)
	}
}

func contextWithDeadline(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

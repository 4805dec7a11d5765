package orchestrator

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/obs"
)

// Burst acceptance (ISSUE 6): an open-loop burst against an autoscaled
// chain, with fault injection live. Capacity must track the offered load
// within roughly one evaluation interval; every refused request must carry
// an explicit shed reason (the pool-exhaustion blackhole never fires); the
// idle chain must retire to zero replicas; and the first request after
// scale-to-zero must park and complete, landing its latency in the
// cold-start histogram. Teardown asserts the pool is leak-free.
func TestBurstCapacityTracksOfferedLoad(t *testing.T) {
	const interval = 25 * time.Millisecond

	inj := fault.New(7).
		Add(fault.Rule{Op: fault.OpDelay, Delay: 500 * time.Microsecond, Probability: 0.05}).
		Add(fault.Rule{Op: fault.OpError, Probability: 0.01})
	spec := core.ChainSpec{
		Name: "burst",
		Functions: []core.FunctionSpec{{
			Name:        "work",
			Concurrency: 4,
			Handler: func(ctx *core.Ctx) error {
				time.Sleep(2 * time.Millisecond)
				return nil
			},
		}},
		Routes:   []core.RouteSpec{{From: "", To: []string{"work"}}},
		Injector: inj,
		// MaxPending below the worker count so the burst's head genuinely
		// overruns admission and sheds with an explicit reason — and far
		// enough above Target × the asserted replica count that the assertion
		// has margin: the demand the controller sees is capped at MaxPending,
		// so 12 ÷ Target 2 asks for 6 replicas where the test wants ≥4 (at 8
		// the smoothed demand had to stay above 6 of a possible 8).
		Admission: core.AdmissionPolicy{
			MaxPending:   12,
			ParkCapacity: 64,
			ParkTimeout:  10 * time.Second,
		},
	}
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	as, err := cl.Controller.EnableAutoscaling("burst", AutoscalerConfig{
		Target: 2, MinReplicas: 0, MaxReplicas: 8,
		EWMAAlpha:        0.6,
		ScaleToZeroAfter: 4 * interval,
		Prewarm:          1,
		Interval:         interval,
		SelfHeal:         true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Open-loop burst: 16 closed-loop workers × ~2ms service time offers
	// far more than one instance's capacity, sustained for many intervals.
	stop := make(chan struct{})
	var completed, shed, other atomic.Uint64
	var wg sync.WaitGroup
	burstStart := time.Now()
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, err := d.Gateway.Invoke(ctx, "", []byte("x"))
				cancel()
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, core.ErrOverload):
					shed.Add(1)
					// A token backoff (well-behaved clients honor
					// Retry-After); keeps the shed path from starving the
					// admitted path in this closed loop.
					time.Sleep(time.Millisecond)
				default:
					other.Add(1) // injected handler errors land here
				}
			}
		}()
	}

	// Capacity must track offered load within ~one evaluation interval:
	// the first scale-up decision lands within two ticks of burst start
	// (one tick of slack for the goroutine scheduler).
	pollUntil(t, time.Second, "the controller to scale up", func() bool {
		return len(d.Chain.Router().Instances("work")) > 1
	})
	// The first scale-up in the chain's flight journal (Value packs
	// from<<32|to replicas).
	var firstUp time.Time
	for _, ev := range cl.Observability().Flight().Events("burst", 0, 0) {
		if ev.Kind == obs.EventScale && int32(ev.Value) > int32(ev.Value>>32) {
			firstUp = ev.Time()
			break
		}
	}
	if firstUp.IsZero() {
		t.Fatal("no scale-up decision recorded")
	}
	if lag := firstUp.Sub(burstStart); lag > 2*interval {
		t.Errorf("first scale-up %v after burst start, want within ~%v", lag, interval)
	}

	// Sustain until the controller has converged near the demand the burst
	// holds in the dataplane (12 admitted ÷ target 2 wants 6 replicas).
	pollUntil(t, 2*time.Second, "≥4 replicas under sustained 16-way load", func() bool {
		return len(d.Chain.Router().Instances("work")) >= 4
	})
	close(stop)
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no request completed during the burst")
	}

	// Idle: the chain must retire all the way to zero.
	pollUntil(t, 5*time.Second, "idle chain to retire to zero", func() bool {
		return len(d.Chain.Router().Instances("work")) == 0
	})

	// First request after scale-to-zero parks and completes — not an error.
	if _, err := d.Gateway.Invoke(contextWithDeadline(t, 10*time.Second), "", []byte("cold")); err != nil {
		t.Fatalf("first request after scale-to-zero: %v", err)
	}

	gs := d.Gateway.Stats()
	if gs.ShedPoolExhausted != 0 {
		t.Fatalf("pool-exhaustion blackhole fired %d times; admission must shed first", gs.ShedPoolExhausted)
	}
	// Every deliberate refusal carries exactly one explicit reason.
	if reasons := gs.ShedOverload + gs.ShedParkFull + gs.ShedParkTimeout; reasons != shed.Load() {
		t.Fatalf("shed reason counters %d != shed errors observed %d", reasons, shed.Load())
	}
	if gs.Rejected != shed.Load() {
		t.Fatalf("rejected=%d, shed errors=%d: refusals must be fully attributed", gs.Rejected, shed.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("burst never overran admission; overload shedding went unexercised")
	}
	if n := d.Gateway.ColdStartLatency().Count(); n < 1 {
		t.Fatalf("cold-start histogram count %d, want ≥1", n)
	}
	if gs.ColdStartP99 <= 0 {
		t.Fatal("cold-start p99 missing from stats")
	}
	counts := as.DecisionCounts()
	if counts[ReasonToZero] < 1 {
		t.Fatalf("decision counts %+v: idle chain must have retired via to_zero", counts)
	}
	t.Logf("completed=%d shed=%d injected-errors=%d decisions=%+v replicas-peak-demand served",
		completed.Load(), shed.Load(), other.Load(), counts)

	// Leak-free teardown: every buffer back in the pool.
	deadline := time.Now().Add(5 * time.Second)
	for d.Chain.Pool().InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Chain.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/fault"
)

// Chaos tests for the failure-recovery layer: panic isolation, seeded
// fault injection, retry with backoff, circuit breaking, deadlines with
// orphan reclamation, and instance restart. Every test rides on the
// testChain cleanup, which asserts the pool drains to zero and passes
// LeakCheck — a chaos test that leaks a buffer fails at teardown.

func TestPanicIsolationReleasesAndFailsFast(t *testing.T) {
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "flaky",
			Handler: func(ctx *Ctx) error {
				if string(ctx.Payload()) == "boom" {
					panic("kaboom")
				}
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"flaky"}}},
	}
	c, g := testChain(t, ModeEvent, spec)

	start := time.Now()
	_, err := g.Invoke(context.Background(), "", []byte("boom"))
	if !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("want ErrHandlerPanic, got %v", err)
	}
	// the failure must surface via the notifier, not a timeout
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("panic took %v to surface; must fail fast", elapsed)
	}
	// the instance survived its handler's panic and still serves
	if _, err := g.Invoke(context.Background(), "", []byte("ok")); err != nil {
		t.Fatalf("instance dead after absorbed panic: %v", err)
	}
	in := c.Router().Instances("flaky")[0]
	if in.Crashes() != 1 {
		t.Fatalf("instance crashes = %d, want 1", in.Crashes())
	}
	if s := g.Stats(); s.Crashes != 1 || s.Failed != 1 {
		t.Fatalf("stats crashes=%d failed=%d, want 1/1", s.Crashes, s.Failed)
	}
}

func TestInjectedPanicIsBoundedAndCounted(t *testing.T) {
	inj := fault.New(1).Add(fault.Rule{Op: fault.OpPanic, Function: "echo", MaxCount: 1})
	spec := echoSpec()
	spec.Injector = inj
	_, g := testChain(t, ModeEvent, spec)

	if _, err := g.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("want injected ErrHandlerPanic, got %v", err)
	}
	// MaxCount 1: the second invocation is clean
	out, err := g.Invoke(context.Background(), "", []byte("y"))
	if err != nil || string(out) != "Y" {
		t.Fatalf("got %q, %v after fault budget exhausted", out, err)
	}
	if s := g.Stats(); s.FaultsInjected != 1 || s.Crashes != 1 {
		t.Fatalf("gateway stats %+v", s)
	}
}

func TestInjectedDelayStallsTheHandler(t *testing.T) {
	inj := fault.New(2).Add(fault.Rule{Op: fault.OpDelay, Delay: 50 * time.Millisecond, MaxCount: 1})
	spec := echoSpec()
	spec.Injector = inj
	_, g := testChain(t, ModeEvent, spec)

	start := time.Now()
	if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("invoke returned in %v; injected delay not applied", elapsed)
	}
}

func TestRetryAbsorbsTransientQueueFull(t *testing.T) {
	// two queue-full faults on the gateway→echo hop; four attempts of
	// budget means the third attempt lands.
	inj := fault.New(3).Add(fault.Rule{
		Op: fault.OpQueueFull, Function: "gateway", Hop: "echo", MaxCount: 2,
	})
	spec := echoSpec()
	spec.Injector = inj
	spec.Retry = RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond}
	_, g := testChain(t, ModeEvent, spec)

	out, err := g.Invoke(context.Background(), "", []byte("hi"))
	if err != nil || string(out) != "HI" {
		t.Fatalf("got %q, %v; retry must absorb the transient faults", out, err)
	}
	s := g.Stats()
	if s.Retries != 2 {
		t.Fatalf("retries = %d, want 2", s.Retries)
	}
	if s.FaultsInjected != 2 {
		t.Fatalf("faults injected = %d, want 2", s.FaultsInjected)
	}
}

func TestRetriesExhaustedIsTerminal(t *testing.T) {
	// unlimited queue-full faults: every attempt fails, the send gives up
	// after the budget, and the caller gets the error immediately (the
	// gateway dispatch path) with the buffer released.
	inj := fault.New(4).Add(fault.Rule{Op: fault.OpQueueFull, Function: "gateway", Hop: "echo"})
	spec := echoSpec()
	spec.Injector = inj
	spec.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond}
	c, g := testChain(t, ModeEvent, spec)

	start := time.Now()
	_, err := g.Invoke(context.Background(), "", []byte("x"))
	if !errors.Is(err, ErrSocketFull) {
		t.Fatalf("want wrapped ErrSocketFull, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("exhausted retries took %v; must be bounded by the backoff budget", elapsed)
	}
	fs := g.Stats()
	if fs.RetriesExhausted != 1 || fs.Retries != 2 {
		t.Fatalf("failure stats %+v, want 2 retries then exhaustion", fs)
	}
	if c.Pool().InUse() != 0 {
		t.Fatal("failed dispatch leaked its buffer")
	}
}

func TestCircuitBreakerEjectsCrashingReplica(t *testing.T) {
	var badID uint32 // the replica we fault, assigned after deploy
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:      "w",
			Instances: 2,
			Handler: func(ctx *Ctx) error {
				if ctx.Instance() == badID {
					panic("replica wedged")
				}
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"w"}}},
		Health: HealthPolicy{ConsecutiveFailures: 3, OpenDuration: 10 * time.Second},
	}
	c, g := testChain(t, ModeEvent, spec)
	bad := c.Router().Instances("w")[0]
	badID = bad.ID()

	// drive requests until the faulty replica trips its breaker; the
	// load balancer may interleave the healthy replica, so failures are
	// counted rather than assumed consecutive in gateway order.
	failures := 0
	for i := 0; i < 100 && !bad.CircuitOpen(); i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			if !errors.Is(err, ErrHandlerPanic) {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	if !bad.CircuitOpen() {
		t.Fatalf("breaker never opened after %d failures", failures)
	}
	if failures < 3 {
		t.Fatalf("breaker opened after only %d failures, threshold is 3", failures)
	}
	// circuit open: every subsequent request lands on the healthy replica
	for i := 0; i < 5; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatalf("request %d failed with the bad replica ejected: %v", i, err)
		}
	}
	if s := g.Stats(); s.CircuitOpens != 1 {
		t.Fatalf("gateway stats circuit opens = %d, want 1", s.CircuitOpens)
	}
}

func TestAllInstancesUnhealthyIsTerminal(t *testing.T) {
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:    "dead",
			Handler: func(ctx *Ctx) error { panic("always") },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"dead"}}},
		Health: HealthPolicy{ConsecutiveFailures: 1, OpenDuration: 10 * time.Second},
	}
	_, g := testChain(t, ModeEvent, spec)

	if _, err := g.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("first invoke: want ErrHandlerPanic, got %v", err)
	}
	// the only instance is circuit-broken: terminal error, not a timeout
	_, err := g.Invoke(context.Background(), "", []byte("x"))
	if !errors.Is(err, ErrAllUnhealthy) {
		t.Fatalf("want ErrAllUnhealthy, got %v", err)
	}
}

func TestCircuitHalfOpenRecovery(t *testing.T) {
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "flaky",
			Handler: func(ctx *Ctx) error {
				if string(ctx.Payload()) == "boom" {
					panic("kaboom")
				}
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"flaky"}}},
		Health: HealthPolicy{ConsecutiveFailures: 1, OpenDuration: 500 * time.Millisecond},
	}
	c, g := testChain(t, ModeEvent, spec)

	if _, err := g.Invoke(context.Background(), "", []byte("boom")); !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("want ErrHandlerPanic, got %v", err)
	}
	if _, err := g.Invoke(context.Background(), "", []byte("ok")); !errors.Is(err, ErrAllUnhealthy) {
		t.Fatalf("breaker must still be open, got %v", err)
	}
	// after the cooldown the breaker admits a half-open trial; a success
	// closes it fully
	time.Sleep(600 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("ok")); err != nil {
			t.Fatalf("half-open recovery invoke %d: %v", i, err)
		}
	}
	if c.Router().Instances("flaky")[0].CircuitOpen() {
		t.Fatal("breaker must be closed after a successful trial")
	}
}

func TestDeadlineBoundsWedgedHandler(t *testing.T) {
	block := make(chan struct{})
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:    "wedged",
			Handler: func(ctx *Ctx) error { <-block; return nil },
		}},
		Routes:   []RouteSpec{{From: "", To: []string{"wedged"}}},
		Deadline: 100 * time.Millisecond,
	}
	c, g := testChain(t, ModeEvent, spec)

	// unbounded caller context: the chain's own deadline must bound it
	_, err := g.Invoke(context.Background(), "", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if fs := g.Stats(); fs.DeadlinesExceeded != 1 {
		t.Fatalf("deadlines exceeded = %d, want 1", fs.DeadlinesExceeded)
	}
	// unwedge: the late reply reaches a forgotten caller and its buffer
	// is reclaimed (not leaked)
	close(block)
	deadline := time.Now().Add(2 * time.Second)
	for c.Pool().InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("late reply after deadline leaked its buffer")
		}
		time.Sleep(time.Millisecond)
	}
	if s := g.Stats(); s.Reclaimed == 0 {
		t.Fatal("late reply must be counted as reclaimed")
	}
}

func TestInjectedDropIsReleasedAndDeadlineBounded(t *testing.T) {
	inj := fault.New(5).Add(fault.Rule{Op: fault.OpDrop, Function: "echo", MaxCount: 1})
	spec := echoSpec()
	spec.Injector = inj
	spec.Deadline = 100 * time.Millisecond
	c, g := testChain(t, ModeEvent, spec)

	// the dropped request blackholes; only the deadline saves the caller
	if _, err := g.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded for dropped request, got %v", err)
	}
	// but the buffer was released at the drop site, immediately
	if c.Pool().InUse() != 0 {
		t.Fatal("dropped message must release its buffer")
	}
	if _, err := g.Invoke(context.Background(), "", []byte("y")); err != nil {
		t.Fatalf("chain unhealthy after drop: %v", err)
	}
}

func TestRestartInstanceReclaimsQueuedRequests(t *testing.T) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			gate := make(chan struct{})
			spec := ChainSpec{
				PoolBuffers: 64,
				Functions: []FunctionSpec{{
					Name:        "slow",
					Concurrency: 1,
					Handler: func(ctx *Ctx) error {
						if string(ctx.Payload()) == "hold" {
							<-gate
						}
						return nil
					},
				}},
				Routes: []RouteSpec{{From: "", To: []string{"slow"}}},
			}
			c, g := testChain(t, mode, spec)
			victim := c.Router().Instances("slow")[0]

			// one request wedges the single worker; the rest pile up in the
			// victim's socket queue
			const queued = 24
			for i := 0; i < queued; i++ {
				if err := g.InvokeAsync("", []byte("hold")); err != nil {
					t.Fatal(err)
				}
			}
			pollUntil(t, "the first request started", func() bool { return victim.Inflight() == 1 })

			repl, err := c.RestartInstance(victim.ID())
			if err != nil {
				t.Fatal(err)
			}
			if repl.ID() == victim.ID() || repl.Function() != "slow" {
				t.Fatalf("bad replacement %d/%s", repl.ID(), repl.Function())
			}
			list := c.Router().Instances("slow")
			if len(list) != 1 || list[0].ID() != repl.ID() {
				t.Fatalf("router must route only to the replacement, has %v", list)
			}
			// the replacement serves immediately, even though the victim is
			// still wedged
			if _, err := g.Invoke(context.Background(), "", []byte("ok")); err != nil {
				t.Fatalf("replacement not serving: %v", err)
			}

			// The victim's queue gave its backlog back when its socket closed,
			// in either mode, and does not wait for the wedged handler: only
			// the wedged request's buffer is still held.
			pollUntil(t, "the backlog reclaimed with the handler still wedged", func() bool {
				return g.Stats().Reclaimed == queued-1 && c.Pool().InUse() == 1
			})
			close(gate)
			pollUntil(t, "every buffer back", func() bool { return c.Pool().InUse() == 0 })
			if fs := g.Stats(); fs.Reclaimed != queued-1 {
				t.Fatalf("reclaimed %d, want %d", fs.Reclaimed, queued-1)
			}
		})
	}
}

func TestRestartInstanceRejectsGatewayAndUnknown(t *testing.T) {
	c, _ := testChain(t, ModeEvent, echoSpec())
	if _, err := c.RestartInstance(GatewayID); err == nil {
		t.Fatal("restarting the gateway must fail")
	}
	if _, err := c.RestartInstance(9999); err == nil {
		t.Fatal("restarting an unknown instance must fail")
	}
}

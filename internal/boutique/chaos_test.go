package boutique

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/shm"
)

// TestBoutiqueChaosUnderSeededFaults is the acceptance chaos run: the full
// ten-service boutique, two replicas per service, a seeded injector firing
// panics, errors, drops, delays and transient queue-fulls, with the whole
// failure-recovery layer armed (deadline, retry, circuit breaker, panic
// isolation). The invariants:
//
//   - no panic escapes (the test process survives),
//   - every non-faulted request succeeds (>= 99%),
//   - the shared-memory pool drains to zero and passes LeakCheck.
func TestBoutiqueChaosUnderSeededFaults(t *testing.T) {
	inj := fault.New(42).
		Add(fault.Rule{Op: fault.OpPanic, Function: "currency", Probability: 0.05, MaxCount: 5}).
		Add(fault.Rule{Op: fault.OpError, Function: "cart", Probability: 0.05, MaxCount: 5}).
		Add(fault.Rule{Op: fault.OpDrop, Function: "recommendation", Probability: 0.05, MaxCount: 2}).
		Add(fault.Rule{Op: fault.OpDelay, Function: "frontend", Delay: 2 * time.Millisecond, Probability: 0.02, MaxCount: 10}).
		Add(fault.Rule{Op: fault.OpQueueFull, Hop: "productcatalog", Probability: 0.03, MaxCount: 10})

	kernel := ebpf.NewKernel()
	mgr := shm.NewManager()
	c, err := core.NewChain(kernel, mgr, Spec(SpecOptions{
		Name:      "boutique-chaos",
		Mode:      core.ModeEvent,
		Instances: 2,
		Deadline:  2 * time.Second,
		Retry:     core.RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond},
		Health:    core.HealthPolicy{ConsecutiveFailures: 5, OpenDuration: 20 * time.Millisecond},
		Injector:  inj,
	}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGateway(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close(); c.Close() })

	const n = 200
	var successes, failures atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ci := i % 6
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := g.Invoke(ctx, "", EncodeRequest(ci, []byte("u")))
			if err != nil {
				// every failure must be a recognized terminal outcome,
				// never a hang or a mystery
				switch {
				case errors.Is(err, core.ErrHandlerPanic),
					errors.Is(err, fault.ErrInjected),
					errors.Is(err, core.ErrSocketFull),
					errors.Is(err, core.ErrAllUnhealthy),
					errors.Is(err, core.ErrInstanceGone),
					errors.Is(err, context.DeadlineExceeded):
					failures.Add(1)
				default:
					t.Errorf("chain %d: unclassified failure: %v", ci, err)
				}
				return
			}
			if _, step, _, derr := DecodeResponse(out); derr != nil || step != len(Chains()[ci].Sequence) {
				t.Errorf("chain %d: bad response (step %d): %v", ci, step, derr)
				return
			}
			successes.Add(1)
		}(ci)
	}
	wg.Wait()

	s := g.Stats()
	if s.FaultsInjected == 0 {
		t.Fatal("seeded injector fired no faults; the chaos run tested nothing")
	}
	if s.Crashes == 0 {
		t.Error("expected at least one injected panic across 200 requests")
	}
	// every failed request consumed at least one fault; requests the
	// injector left alone must (nearly) all succeed
	nonFaulted := uint64(n) - min64(s.FaultsInjected, n)
	need := nonFaulted * 99 / 100
	if got := successes.Load(); got < need {
		t.Fatalf("successes %d < %d (99%% of %d non-faulted; %d failures, %d faults injected)",
			got, need, nonFaulted, failures.Load(), s.FaultsInjected)
	}
	if successes.Load()+failures.Load() != n {
		t.Fatalf("accounting broken: %d + %d != %d", successes.Load(), failures.Load(), n)
	}

	// zero-leak invariant: all buffers return to the pool
	deadline := time.Now().Add(5 * time.Second)
	for c.Pool().InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("chaos run left %d buffers in flight", c.Pool().InUse())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}

	t.Logf("chaos: %d ok, %d failed; stats faults=%d crashes=%d retries=%d opens=%d reclaimed=%d deadlines=%d",
		successes.Load(), failures.Load(), s.FaultsInjected, s.Crashes, s.Retries, s.CircuitOpens, s.Reclaimed, s.DeadlinesExceeded)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestBoutiqueRecoversAfterFaultBudgetExhausted: once every rule's
// MaxCount is consumed, the chain must serve cleanly again — injected
// chaos is bounded, not permanent damage.
func TestBoutiqueRecoversAfterFaultBudgetExhausted(t *testing.T) {
	inj := fault.New(7).
		Add(fault.Rule{Op: fault.OpPanic, Function: "frontend", MaxCount: 3})
	kernel := ebpf.NewKernel()
	mgr := shm.NewManager()
	c, err := core.NewChain(kernel, mgr, Spec(SpecOptions{
		Name:     "boutique-recover",
		Mode:     core.ModeEvent,
		Deadline: 5 * time.Second,
		Health:   core.HealthPolicy{ConsecutiveFailures: 10, OpenDuration: 10 * time.Millisecond},
		Injector: inj,
	}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGateway(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close(); c.Close() })

	// burn the fault budget: exactly 3 requests die on frontend panics
	panics := 0
	for i := 0; i < 10 && panics < 3; i++ {
		if _, err := g.Invoke(context.Background(), "", EncodeRequest(1, []byte("u"))); err != nil {
			if !errors.Is(err, core.ErrHandlerPanic) {
				t.Fatalf("unexpected error: %v", err)
			}
			panics++
		}
	}
	if panics != 3 {
		t.Fatalf("injected %d panics, want 3", panics)
	}
	// budget exhausted: all six chains complete cleanly
	for ci := range Chains() {
		out, err := g.Invoke(context.Background(), "", EncodeRequest(ci, []byte("u")))
		if err != nil {
			t.Fatalf("chain %d after recovery: %v", ci, err)
		}
		if _, step, _, _ := DecodeResponse(out); step != len(Chains()[ci].Sequence) {
			t.Fatalf("chain %d incomplete after recovery", ci)
		}
	}
	if c.Pool().InUse() != 0 {
		t.Fatalf("%d buffers still in flight", c.Pool().InUse())
	}
	if err := c.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

package fault

import (
	"testing"
	"time"
)

func TestDeterministicSequence(t *testing.T) {
	mk := func() *Injector {
		return New(7).Add(Rule{Op: OpError, Probability: 0.5})
	}
	a, b := mk(), mk()
	fired := 0
	for i := 0; i < 200; i++ {
		_, okA := a.Decide("f")
		_, okB := b.Decide("f")
		if okA != okB {
			t.Fatalf("draw %d diverged: %v vs %v", i, okA, okB)
		}
		if okA {
			fired++
		}
	}
	if fired == 0 || fired == 200 {
		t.Fatalf("p=0.5 fired %d/200 times: PRNG not advancing", fired)
	}
}

func TestMaxCountBoundsFiring(t *testing.T) {
	inj := New(1).Add(Rule{Op: OpPanic, MaxCount: 3})
	fired := 0
	for i := 0; i < 10; i++ {
		if _, ok := inj.Decide("any"); ok {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want exactly MaxCount=3", fired)
	}
}

func TestFunctionScoping(t *testing.T) {
	inj := New(1).Add(Rule{Op: OpDrop, Function: "cart"})
	if _, ok := inj.Decide("frontend"); ok {
		t.Fatal("rule scoped to cart fired for frontend")
	}
	if _, ok := inj.Decide("cart"); !ok {
		t.Fatal("rule scoped to cart did not fire for cart")
	}
}

func TestHopScopingForSendFaults(t *testing.T) {
	inj := New(1).Add(Rule{Op: OpQueueFull, Function: "a", Hop: "b"})
	if inj.DecideSend("a", "c") {
		t.Fatal("hop-scoped rule fired for wrong destination")
	}
	if inj.DecideSend("x", "b") {
		t.Fatal("hop-scoped rule fired for wrong source")
	}
	if !inj.DecideSend("a", "b") {
		t.Fatal("hop-scoped rule did not fire on its edge")
	}
	// queue-full rules never fire at the handler site
	if _, ok := inj.Decide("a"); ok {
		t.Fatal("send-site rule fired at handler site")
	}
}

func TestDelayDecisionCarriesDuration(t *testing.T) {
	inj := New(1).Add(Rule{Op: OpDelay, Delay: 5 * time.Millisecond})
	d, ok := inj.Decide("f")
	if !ok || d.Op != OpDelay || d.Delay != 5*time.Millisecond {
		t.Fatalf("decision %+v ok=%v", d, ok)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if _, ok := inj.Decide("f"); ok {
		t.Fatal("nil injector decided a fault")
	}
	if inj.DecideSend("a", "b") {
		t.Fatal("nil injector decided a send fault")
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpPanic: "panic", OpError: "error", OpDelay: "delay",
		OpDrop: "drop", OpQueueFull: "queue-full",
	} {
		if op.String() != want {
			t.Fatalf("%d: %q want %q", op, op.String(), want)
		}
	}
}

package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestVerticalScalingRaisesParallelism: §3.7 vertical pod scaling — a
// 1-slot instance serializes; raising its concurrency at runtime lets
// invocations overlap. Every handler stays inside until the test lets it go,
// so what runs in parallel is counted, not timed.
func TestVerticalScalingRaisesParallelism(t *testing.T) {
	var running, peak atomic.Int64
	release := make(chan struct{})
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:        "w",
			Concurrency: 1,
			Handler: func(ctx *Ctx) error {
				enter(&running, &peak)
				<-release
				running.Add(-1)
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"w"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	inst := c.Router().Instances("w")[0]

	// burst sends n requests, waits until want of them are inside the handler
	// with the rest queued behind them, and then lets all n through.
	burst := func(n, want int) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("x")); err != nil {
					t.Error(err)
				}
			}()
		}
		pollUntil(t, "the burst to fill the instance", func() bool {
			return int(running.Load()) == want && inst.QueueDepth() == n-want
		})
		for i := 0; i < n; i++ {
			release <- struct{}{}
		}
		wg.Wait()
	}
	burst(6, 1)
	if p := peak.Swap(0); p != 1 {
		t.Fatalf("concurrency 1 must serialize, peak=%d", p)
	}

	if err := inst.SetConcurrency(4); err != nil {
		t.Fatal(err)
	}
	if inst.Concurrency() != 4 {
		t.Fatal("concurrency not updated")
	}
	burst(8, 4)
	if p := peak.Load(); p != 4 {
		t.Fatalf("after vertical scale-up four invocations must overlap and no more; peak=%d", p)
	}
	if err := inst.SetConcurrency(0); err == nil {
		t.Fatal("non-positive concurrency must be rejected")
	}
	// chain still serves after resize
	go func() { release <- struct{}{} }()
	if _, err := g.Invoke(context.Background(), "", []byte("y")); err != nil {
		t.Fatal(err)
	}
}

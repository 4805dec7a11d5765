package core

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/shm"
)

// Tests for the protocols behind the lock-free hop: workers parked in a
// plain receive (stop flag, retire tokens), Gateway.Close completing every
// waiter, and the copy-on-write tables' visibility guarantee. Run them with
// -race -count=10 (make verify does).

// waitFor polls cond until it holds or the test's patience runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

var workerRecord = regexp.MustCompile(`(?m)^(\d+) @`)

// settledWorkers is liveWorkers once it stops moving: the baseline for a
// goroutine-profile diff must not include workers of an earlier test's
// asynchronously shut down instance on their way out.
func settledWorkers(t *testing.T) int {
	t.Helper()
	n := liveWorkers(t)
	for same := 0; same < 3; {
		time.Sleep(2 * time.Millisecond)
		if m := liveWorkers(t); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// liveWorkers counts goroutines currently inside (*Instance).work.
func liveWorkers(t *testing.T) int {
	t.Helper()
	return liveGoroutines(t, func(stack []byte) bool {
		return bytes.Contains(stack, []byte("core.(*Instance).work"))
	})
}

// liveGoroutines counts the goroutines whose stack match accepts, from the
// goroutine profile.
func liveGoroutines(t *testing.T, match func(stack []byte) bool) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, rec := range bytes.Split(buf.Bytes(), []byte("\n\n")) {
		if !match(rec) {
			continue
		}
		m := workerRecord.FindSubmatch(rec)
		if m == nil {
			t.Fatalf("unparsed goroutine record:\n%s", rec)
		}
		k, _ := strconv.Atoi(string(m[1]))
		n += k
	}
	return n
}

// holdSpec is one single-worker function whose handler blocks on gate for
// "hold" payloads and counts every run.
func holdSpec(gate <-chan struct{}, runs *atomic.Int64) ChainSpec {
	return ChainSpec{
		PoolBuffers: 64,
		Functions: []FunctionSpec{{
			Name:        "slow",
			Concurrency: 1,
			Handler: func(ctx *Ctx) error {
				runs.Add(1)
				if string(ctx.Payload()) == "hold" {
					<-gate
				}
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"slow"}}},
	}
}

// TestHandoffStopReclaimsQueued: an instance stopped — by ScaleToZero,
// RestartInstance or Chain.Close — with descriptors still queued behind a
// busy worker gives every buffer back, answers every caller exactly once,
// and runs no handler after the stop.
func TestHandoffStopReclaimsQueued(t *testing.T) {
	stops := map[string]func(c *Chain, victim *Instance) error{
		"ScaleToZero": func(c *Chain, _ *Instance) error {
			_, err := c.ScaleToZero("slow")
			return err
		},
		"RestartInstance": func(c *Chain, victim *Instance) error {
			_, err := c.RestartInstance(victim.ID())
			return err
		},
		"Close": func(c *Chain, _ *Instance) error { c.Close(); return nil },
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			var runs atomic.Int64
			c, g := testChain(t, ModeEvent, holdSpec(gate, &runs))
			victim := c.Router().Instances("slow")[0]

			const callers = 16
			outcomes := make(chan error, 2*callers) // room for a double outcome to show
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("hold"))
					outcomes <- err
				}()
			}
			waitFor(t, "one request in the handler, the rest queued", func() bool {
				return victim.Inflight() == 1 && victim.QueueDepth() == callers-1
			})

			// The stop blocks on the wedged handler; release it once the
			// instance is marked stopping, so the worker meets the queue
			// with the flag already up.
			done := make(chan error, 1)
			go func() { done <- stop(c, victim) }()
			waitFor(t, "instance stopping", victim.stopping.Load)
			close(gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(outcomes)

			if got := runs.Load(); got != 1 {
				t.Errorf("%d handler runs, want 1: a handler ran after stop", got)
			}
			ok, gone := 0, 0
			for err := range outcomes {
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrInstanceGone):
					gone++
				default:
					t.Errorf("unexpected outcome: %v", err)
				}
			}
			if ok != 1 || gone != callers-1 {
				t.Errorf("outcomes: %d ok, %d ErrInstanceGone; want 1 and %d", ok, gone, callers-1)
			}
			if g.Pending() != 0 {
				t.Errorf("%d callers still pending", g.Pending())
			}
			if fs := c.Failures(); fs.Reclaimed != callers-1 {
				t.Errorf("reclaimed %d, want %d", fs.Reclaimed, callers-1)
			}
			waitFor(t, "every buffer back", func() bool { return c.Pool().InUse() == 0 })
		})
	}
}

// TestHandoffSetConcurrencyUnderLoad: resizing the worker pool under load
// loses no request, and once quiescent the number of live workers is the
// setting — none leaked, none missing.
func TestHandoffSetConcurrencyUnderLoad(t *testing.T) {
	base := settledWorkers(t)
	c, g := testChain(t, ModeEvent, echoSpec())
	inst := c.Router().Instances("echo")[0]

	stop := make(chan struct{})
	var sent, lost atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("abc"))
				sent.Add(1)
				if err != nil || string(out) != "ABC" {
					lost.Add(1)
					t.Errorf("request lost across resize: %q, %v", out, err)
					return
				}
			}
		}()
	}
	sizes := []int{3, 48, 1, 32, 2, 7, 1, 64, 5}
	for _, n := range sizes {
		if err := inst.SetConcurrency(n); err != nil {
			t.Fatalf("SetConcurrency(%d): %v", n, err)
		}
		if inst.Concurrency() != n {
			t.Fatalf("Concurrency() = %d after SetConcurrency(%d)", inst.Concurrency(), n)
		}
		before := sent.Load()
		waitFor(t, "traffic across the resize", func() bool { return sent.Load() > before+20 })
	}
	close(stop)
	wg.Wait()
	if lost.Load() != 0 {
		t.Fatalf("%d of %d requests lost", lost.Load(), sent.Load())
	}
	want := sizes[len(sizes)-1]
	waitFor(t, "worker count to settle", func() bool { return liveWorkers(t)-base == want })
	if d := inst.QueueDepth(); d != 0 {
		t.Fatalf("%d retire tokens or descriptors left queued", d)
	}
	// Shutdown takes the rest with it.
	c.Close()
	waitFor(t, "workers to exit at close", func() bool { return liveWorkers(t) == base })
	if err := inst.SetConcurrency(8); !errors.Is(err, ErrSocketClosed) {
		t.Fatalf("resize after shutdown: %v, want ErrSocketClosed", err)
	}
	if n := liveWorkers(t); n != base {
		t.Fatalf("resize after shutdown started %d workers", n-base)
	}
}

// TestHandoffShrinkStopsAtFullQueue: a socket with no room for a retire
// token stops the shrink, and Concurrency reports the size really reached.
func TestHandoffShrinkStopsAtFullQueue(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	spec := holdSpec(gate, &runs)
	spec.SocketDepth = 2
	spec.Functions[0].Concurrency = 4
	c, g := testChain(t, ModeEvent, spec)
	inst := c.Router().Instances("slow")[0]
	for i := 1; i <= 4+2; i++ { // four wedged workers, then two queued
		if err := g.InvokeAsync("", []byte("hold")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "request picked up or queued", func() bool {
			return inst.Inflight()+inst.QueueDepth() == i && (i > 4 || inst.Inflight() == i)
		})
	}
	if err := inst.SetConcurrency(2); !errors.Is(err, ErrSocketFull) {
		t.Fatalf("shrink into a full queue: %v, want ErrSocketFull", err)
	}
	if inst.Concurrency() != 4 {
		t.Fatalf("Concurrency() = %d, want 4 (no token was queued)", inst.Concurrency())
	}
	close(gate)
	waitFor(t, "queue drained", func() bool { return c.Pool().InUse() == 0 })
	if err := inst.SetConcurrency(2); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffGatewayCloseFailsParkedCallers: Close completes every caller
// parked in the waiter with ErrGatewayClosed and leaves the pending table
// empty; a request arriving afterwards fails the same way.
func TestHandoffGatewayCloseFailsParkedCallers(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	spec := holdSpec(gate, &runs)
	spec.Functions[0].Concurrency = 4
	_, g := testChain(t, ModeEvent, spec)

	const callers = 12
	outcomes := make(chan error, 2*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Both waiter shapes: a context that can be cancelled and one
			// that cannot (the plain-receive wait).
			ctx := context.Background()
			if i%2 == 0 {
				ctx = contextWithTimeout(t, 10*time.Second)
			}
			_, err := g.Invoke(ctx, "", []byte("hold"))
			outcomes <- err
		}(i)
	}
	waitFor(t, "all callers parked", func() bool { return g.Pending() == callers })

	g.Close()
	wg.Wait()
	close(outcomes)
	n := 0
	for err := range outcomes {
		n++
		if !errors.Is(err, ErrGatewayClosed) {
			t.Errorf("parked caller got %v, want ErrGatewayClosed", err)
		}
	}
	if n != callers {
		t.Errorf("%d outcomes for %d callers", n, callers)
	}
	if g.Pending() != 0 || g.pending.size() != 0 {
		t.Errorf("pending after Close: count %d, table %d", g.Pending(), g.pending.size())
	}
	if _, err := g.Invoke(context.Background(), "", []byte("late")); !errors.Is(err, ErrGatewayClosed) {
		t.Errorf("invoke after Close: %v, want ErrGatewayClosed", err)
	}
	if g.Pending() != 0 {
		t.Errorf("invoke after Close left %d pending", g.Pending())
	}
	// The wedged requests finish into a closed gateway socket; their
	// buffers still come back (testChain's LeakCheck).
	close(gate)
}

// TestHandoffSnapshotVisibility: once Revoke, RemoveInstance or a breaker
// opening has returned, no later hop contradicts it — while other
// goroutines keep hopping through the same tables.
func TestHandoffSnapshotVisibility(t *testing.T) {
	// "echo" is the function under test; "bg" takes the background hops, so
	// they share every table with the checks below without ever touching the
	// two echo instances' health words.
	spec := echoSpec()
	spec.Functions[0].Instances = 2
	spec.Functions = append(spec.Functions, FunctionSpec{Name: "bg"})
	spec.Routes = append(spec.Routes, RouteSpec{Topic: "bg", From: "", To: []string{"bg"}})
	spec.Health = HealthPolicy{ConsecutiveFailures: 1, OpenDuration: time.Minute}
	c, g := testChain(t, ModeEvent, spec)
	insts := c.Router().Instances("echo")
	a, b := insts[0], insts[1]

	stop := make(chan struct{})
	var bg sync.WaitGroup
	for w := 0; w < 3; w++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "bg", []byte("x")); err != nil {
					t.Errorf("background hop: %v", err)
					return
				}
			}
		}()
	}
	defer func() { close(stop); bg.Wait() }()

	for i := 0; i < 200; i++ {
		// Filter: revoked means refused, from the next send on.
		if err := c.SProxy().Revoke(GatewayID, a.ID()); err != nil {
			t.Fatal(err)
		}
		buf, err := c.Pool().Get()
		if err != nil {
			t.Fatal(err)
		}
		err = c.SProxy().Send(GatewayID, shm.Descriptor{NextFn: a.ID(), Buf: buf, Caller: NoReply})
		c.releaseBuffer(buf)
		if !errors.Is(err, ErrFiltered) {
			t.Fatalf("round %d: send after Revoke returned: %v, want ErrFiltered", i, err)
		}
		if err := c.SProxy().Allow(GatewayID, a.ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatalf("round %d: invoke after Allow returned: %v", i, err)
		}

		// Router: a removed instance is never picked again; a re-added one
		// is visible at once.
		c.Router().RemoveInstance("echo", a.ID())
		for k := 0; k < 8; k++ {
			if in, err := c.Router().PickInstance("echo"); err != nil || in == a {
				t.Fatalf("round %d: PickInstance after RemoveInstance: %v, %v", i, in, err)
			}
		}
		c.Router().AddInstance("echo", a)
		if got := len(c.Router().Instances("echo")); got != 2 {
			t.Fatalf("round %d: %d instances after re-add", i, got)
		}

		// Breaker: an opened breaker ejects the instance from the very next
		// pick, though a pick among healthy instances never reads the clock.
		b.recordFailure(false)
		for k := 0; k < 8; k++ {
			if in, err := c.Router().PickInstance("echo"); err != nil || in == b {
				t.Fatalf("round %d: PickInstance after breaker opened: %v, %v", i, in, err)
			}
		}
		b.health.openUntil.Store(0)
		b.health.consec.Store(0)
	}
}

// TestForwardToCopiesWithoutAllocating: ForwardTo keeps its own copy of the
// names — the caller's slice is free to change afterwards — without a heap
// allocation up to the inline capacity, and still takes more than that.
func TestForwardToCopiesWithoutAllocating(t *testing.T) {
	names := []string{"b"}
	spec := ChainSpec{
		Functions: []FunctionSpec{
			{Name: "a", Handler: func(ctx *Ctx) error {
				ctx.ForwardTo(names...)
				names[0] = "nowhere" // must not redirect the hop
				return nil
			}},
			{Name: "b", Handler: func(ctx *Ctx) error { names[0] = "b"; return nil }},
		},
		Routes: []RouteSpec{{From: "", To: []string{"a"}}, {Topic: "edge", From: "a", To: []string{"b"}}},
	}
	_, g := testChain(t, ModeEvent, spec)
	for i := 0; i < 3; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	ctx := new(Ctx)
	few := []string{"a", "b", "c", "d"}
	if allocs := testing.AllocsPerRun(100, func() { ctx.ForwardTo(few...) }); allocs != 0 {
		t.Fatalf("ForwardTo allocated %v per call, want 0", allocs)
	}
	many := append(few, "e", "f")
	ctx.ForwardTo(many...)
	many[5] = "x"
	if len(ctx.fwd) != 6 || ctx.fwd[5] != "f" {
		t.Fatalf("ForwardTo past the inline capacity kept %q", ctx.fwd)
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/shm"
)

// Tests for the protocols behind the lock-free hop: workers parked in a
// plain receive (the stop flag), Gateway.Close completing every
// waiter, and the copy-on-write tables' visibility guarantee. Run them with
// -race -count=10 (make verify does).

// pollUntil waits for cond to hold, giving the processor to whoever can make
// it hold between looks, until the test's patience runs out.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// bothModes runs a protocol test over each transport: the hop rule — claim or
// queue — and the reply rule — the sink, on the replying worker — are the same
// in ModeEvent and ModePolling, and so are their tests.
func bothModes(t *testing.T, test func(t *testing.T, mode Mode)) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) { test(t, mode) })
	}
}

var workerRecord = regexp.MustCompile(`(?m)^(\d+) @`)

// settled is sample once it stops moving (the same reading eight times
// running): the baseline for a goroutine-profile diff must not include
// goroutines of an earlier test on their way out.
func settled(t *testing.T, what string, sample func() int) int {
	t.Helper()
	n, same := sample(), 0
	pollUntil(t, what, func() bool {
		if m := sample(); m == n {
			same++
		} else {
			n, same = m, 0
		}
		return same == 8
	})
	return n
}

func settledWorkers(t *testing.T) int {
	t.Helper()
	return settled(t, "earlier tests' workers to exit", func() int { return liveWorkers(t) })
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

// TestHandoffStopReclaimsQueued: an instance stopped — by ScaleDown,
// ScaleToZero, RestartInstance or Chain.Close — with descriptors still queued
// behind a busy worker gives every buffer back, answers every caller exactly
// once, runs no handler after the stop and leaves none of its workers behind.
func TestHandoffStopReclaimsQueued(t *testing.T) { bothModes(t, stopReclaimsQueued) }

func stopReclaimsQueued(t *testing.T, mode Mode) {
	type stopCase struct {
		instances int // of "slow", each with one request in its handler and its share queued
		left      int // instances running once the stop is over
		stop      func(c *Chain, victim *Instance) error
	}
	stops := map[string]stopCase{
		"ScaleDown": {2, 1, func(c *Chain, _ *Instance) error { return c.ScaleDown("slow") }},
		"ScaleToZero": {1, 0, func(c *Chain, _ *Instance) error {
			_, err := c.ScaleToZero("slow")
			return err
		}},
		"RestartInstance": {1, 1, func(c *Chain, victim *Instance) error {
			_, err := c.RestartInstance(victim.ID())
			return err
		}},
		"Close": {1, 0, func(c *Chain, _ *Instance) error { c.Close(); return nil }},
	}
	for name, tc := range stops {
		t.Run(name, func(t *testing.T) {
			base := settledWorkers(t)
			gate := make(chan struct{})
			var runs atomic.Int64
			spec := holdSpec(gate, &runs)
			spec.Functions[0].Instances = tc.instances
			c, g := testChain(t, mode, spec)
			open := openOnce(gate)
			t.Cleanup(open)
			insts := c.Router().Instances("slow")

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
				if i < tc.instances {
					// One at a time while an instance is idle: the router
					// sends each to the one with a free slot.
					pollUntil(t, "another instance's handler held", func() bool {
						held := 0
						for _, in := range insts {
							held += in.Inflight()
						}
						return held == i+1
					})
				}
			}
			pollUntil(t, "one request in each handler, the rest queued", func() bool {
				queued := 0
				for _, in := range insts {
					if in.Inflight() != 1 {
						return false
					}
					queued += in.QueueDepth()
				}
				return queued == callers-tc.instances
			})

			// The stop blocks on the wedged handler; release it once the
			// instance is marked stopping, so the worker meets the queue
			// with the flag already up.
			done := make(chan error, 1)
			go func() { done <- tc.stop(c, insts[0]) }()
			var victim *Instance
			pollUntil(t, "instance stopping", func() bool {
				for _, in := range insts {
					if in.stopping.Load() {
						victim = in
					}
				}
				return victim != nil
			})
			// What the victim had queued is what must be reclaimed; the stop
			// may already have handed it back.
			stranded := callers
			for _, in := range insts {
				if in != victim {
					stranded -= 1 + in.QueueDepth()
				}
			}
			stranded-- // the one in the victim's handler
			open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(outcomes)

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
			if ok != callers-stranded || gone != stranded {
				t.Errorf("outcomes: %d ok, %d ErrInstanceGone; want %d and %d", ok, gone, callers-stranded, stranded)
			}
			if got := runs.Load(); got != int64(ok) {
				t.Errorf("%d handler runs for %d answered requests: a handler ran after stop", got, ok)
			}
			if g.Stats().Pending != 0 {
				t.Errorf("%d callers still pending", g.Stats().Pending)
			}
			if fs := g.Stats(); fs.Reclaimed != uint64(stranded) {
				t.Errorf("reclaimed %d, want %d", fs.Reclaimed, stranded)
			}
			pollUntil(t, "every buffer back", func() bool { return c.Pool().InUse() == 0 })
			pollUntil(t, "the stopped instance's workers to exit", func() bool {
				return liveWorkers(t) == base+tc.left // Concurrency is 1
			})
		})
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
	pollUntil(t, "all callers parked", func() bool { return g.Stats().Pending == callers })

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
	if g.Stats().Pending != 0 || pendingEntries(g) != 0 {
		t.Errorf("pending after Close: count %d, table %d", g.Stats().Pending, pendingEntries(g))
	}
	if _, err := g.Invoke(context.Background(), "", []byte("late")); !errors.Is(err, ErrGatewayClosed) {
		t.Errorf("invoke after Close: %v, want ErrGatewayClosed", err)
	}
	if g.Stats().Pending != 0 {
		t.Errorf("invoke after Close left %d pending", g.Stats().Pending)
	}
	// The wedged requests finish into a closed gateway socket; their
	// buffers still come back (testChain's LeakCheck).
	close(gate)
}

// TestHandoffSnapshotVisibility: once Revoke, RemoveInstance or a breaker
// opening has returned, no later hop contradicts it — neither a queued hop
// nor one the sender would have run itself — while other goroutines keep
// hopping through the same tables.
func TestHandoffSnapshotVisibility(t *testing.T) {
	// "echo" is the function under test; "bg" takes the background hops, so
	// they share every table with the checks below without ever touching the
	// two echo instances' health words. Topic "via" reaches echo through
	// "fwd", whose worker claims an idle echo instance and runs it itself.
	var runs instanceRuns
	spec := echoSpec()
	spec.Functions[0].Instances = 2
	spec.Functions[0].Handler = runs.count(spec.Functions[0].Handler)
	spec.Functions = append(spec.Functions, FunctionSpec{Name: "bg"}, FunctionSpec{Name: "fwd"})
	spec.Routes = append(spec.Routes,
		RouteSpec{Topic: "bg", From: "", To: []string{"bg"}},
		RouteSpec{Topic: "via", From: "", To: []string{"fwd"}},
		RouteSpec{Topic: "via", From: "fwd", To: []string{"echo"}})
	spec.Health = HealthPolicy{ConsecutiveFailures: 1, OpenDuration: time.Minute}
	c, g := testChain(t, ModeEvent, spec)
	insts := c.Router().Instances("echo")
	a, b := insts[0], insts[1]
	fwd := c.Router().Instances("fwd")[0]

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
		// The same for a hop the sender would run itself: the program's
		// verdict comes before the claim, so a revoked edge runs no handler.
		// (Nothing else touches echo, so the next hop picks what this does.)
		tgt, err := c.Router().PickInstance("echo")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SProxy().Revoke(fwd.ID(), tgt.ID()); err != nil {
			t.Fatal(err)
		}
		ran, queued := runs.of(tgt), tgt.QueuedHops()
		if _, err := g.Invoke(context.Background(), "via", []byte("x")); !errors.Is(err, ErrFiltered) || runs.of(tgt) != ran {
			t.Fatalf("round %d: hop after Revoke returned: %v, %d handler runs; want ErrFiltered and none", i, err, runs.of(tgt)-ran)
		}
		if err := c.SProxy().Allow(fwd.ID(), tgt.ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Invoke(context.Background(), "via", []byte("x")); err != nil || runs.of(tgt) != ran+1 || tgt.QueuedHops() != queued {
			t.Fatalf("round %d: hop after Allow returned: %v, %d handler runs, %d queued; want one claimed run",
				i, err, runs.of(tgt)-ran, tgt.QueuedHops()-queued)
		}

		// Router: a removed instance is never picked again — so never claimed
		// either; a re-added one is visible at once.
		c.Router().RemoveInstance("echo", a.ID())
		for k := 0; k < 8; k++ {
			if in, err := c.Router().PickInstance("echo"); err != nil || in == a {
				t.Fatalf("round %d: PickInstance after RemoveInstance: %v, %v", i, in, err)
			}
		}
		ran = runs.of(a)
		if _, err := g.Invoke(context.Background(), "via", []byte("x")); err != nil || runs.of(a) != ran {
			t.Fatalf("round %d: hop after RemoveInstance returned: %v, %d runs on the removed instance", i, err, runs.of(a)-ran)
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

// Tests for run-to-completion across hops: a worker that forwards to one
// function claims a concurrency slot of the destination instance and runs
// that handler itself (Chain.sendOrClaim, Instance.work) — whether it took the
// request off its socket's channel or polled it off its ring.

// goid is the calling goroutine's ID, for telling who ran a handler.
func goid() uint64 {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)]) // "goroutine 123 [running]:"
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// openOnce returns the function that opens gate, once. Tests whose handlers
// block on a gate register it with t.Cleanup after testChain, so that it runs
// before the chain's teardown: a test that fails with handlers still held then
// reports its failure instead of hanging in Close.
func openOnce(gate chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// enter counts a handler in and keeps the most that were ever inside.
func enter(running, peak *atomic.Int64) {
	n := running.Add(1)
	for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
	}
}

// invokeTo sends one request and reports how it ended on result.
func invokeTo(t *testing.T, g *Gateway, topic, body string, result chan<- error) {
	_, err := g.Invoke(contextWithTimeout(t, 10*time.Second), topic, []byte(body))
	result <- err
}

// upDownSpec is "up" → "down" behind the gateway, plus topic "direct" from the
// gateway straight to "down": hops from up's workers may claim, the gateway's
// always queue.
func upDownSpec(up, down FunctionSpec) ChainSpec {
	up.Name, down.Name = "up", "down"
	return ChainSpec{
		PoolBuffers: 128,
		Functions:   []FunctionSpec{up, down},
		Routes: []RouteSpec{
			{From: "", To: []string{"up"}},
			{From: "up", To: []string{"down"}},
			{Topic: "direct", From: "", To: []string{"down"}},
		},
	}
}

// TestHandoffInlineHoldsConcurrency: Concurrency bounds the handlers of an
// instance running at once, its own workers' and the ones forwarding workers
// run in claimed slots counted together; and a worker that dequeued while
// claimed slots filled the bound is woken by the release that frees one.
func TestHandoffInlineHoldsConcurrency(t *testing.T) { bothModes(t, inlineHoldsConcurrency) }

func inlineHoldsConcurrency(t *testing.T, mode Mode) {
	for _, bound := range []int{1, 2} {
		t.Run("storm/"+strconv.Itoa(bound), func(t *testing.T) {
			var running, peak atomic.Int64
			var runs instanceRuns
			c, g := testChain(t, mode, upDownSpec(
				FunctionSpec{Concurrency: 8},
				FunctionSpec{Concurrency: bound, Handler: runs.count(func(ctx *Ctx) error {
					enter(&running, &peak)
					runtime.Gosched() // stay inside long enough to be overlapped
					running.Add(-1)
					return nil
				})}))
			down := c.Router().Instances("down")[0]
			const rounds = 400
			var wg sync.WaitGroup
			for caller := 0; caller < 10; caller++ {
				topic := ""
				if caller >= 8 {
					topic = "direct"
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						if _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), topic, []byte("x")); err != nil {
							t.Errorf("topic %q round %d: %v", topic, r, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if p := peak.Load(); p > int64(bound) {
				t.Errorf("%d handlers of one instance ran at once, Concurrency is %d", p, bound)
			}
			delivered, _ := down.SocketStats()
			if delivered != 10*rounds || runs.of(down) != 10*rounds {
				t.Errorf("delivered %d, handled %d, want %d of each", delivered, runs.of(down), 10*rounds)
			}
			if down.Inflight() != 0 || atomic.LoadInt32(&down.slotWaiters) != 0 {
				t.Errorf("idle instance holds %d slots, %d waiters", down.Inflight(), atomic.LoadInt32(&down.slotWaiters))
			}
			t.Logf("bound %d: peak %d, %d of %d function hops queued", bound, peak.Load(), down.QueuedHops(), 8*rounds)
		})

		t.Run("parked-worker/"+strconv.Itoa(bound), func(t *testing.T) {
			gate := make(chan struct{})
			var runs atomic.Int64
			c, g := testChain(t, mode, upDownSpec(
				FunctionSpec{Concurrency: 8},
				FunctionSpec{Concurrency: bound, Handler: func(ctx *Ctx) error {
					runs.Add(1)
					if string(ctx.Payload()) == "hold" {
						<-gate
					}
					return nil
				}}))
			open := openOnce(gate)
			t.Cleanup(open)
			down := c.Router().Instances("down")[0]
			results := make(chan error, bound+1)
			// Fill every slot from up's workers, one at a time so each finds
			// the instance idle enough to claim.
			for i := 1; i <= bound; i++ {
				go invokeTo(t, g, "", "hold", results)
				// A claimed slot is counted before its handler runs: wait for both.
				pollUntil(t, "a forwarding worker inside down's handler", func() bool {
					return down.Inflight() == i && runs.Load() == int64(i)
				})
			}
			if q := down.QueuedHops(); q != 0 {
				t.Fatalf("%d of %d hops queued; all should have been claimed", q, bound)
			}
			// One more, through the queue: down's own worker takes it off and
			// must park, not run it and not spin.
			go invokeTo(t, g, "direct", "x", results)
			pollUntil(t, "down's worker parked for a slot", func() bool { return atomic.LoadInt32(&down.slotWaiters) == 1 })
			if got := runs.Load(); got != int64(bound) {
				t.Fatalf("%d handler runs with %d slots: the bound was exceeded", got, bound)
			}
			// One release, and nothing else happens: the parked worker must
			// run the queued request.
			gate <- struct{}{}
			for i := 0; i < 2; i++ { // the released hold and the queued request
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
			if got := runs.Load(); got != int64(bound)+1 {
				t.Fatalf("%d handler runs after one release, want %d", got, bound+1)
			}
			open()
			for i := 1; i < bound; i++ {
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// slotShare is the size of stripe's sub-budget: bound slots dealt
// round-robin.
func slotShare(bound int, stripe uint32) int32 {
	n := int32(bound / ebpf.Stripes)
	if int(stripe) < bound%ebpf.Stripes {
		n++
	}
	return n
}

// requireSlotsHome fails the test unless every slot of an idle instance is
// back in the stripe it was dealt to.
func requireSlotsHome(t *testing.T, in *Instance, bound int) {
	t.Helper()
	for i := range in.stripes {
		if got, want := in.stripes[i].free.Load(), slotShare(bound, uint32(i)); got != want {
			t.Errorf("instance %d, bound %d: stripe %d has %d free slots, was dealt %d", in.ID(), bound, i, got, want)
		}
	}
	if in.Inflight() != 0 || in.ResidualCapacity() != bound {
		t.Errorf("idle instance %d: %d slots held, residual capacity %d of %d",
			in.ID(), in.Inflight(), in.ResidualCapacity(), bound)
	}
}

// TestHandoffSlotBudgetModel: an instance's slot bound, split into per-stripe
// sub-budgets, against a model of it. The sub-budgets sum to Concurrency for
// bounds below, at and above the stripe count; a claim from any stripe is
// granted while any stripe has a slot and refused only when none has; a slot
// goes back to the stripe it came from, whoever's stripe the request was on;
// and under claimers on random stripes and a shutdown at once, no grant ever
// takes the slots held past the bound, Inflight never reads more, a refusal
// nobody released across finds the bound reached, and shutdown returns with
// nothing held and nothing granted after.
//
// Guards this fails without: the scan of the other stripes in claim (every
// subtest); handle releasing on the slot's stripe, not the request's
// (released-where-taken); claim refusing, and undoing, a decrement that
// took a stripe below zero, and Inflight's clamp to the bound (model: each
// checked by making the change).
func TestHandoffSlotBudgetModel(t *testing.T) { bothModes(t, slotBudgetModel) }

func slotBudgetModel(t *testing.T, mode Mode) {
	t.Run("every-stripe-refused", func(t *testing.T) {
		for _, bound := range []int{1, 2, 3, 8, 32} {
			c, _ := testChain(t, mode, upDownSpec(FunctionSpec{}, FunctionSpec{Concurrency: bound}))
			down := c.Router().Instances("down")[0]
			requireSlotsHome(t, down, bound)
			for _, from := range []uint32{0, 1, 5, 7, 13} {
				var slots []uint32
				for i := 0; i < bound; i++ {
					slot, ok := down.claim(from)
					if !ok {
						t.Fatalf("bound %d: claim %d from stripe %d refused with %d slots free", bound, i+1, from, bound-i)
					}
					slots = append(slots, slot)
				}
				if down.Inflight() != bound || down.ResidualCapacity() != 0 {
					t.Errorf("bound %d: %d held, residual %d, with every slot out", bound, down.Inflight(), down.ResidualCapacity())
				}
				for stripe := uint32(0); stripe < 2*ebpf.Stripes; stripe++ {
					if slot, ok := down.claim(stripe); ok {
						t.Fatalf("bound %d: stripe %d was granted slot %d with %d held", bound, stripe, slot, bound)
					}
				}
				for _, slot := range slots {
					down.release(slot)
				}
				requireSlotsHome(t, down, bound)
			}
		}
	})

	// Concurrency 1 leaves the one slot on stripe 0, which no pooled Ctx is
	// dealt: every worker's claim of it comes from another stripe.
	t.Run("released-where-taken", func(t *testing.T) {
		var runs instanceRuns
		c, g := testChain(t, mode, upDownSpec(FunctionSpec{Concurrency: 8}, FunctionSpec{Concurrency: 1, Handler: runs.count(nil)}))
		up, down := c.Router().Instances("up")[0], c.Router().Instances("down")[0]
		const requests = 64
		for i := 0; i < requests; i++ {
			if _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		pollUntil(t, "the last release", func() bool { return up.Inflight() == 0 && down.Inflight() == 0 })
		requireSlotsHome(t, up, 8)
		requireSlotsHome(t, down, 1)
		if q := down.QueuedHops(); q != 0 {
			t.Errorf("%d of %d sequential hops were queued, not claimed", q, requests)
		}
		if delivered, _ := down.SocketStats(); delivered != requests || runs.of(down) != requests {
			t.Errorf("down: delivered %d, handled %d, want %d of each", delivered, runs.of(down), requests)
		}
	})

	// Fewer slots than claimers, so claims are refused as well as granted.
	for _, bound := range []int{1, 3, 8} {
		t.Run("model/"+strconv.Itoa(bound), func(t *testing.T) { slotModel(t, mode, bound) })
	}
}

func slotModel(t *testing.T, mode Mode, bound int) {
	c, _ := testChain(t, mode, upDownSpec(FunctionSpec{}, FunctionSpec{Concurrency: bound}))
	in := c.Router().Instances("down")[0]
	var (
		held              atomic.Int64 // the model's count: granted, release not begun
		relBegun, relDone atomic.Uint64
		down              atomic.Bool // shutdown has returned
		quit              atomic.Bool
		grants, refusals  atomic.Int64
	)
	t.Cleanup(func() { quit.Store(true) }) // before the chain's teardown, should the test give up early
	claimer := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for !quit.Load() {
			wasDown := down.Load()
			d0 := relDone.Load()
			slot, ok := in.claim(uint32(rng.Intn(2 * ebpf.Stripes)))
			if n := in.Inflight(); n > bound {
				t.Errorf("Inflight() = %d over a bound of %d", n, bound)
			}
			if !ok {
				refusals.Add(1)
				// Nothing came back while claim looked, so each stripe it found
				// empty stayed empty: every slot was out, and the model's count
				// gets there once the grants it has not yet heard of are
				// counted.
				for deadline := time.Now().Add(5 * time.Second); !in.stopping.Load() && relBegun.Load() == d0 && held.Load() < int64(bound); runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Errorf("refused with %d of %d slots held, none being released", held.Load(), bound)
						return
					}
				}
				runtime.Gosched() // let a holder run
				continue
			}
			grants.Add(1)
			if wasDown {
				t.Errorf("stripe slot %d granted after shutdown returned", slot)
			}
			if n := held.Add(1); n > int64(bound) {
				t.Errorf("a grant made %d slots held under a bound of %d", n, bound)
			}
			for i := rng.Intn(4); i > 0; i-- {
				runtime.Gosched()
			}
			held.Add(-1)
			relBegun.Add(1)
			in.release(slot)
			relDone.Add(1)
		}
	}
	var wg sync.WaitGroup
	for i := int64(0); i < 6; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); claimer(i) }()
	}
	pollUntil(t, "claims granted and refused", func() bool { return grants.Load() >= 1000 && (bound >= 6 || refusals.Load() >= 100) })
	in.shutdown()
	if n := held.Load(); n != 0 {
		t.Errorf("shutdown returned with %d slots held", n)
	}
	down.Store(true)
	after := grants.Load() + refusals.Load()
	pollUntil(t, "claims after the shutdown", func() bool { return grants.Load()+refusals.Load() > after+50 })
	quit.Store(true)
	wg.Wait()
	if in.Inflight() != 0 {
		t.Errorf("%d slots held after the last release", in.Inflight())
	}
	t.Logf("bound %d: %d grants, %d refusals", bound, grants.Load(), refusals.Load())
}

// TestHandoffInlineShutdown: stopping an instance while a forwarding worker
// runs its handler in a claimed slot. The synchronous stops return only after
// that handler; RestartInstance, which must not block on a wedged handler,
// returns at once but grants no further slot. Hops after the stop reach the
// replacement or the other instance, or fail their caller; every buffer comes
// back (testChain's LeakCheck).
func TestHandoffInlineShutdown(t *testing.T) { bothModes(t, inlineShutdown) }

func inlineShutdown(t *testing.T, mode Mode) {
	type stopCase struct {
		instances int // of "down", each holding one claimed slot when stop runs
		stop      func(c *Chain, victim *Instance) error
		sync      bool  // stop returns only after the victim's handlers
		after     error // what a later request through up ends with
	}
	cases := map[string]stopCase{
		"RestartInstance": {1, func(c *Chain, v *Instance) error { _, err := c.RestartInstance(v.ID()); return err }, false, nil},
		"ScaleDown":       {2, func(c *Chain, _ *Instance) error { return c.ScaleDown("down") }, true, nil},
		"ScaleToZero":     {1, func(c *Chain, _ *Instance) error { _, err := c.ScaleToZero("down"); return err }, true, ErrNoInstance},
		"Close":           {1, func(c *Chain, _ *Instance) error { c.Close(); return nil }, true, ErrBackpressure}, // its pool is closed
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			var finished atomic.Int64
			var ranOn sync.Map // down instance ID → true, for "after" requests
			c, g := testChain(t, mode, upDownSpec(
				FunctionSpec{Concurrency: 4},
				FunctionSpec{Instances: tc.instances, Concurrency: 2, Handler: func(ctx *Ctx) error {
					if string(ctx.Payload()) == "hold" {
						<-gate
						finished.Add(1)
					} else {
						ranOn.Store(ctx.Instance(), true)
					}
					return nil
				}}))
			open := openOnce(gate)
			t.Cleanup(open)
			downs := c.Router().Instances("down")
			held := make(chan error, tc.instances)
			for i := 1; i <= tc.instances; i++ {
				go invokeTo(t, g, "", "hold", held)
				pollUntil(t, "a forwarding worker inside down's handler", func() bool {
					n := 0
					for _, d := range downs {
						n += d.Inflight()
					}
					return n == i
				})
			}
			for _, d := range downs {
				if d.Inflight() != 1 || d.QueuedHops() != 0 {
					t.Fatalf("instance %d: %d in flight, %d hops queued; want one claimed slot each", d.ID(), d.Inflight(), d.QueuedHops())
				}
			}

			// finishedAtReturn is how many held handlers had finished when
			// stop returned: all of the victim's, for a synchronous stop.
			finishedAtReturn := make(chan int64, 1)
			stopErr := make(chan error, 1)
			go func() {
				err := tc.stop(c, downs[0])
				finishedAtReturn <- finished.Load()
				stopErr <- err
			}()
			if tc.sync {
				// Wait until the stop has nothing left to wait for but the
				// handler in the claimed slot — the victim's own workers are
				// idle and exit at once; Chain.Close stops "up" first and
				// waits there for the worker that is away inside down — and
				// see that it is still waiting.
				pollUntil(t, "the stop to reach its wait", func() bool {
					for _, d := range downs {
						if d.stopping.Load() && atomic.LoadInt32(&d.slotWaiters) == 1 {
							return true
						}
					}
					return c.Router().Instances("up")[0].sock.closed.Load()
				})
				select {
				case n := <-finishedAtReturn:
					t.Fatalf("%s returned with %d of the victim's handlers finished and one still running", name, n)
				default:
				}
			} else if err := <-stopErr; err != nil {
				t.Fatal(err)
			}
			open()
			if tc.sync {
				if err := <-stopErr; err != nil {
					t.Fatal(err)
				}
			}
			if n := <-finishedAtReturn; tc.sync && n == 0 {
				t.Errorf("%s returned before the handler running in the victim's claimed slot", name)
			}
			for i := 0; i < tc.instances; i++ {
				if err := <-held; err != nil {
					t.Errorf("request inside a handler during %s: %v", name, err)
				}
			}

			_, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("after"))
			if !errors.Is(err, tc.after) {
				t.Errorf("request after %s: %v, want %v", name, err, tc.after)
			}
			for _, d := range downs {
				if _, ran := ranOn.Load(d.ID()); ran && d.stopping.Load() {
					t.Errorf("stopped instance %d ran a handler after %s", d.ID(), name)
				}
				if d.stopping.Load() {
					pollUntil(t, "the stopped instance to go idle", func() bool { return d.Inflight() == 0 })
					// A sender that picked the instance before it left the
					// router may ask it for a slot at any time afterwards.
					for stripe := uint32(0); stripe < ebpf.Stripes; stripe++ {
						if _, ok := d.claim(stripe); ok {
							t.Errorf("stopped instance %d granted stripe %d a slot after %s", d.ID(), stripe, name)
						}
					}
				}
			}
		})
	}

	// ScaleDown racing claims: whatever the interleaving, once ScaleDown has
	// returned no handler of its victim is running or starts.
	t.Run("churn", func(t *testing.T) {
		var gone sync.Map // instance ID → true once its ScaleDown returned
		check := func(ctx *Ctx, when string) {
			if _, dead := gone.Load(ctx.Instance()); dead {
				t.Errorf("instance %d: handler %s after ScaleDown returned", ctx.Instance(), when)
			}
		}
		c, g := testChain(t, mode, upDownSpec(
			FunctionSpec{Concurrency: 4},
			FunctionSpec{Instances: 2, Concurrency: 2, Handler: func(ctx *Ctx) error {
				check(ctx, "started")
				runtime.Gosched()
				check(ctx, "still running")
				return nil
			}}))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var served, refused atomic.Int64
		for caller := 0; caller < 4; caller++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					switch _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("x")); {
					case err == nil:
						served.Add(1)
					case errors.Is(err, ErrInstanceGone), errors.Is(err, ErrSocketClosed), errors.Is(err, ErrNoSuchFn):
						refused.Add(1) // the hop lost the race with the stop: its caller is told
					default:
						t.Errorf("request across ScaleDown: %v", err)
						return
					}
				}
			}()
		}
		for round := 0; round < 60; round++ {
			if _, err := c.ScaleUp("down"); err != nil {
				t.Fatal(err)
			}
			before := c.Router().Instances("down")
			if err := c.ScaleDown("down"); err != nil {
				t.Fatal(err)
			}
			left := map[uint32]bool{}
			for _, in := range c.Router().Instances("down") {
				left[in.ID()] = true
			}
			for _, in := range before {
				if !left[in.ID()] {
					gone.Store(in.ID(), true)
				}
			}
			n := served.Load()
			pollUntil(t, "traffic across the round", func() bool { return served.Load() > n+10 })
		}
		close(stop)
		wg.Wait()
		t.Logf("%d served, %d told their instance had gone", served.Load(), refused.Load())
	})
}

// TestHandoffInlineCycle: a routing cycle is a loop, not a recursion — a
// million hops between two functions stay on one goroutine whose stack is as
// deep at the last hop as at the first.
func TestHandoffInlineCycle(t *testing.T) { bothModes(t, inlineCycle) }

func inlineCycle(t *testing.T, mode Mode) {
	const hops = 1_000_000
	var left = hops
	var id uint64
	depth := 0
	done := make(chan struct{})
	hop := func(ctx *Ctx) error {
		if left%100_000 == 0 { // first, every 100 000th, last
			var pcs [64]uintptr
			switch d := runtime.Callers(0, pcs[:]); {
			case left == hops:
				id, depth = goid(), d
			case d != depth || goid() != id:
				t.Errorf("%d hops in: goroutine %d at depth %d, started on %d at depth %d", hops-left, goid(), d, id, depth)
			}
		}
		if left--; left == 0 {
			ctx.Drop()
			close(done)
		}
		return nil
	}
	c, g := testChain(t, mode, ChainSpec{
		Functions: []FunctionSpec{
			{Name: "ping", Handler: hop, Concurrency: 1},
			{Name: "pong", Handler: hop, Concurrency: 1},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"ping"}},
			{From: "ping", To: []string{"pong"}},
			{From: "pong", To: []string{"ping"}},
		},
	})
	if err := g.InvokeAsync("", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%d hops left after a minute", left)
	}
	for _, fn := range []string{"ping", "pong"} {
		in := c.Router().Instances(fn)[0]
		if q := in.QueuedHops(); q != 0 {
			t.Errorf("%s: %d hops queued, want none", fn, q)
		}
	}
}

// TestHandoffBacklogSendsWorkerHome: a worker with work waiting on its own
// socket queues the hop downstream and goes home for it; with nothing waiting
// it follows the request.
func TestHandoffBacklogSendsWorkerHome(t *testing.T) { bothModes(t, backlogSendsWorkerHome) }

func backlogSendsWorkerHome(t *testing.T, mode Mode) {
	entered, gate, firstDown := make(chan struct{}), make(chan struct{}), make(chan struct{})
	firstRanDown := openOnce(firstDown)
	var upRan, downRan sync.Map // payload → goroutine
	c, g := testChain(t, mode, upDownSpec(
		FunctionSpec{Concurrency: 1, Handler: func(ctx *Ctx) error {
			upRan.Store(string(ctx.Payload()), goid())
			if string(ctx.Payload()) == "first" {
				close(entered)
				<-gate
			} else {
				// Not before the first request has left down's queue — a ring
				// is emptied by a worker that polls, not by the send — or the
				// second would rightly queue behind it.
				<-firstDown
			}
			return nil
		}},
		FunctionSpec{Concurrency: 4, Handler: func(ctx *Ctx) error {
			downRan.Store(string(ctx.Payload()), goid())
			if string(ctx.Payload()) == "first" {
				firstRanDown()
			}
			return nil
		}}))
	open := openOnce(gate)
	t.Cleanup(open)
	t.Cleanup(firstRanDown)
	up, down := c.Router().Instances("up")[0], c.Router().Instances("down")[0]
	results := make(chan error, 2)
	for _, body := range []string{"first", "second"} {
		go invokeTo(t, g, "", body, results)
		if body == "first" {
			<-entered
		}
	}
	pollUntil(t, "the second request queued behind the first", func() bool { return up.QueueDepth() == 1 })
	open()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	ran := func(m *sync.Map, body string) uint64 { v, _ := m.Load(body); return v.(uint64) }
	if ran(&downRan, "first") == ran(&upRan, "first") {
		t.Error("up's worker followed the first request downstream with the second waiting at home")
	}
	if ran(&downRan, "second") != ran(&upRan, "second") {
		t.Error("up's worker queued the second request downstream with nothing waiting at home")
	}
	if delivered, _ := down.SocketStats(); delivered != 2 || down.QueuedHops() != 1 {
		t.Errorf("down: %d delivered, %d queued hops; want 2 and 1", delivered, down.QueuedHops())
	}
}

// TestHandoffQueuedHopCountedBeforeItRuns: a queued hop is counted before
// its push, so the handler it reaches — which may run, and its caller return,
// before the forwarding worker runs again — already sees itself in
// QueuedHops. up's worker queues "first" downstream because "second" is
// waiting at its home (as in TestHandoffBacklogSendsWorkerHome), and down's
// handler reads the count from inside.
func TestHandoffQueuedHopCountedBeforeItRuns(t *testing.T) {
	bothModes(t, queuedHopCountedBeforeItRuns)
}

func queuedHopCountedBeforeItRuns(t *testing.T, mode Mode) {
	entered, gate, stop := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	var down *Instance
	var before atomic.Uint64
	c, g := testChain(t, mode, upDownSpec(
		FunctionSpec{Concurrency: 1, Handler: func(ctx *Ctx) error {
			if string(ctx.Payload()) == "first" {
				entered <- struct{}{}
				select {
				case <-gate:
				case <-stop:
				}
			}
			return nil
		}},
		FunctionSpec{Concurrency: 4, Handler: func(ctx *Ctx) error {
			if string(ctx.Payload()) != "first" {
				return nil
			}
			if q := down.QueuedHops(); q <= before.Load() {
				t.Errorf("down's handler of a queued hop read %d queued hops, as before the hop", q)
			}
			return nil
		}}))
	t.Cleanup(openOnce(stop))
	up := c.Router().Instances("up")[0]
	down = c.Router().Instances("down")[0]
	for round := 0; round < 200 && !t.Failed(); round++ {
		before.Store(down.QueuedHops())
		results := make(chan error, 2)
		go invokeTo(t, g, "", "first", results)
		<-entered
		go invokeTo(t, g, "", "second", results)
		pollUntil(t, "the second request queued behind the first", func() bool { return up.QueueDepth() == 1 })
		gate <- struct{}{}
		for i := 0; i < 2; i++ {
			if err := <-results; err != nil {
				t.Fatal(err)
			}
		}
		if down.QueuedHops() == before.Load() {
			t.Fatalf("round %d: the first request's hop was not queued", round)
		}
	}
}

// TestHandoffFanoutStaysParallel: a fan-out's branches are queued, never run
// one after the other by the forwarding worker — three readers that each wait
// for the other two to arrive all get through.
func TestHandoffFanoutStaysParallel(t *testing.T) { bothModes(t, fanoutStaysParallel) }

func fanoutStaysParallel(t *testing.T, mode Mode) {
	var arrived atomic.Int64
	all := make(chan struct{})
	reader := func(ctx *Ctx) error {
		if arrived.Add(1) == 3 {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: only %d of 3 readers inside at once", ctx.FunctionName(), arrived.Load())
		}
		ctx.Drop()
		return nil
	}
	c, g := testChain(t, mode, ChainSpec{
		Functions: []FunctionSpec{
			{Name: "split"},
			{Name: "r1", Handler: reader}, {Name: "r2", Handler: reader}, {Name: "r3", Handler: reader},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"split"}},
			{From: "split", To: []string{"r1", "r2", "r3"}},
		},
	})
	if err := g.InvokeAsync("", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "the branches to finish", func() bool { return c.Pool().InUse() == 0 })
	for _, fn := range []string{"r1", "r2", "r3"} {
		in := c.Router().Instances(fn)[0]
		if q := in.QueuedHops(); q != 0 {
			t.Errorf("%s counted %d queued hops; a fan-out branch never asks for a claim", fn, q)
		}
		// split's worker is dealt a stripe of 1–7; stripe 0 is for senders
		// that have none, and a branch is sent on its sender's.
		if n := in.sock.stripes[0].delivered.Load(); n != 0 {
			t.Errorf("%s: %d branch deliveries counted on stripe 0, not the sender's", fn, n)
		}
	}
}

// TestFanOutAllocations: a fan-out is one send per branch, and in steady state
// a fire-and-forget request fanned out to three readers that drop it allocates
// nothing, in either mode. Tracing is off: a sampled request records spans.
func TestFanOutAllocations(t *testing.T) { bothModes(t, fanOutAllocations) }

func fanOutAllocations(t *testing.T, mode Mode) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race, and every drop is an allocation")
	}
	var runs instanceRuns
	reader := runs.count(func(ctx *Ctx) error {
		ctx.Drop()
		return nil
	})
	c, g := testChain(t, mode, ChainSpec{
		TraceSampleEvery: -1,
		Functions: []FunctionSpec{
			{Name: "split"},
			{Name: "r1", Handler: reader}, {Name: "r2", Handler: reader}, {Name: "r3", Handler: reader},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"split"}},
			{From: "split", To: []string{"r1", "r2", "r3"}},
		},
	})
	payload := []byte("x")
	invoke := func() {
		if err := g.InvokeAsync("", payload); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.Pool().InUse() != 0 { // the last branch's release
			if time.Now().After(deadline) {
				t.Fatalf("%d buffers still in use after a fan-out", c.Pool().InUse())
			}
			runtime.Gosched()
		}
	}
	const warm, n = 200, 10000
	for i := 0; i < warm; i++ { // pools
		invoke()
	}
	if avg := testing.AllocsPerRun(n, invoke); avg != 0 {
		t.Errorf("%.2f allocations per fan-out request, want none", avg)
	}
	for _, fn := range []string{"r1", "r2", "r3"} {
		// AllocsPerRun makes one more run, uncounted, before it counts.
		if h, want := runs.of(c.Router().Instances(fn)[0]), uint64(warm+1+n); h != want {
			t.Errorf("%s handled %d branches, want %d", fn, h, want)
		}
	}
}

// TestHandoffInlineFaultsAndSpans: a hop the sender runs itself goes through
// the same fault injection, retry budget and tracing as a queued one — the
// same retries are counted and the same spans recorded.
func TestHandoffInlineFaultsAndSpans(t *testing.T) {
	run := func(t *testing.T, queued bool) (retries uint64, stages map[string]int) {
		gate := make(chan struct{})
		spec := upDownSpec(FunctionSpec{}, FunctionSpec{Concurrency: 1, Handler: func(ctx *Ctx) error {
			if string(ctx.Payload()) == "hold" {
				<-gate
			}
			return nil
		}})
		spec.Injector = fault.New(7).Add(fault.Rule{Op: fault.OpQueueFull, Function: "up", Hop: "down", MaxCount: 2})
		spec.Retry = RetryPolicy{MaxAttempts: 4, BaseBackoff: 20 * time.Microsecond}
		c, g := testChain(t, ModeEvent, spec)
		open := openOnce(gate)
		t.Cleanup(open)
		tr := traceAll(c, 16)
		down := c.Router().Instances("down")[0]
		held, done := make(chan error, 1), make(chan error, 1)
		if queued {
			// Occupy down's one slot, so the hop under test finds it busy.
			go invokeTo(t, g, "direct", "hold", held)
			pollUntil(t, "down busy", func() bool { return down.Inflight() == 1 })
			go invokeTo(t, g, "", "x", done)
			pollUntil(t, "the hop under test queued", func() bool { return down.QueueDepth() == 1 })
			// up's worker records the queued hop's send span when its send
			// returns, which on a loaded host can be after down has run the
			// hop and the caller has read the trace: wait for it first.
			pollUntil(t, "up's send span recorded", func() bool { return sendSpanRecorded(tr, "up", "down") })
		} else {
			held <- nil
			go invokeTo(t, g, "", "x", done)
		}
		open()
		for _, result := range []chan error{done, held} {
			if err := <-result; err != nil {
				t.Fatal(err)
			}
		}
		if got, want := down.QueuedHops() == 1, queued; got != want {
			t.Fatalf("hop queued: %v, want %v", got, want)
		}
		waitIdle(t, tr)
		stages = map[string]int{}
		for _, trace := range tr.Retained() {
			if handlerPath(trace) != "up->down" {
				continue
			}
			for _, s := range trace.Spans {
				// Not the reply's own send span: it is recorded when the
				// send returns, after the sink has woken the caller, and
				// now and then the caller has finished the trace by then.
				if s.Stage != StageRedirect || s.Function != "gateway" {
					stages[s.Stage]++
				}
			}
		}
		return g.Stats().Retries, stages
	}
	inlineRetries, inlineStages := run(t, false)
	queuedRetries, queuedStages := run(t, true)
	if inlineRetries != 2 || queuedRetries != 2 {
		t.Errorf("retries: %d on the claimed hop, %d on the queued one; want 2 and 2", inlineRetries, queuedRetries)
	}
	for _, stage := range []string{StageRedirect, StageQueueWait, StageHandler} {
		if inlineStages[stage] == 0 || inlineStages[stage] != queuedStages[stage] {
			t.Errorf("%s spans: %d on the claimed hop, %d on the queued one", stage, inlineStages[stage], queuedStages[stage])
		}
	}
	if len(inlineStages) != len(queuedStages) {
		t.Errorf("span sets differ: claimed %v, queued %v", inlineStages, queuedStages)
	}
}

// sendSpanRecorded reports whether an in-flight trace that ran through from
// has recorded its send span to to.
func sendSpanRecorded(tr *Tracer, from, to string) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.active {
		via, sent := false, false
		for _, s := range t.Spans {
			via = via || s.Function == from
			sent = sent || (s.Stage == StageRedirect && s.Function == to)
		}
		if via && sent {
			return true
		}
	}
	return false
}

// Tests for D-SPRIGHT's consumer side: an instance's workers poll the
// instance's ring themselves, one at a time (ringQueue.next), and the one that
// took a request then follows it as a ModeEvent worker does (the by-mode tests
// above). The guards are the flag given up before the first handler runs, the
// ring's length re-read after the flag is cleared, the producer's wake when
// nobody polls, the stop that wakes every parked worker, and the claim reading
// the rings' lengths where a polled socket has no channel.

// parkedPollers counts the instance workers parked while another worker of
// their instance polls its ring.
func parkedPollers(t *testing.T) int {
	t.Helper()
	return liveGoroutines(t, func(stack []byte) bool {
		return bytes.Contains(stack, []byte("core.(*ringQueue).next")) &&
			!bytes.Contains(stack, []byte("ring.(*Ring).PollDequeueBurst"))
	})
}

// TestHandoffPollingHoldsConcurrency: exactly Concurrency handlers run at
// once and the next descriptor waits in the ring, where QueueDepth counts it,
// until one release — and nothing else — serves it; and short of the bound a
// handler that blocks does not stall the ring, because the worker that polled
// it gave the ring up first and the next arrival wakes a parked one.
func TestHandoffPollingHoldsConcurrency(t *testing.T) {
	for _, bound := range []int{1, 2, 4} {
		t.Run(strconv.Itoa(bound), func(t *testing.T) {
			parkedBase := settled(t, "earlier tests' parked workers to exit", func() int { return parkedPollers(t) })
			gate := make(chan struct{})
			var runs atomic.Int64
			spec := holdSpec(gate, &runs)
			spec.Functions[0].Concurrency = bound
			c, g := testChain(t, ModePolling, spec)
			open := openOnce(gate)
			t.Cleanup(open)
			slow := c.Router().Instances("slow")[0]
			// Every worker at its post first: one spinning, the rest parked —
			// a worker that starts late finds the ring free and hides a
			// missing wake.
			pollUntil(t, "all workers but one parked", func() bool { return parkedPollers(t) == parkedBase+bound-1 })
			results := make(chan error, bound+1)
			for held := 1; held <= bound; held++ {
				go invokeTo(t, g, "", "hold", results)
				pollUntil(t, "another handler held", func() bool { return slow.Inflight() == held })
				if held == bound {
					break
				}
				// The worker that polled the held request is inside its
				// handler; the others were parked when it went in.
				for i := 0; i < 20; i++ {
					if _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("x")); err != nil {
						t.Fatalf("%d of %d handlers blocked and the ring stalled: %v", held, bound, err)
					}
				}
			}
			before := int64(bound + 20*(bound-1))
			pollUntil(t, "every held handler entered", func() bool { return runs.Load() == before })
			go invokeTo(t, g, "", "x", results)
			pollUntil(t, "the next request waiting in the ring", func() bool { return slow.QueueDepth() == 1 })
			if slow.Inflight() != bound || runs.Load() != before {
				t.Fatalf("%d in flight, %d new runs with every slot held; want %d and 0", slow.Inflight(), runs.Load()-before, bound)
			}
			gate <- struct{}{}       // one release alone
			for i := 0; i < 2; i++ { // the released hold and the request behind it
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
			if got := runs.Load(); got != before+1 {
				t.Fatalf("%d handler runs after one release, want 1", got-before)
			}
			open()
			for i := 1; i < bound; i++ {
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
			if delivered, dropped := slow.SocketStats(); delivered != uint64(runs.Load()) || dropped != 0 {
				t.Errorf("socket counted %d delivered, %d dropped for %d handler runs", delivered, dropped, runs.Load())
			}
		})
	}
}

// TestHandoffPollingBurstWakesSecondWorker: two descriptors published back to
// back while a worker spins may draw no wake from their producer — the ring is
// being polled. The worker that takes the first finds the second behind it
// after giving the ring up, and wakes a parked worker for it rather than
// leaving it until its own handler returns.
func TestHandoffPollingBurstWakesSecondWorker(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	spec := holdSpec(gate, &runs)
	spec.Functions[0].Concurrency = 2
	spec.Functions = append(spec.Functions, FunctionSpec{Name: "twice", Handler: func(ctx *Ctx) error {
		ctx.ForwardTo("slow", "slow") // one instance: two pushes, one behind the other
		return nil
	}})
	spec.Routes = append(spec.Routes,
		RouteSpec{Topic: "twice", From: "", To: []string{"twice"}},
		RouteSpec{Topic: "twice", From: "twice", To: []string{"slow"}})
	c, g := testChain(t, ModePolling, spec)
	t.Cleanup(openOnce(gate))
	slow := c.Router().Instances("slow")[0]
	if err := g.InvokeAsync("twice", []byte("hold")); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "both branches inside the handler at once", func() bool { return slow.Inflight() == 2 })
}

// TestHandoffPollingNoLostWake: many producers against one instance, every
// request answered — first flat out, then with producers that pause and a
// handler that yields, so that arrivals keep finding the last poller inside
// its handler, the ring unpolled and the other workers parked.
func TestHandoffPollingNoLostWake(t *testing.T) {
	for _, paced := range []bool{false, true} {
		spec := echoSpec()
		spec.Functions[0].Concurrency = 4
		if paced {
			echo := spec.Functions[0].Handler
			spec.Functions[0].Handler = func(ctx *Ctx) error {
				runtime.Gosched()
				return echo(ctx)
			}
		}
		c, g := testChain(t, ModePolling, spec)
		const producers, rounds = 6, 1500
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					out, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("abc"))
					if err != nil || string(out) != "ABC" {
						t.Errorf("paced %v, producer %d round %d: %q, %v", paced, p, r, out, err)
						return
					}
					for i := 0; paced && i < p; i++ {
						runtime.Gosched()
					}
				}
			}(p)
		}
		wg.Wait()
		echo := c.Router().Instances("echo")[0]
		if delivered, dropped := echo.SocketStats(); delivered != producers*rounds || dropped != 0 || echo.QueueDepth() != 0 {
			t.Errorf("paced %v: %d delivered, %d dropped, %d left in the ring; want %d, 0, 0",
				paced, delivered, dropped, echo.QueueDepth(), producers*rounds)
		}
		for _, rs := range c.RingStats() {
			if rs.Stats.Enqueues != rs.Stats.Dequeues || rs.Stats.Fulls != 0 {
				t.Errorf("paced %v: ring %d: %+v", paced, rs.Instance, rs.Stats)
			}
		}
	}
}

// TestHandoffPollingStopAndFullRing: the stop protocol keeps its meaning when
// the queue is a ring — a stop lets the parked workers of a wedged instance go
// at once — and a full ring refuses a send with ErrSocketFull. (Reclaiming the
// backlog whichever way the instance goes: TestHandoffStopReclaimsQueued, in
// both modes.)
func TestHandoffPollingStopAndFullRing(t *testing.T) {
	t.Run("restart-wedged", func(t *testing.T) {
		// The stop itself wakes the parked workers: they leave at once, not
		// when the wedged handler lets its worker back to the ring.
		base := settledWorkers(t)
		gate := make(chan struct{})
		var runs atomic.Int64
		spec := holdSpec(gate, &runs)
		spec.Functions[0].Concurrency = 3
		c, g := testChain(t, ModePolling, spec)
		t.Cleanup(openOnce(gate))
		victim := c.Router().Instances("slow")[0]
		pollUntil(t, "the victim's workers at their posts", func() bool { return liveWorkers(t) == base+3 })
		if err := g.InvokeAsync("", []byte("hold")); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, "the handler wedged", func() bool { return victim.Inflight() == 1 })
		if _, err := c.RestartInstance(victim.ID()); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, "the victim's idle workers gone, the wedged one and the replacement's left", func() bool {
			return liveWorkers(t) == base+1+3
		})
	})
	t.Run("full-ring", func(t *testing.T) {
		gate := make(chan struct{})
		var runs atomic.Int64
		spec := holdSpec(gate, &runs)
		spec.PoolBuffers = 2 * ringDepth / descWords
		spec.Functions[0].Concurrency = 2
		c, g := testChain(t, ModePolling, spec)
		t.Cleanup(openOnce(gate))
		slow := c.Router().Instances("slow")[0]
		for i := 0; i < 2+ringDepth/descWords; i++ { // two held, the ring full behind them
			if err := g.InvokeAsync("", []byte("hold")); err != nil {
				t.Fatal(err)
			}
			if i < 2 {
				pollUntil(t, "a handler held", func() bool { return slow.Inflight() == i+1 })
			}
		}
		if err := g.InvokeAsync("", []byte("hold")); !errors.Is(err, ErrSocketFull) {
			t.Fatalf("send into a full ring: %v, want ErrSocketFull", err)
		}
	})
}

// TestHandoffPollingFaultsAndSpans: a polled hop goes through the fault
// injector and the retry budget like any other, claimed or queued, and a
// sampled request's spans say which it was: ring.enqueue and ring.wait for each
// ring it crossed — the gateway's dispatch always, the function hop only when
// its claim was refused — and sproxy.redirect for what was handed over without
// one, the claimed hop and the reply. The reply's gateway.drain starts at the
// reply's own send stamp. No queue.wait either way: there is no socket queue in
// ModePolling. (Each count fails if sendTraced names the stage before it knows
// how the send ended, or leaves the stamp of a claimed hop for the next handler
// to find; the drain's start fails if the reply is not stamped — checked by
// making each change. The reply's send span is recorded when the send returns,
// after the sink has woken the caller, and now and then the caller has finished
// the trace by then: what is asserted of it is asserted when it is there.)
func TestHandoffPollingFaultsAndSpans(t *testing.T) {
	for _, queued := range []bool{false, true} {
		gate := make(chan struct{})
		spec := upDownSpec(FunctionSpec{}, FunctionSpec{Concurrency: 1, Handler: func(ctx *Ctx) error {
			if string(ctx.Payload()) == "hold" {
				<-gate
			}
			return nil
		}})
		spec.Injector = fault.New(7).Add(fault.Rule{Op: fault.OpQueueFull, Function: "up", Hop: "down", MaxCount: 2})
		spec.Retry = RetryPolicy{MaxAttempts: 4, BaseBackoff: 20 * time.Microsecond}
		c, g := testChain(t, ModePolling, spec)
		open := openOnce(gate)
		t.Cleanup(open)
		tr := traceAll(c, 16)
		down := c.Router().Instances("down")[0]
		held, done := make(chan error, 1), make(chan error, 1)
		want := map[string]int{
			StageEnqueue: 1, StageRingWait: 1, StageRedirect: 1, // gateway → up; up → down claimed
			StageHandler: 2, StageDrain: 1, StageQueueWait: 0,
		}
		if queued {
			// Occupy down's one slot, so the hop under test finds it busy.
			go invokeTo(t, g, "direct", "hold", held)
			pollUntil(t, "down busy", func() bool { return down.Inflight() == 1 })
			go invokeTo(t, g, "", "x", done)
			pollUntil(t, "the hop under test queued", func() bool { return down.QueueDepth() == 1 })
			want[StageEnqueue], want[StageRingWait], want[StageRedirect] = 2, 2, 0
		} else {
			held <- nil
			go invokeTo(t, g, "", "x", done)
		}
		open()
		for _, result := range []chan error{done, held} {
			if err := <-result; err != nil {
				t.Fatal(err)
			}
		}
		if got := down.QueuedHops() == 1; got != queued {
			t.Fatalf("hop queued: %v, want %v", got, queued)
		}
		if got := g.Stats().Retries; got != 2 {
			t.Errorf("queued %v: %d retries for two injected refusals", queued, got)
		}
		waitIdle(t, tr)
		stages := map[string]int{}
		var replySent, drainFrom int64
		for _, trace := range tr.Retained() {
			if handlerPath(trace) != "up->down" {
				continue
			}
			for _, s := range trace.Spans {
				switch {
				case s.Stage == StageRedirect && s.Function == "gateway":
					replySent = s.Start.UnixNano()
					continue
				case s.Stage == StageDrain:
					drainFrom = s.Start.UnixNano()
				}
				stages[s.Stage]++
			}
		}
		for stage, n := range want {
			if stages[stage] != n {
				t.Errorf("queued %v: %d %s spans, want %d (all: %v)", queued, stages[stage], stage, n, stages)
			}
		}
		if replySent != 0 && drainFrom != replySent {
			t.Errorf("queued %v: gateway.drain starts at %d, the reply was sent at %d", queued, drainFrom, replySent)
		}
	}
}

// TestHandoffPollingQueuedWorkRefusesClaim: a descriptor waiting in the
// destination's ring is not overtaken — the hop queues behind it though the
// instance has every slot free. (Fails if the claim does not ask the
// destination's queue whether it is idle: the claim is granted and the hop
// counted as claimed. Checked by making that change.)
func TestHandoffPollingQueuedWorkRefusesClaim(t *testing.T) {
	gate := make(chan struct{})
	var runs instanceRuns
	spec := upDownSpec(FunctionSpec{}, FunctionSpec{Concurrency: 2, Handler: runs.count(nil)})
	spec.Functions = append(spec.Functions, FunctionSpec{Name: "tail", Handler: func(ctx *Ctx) error {
		if string(ctx.Payload()) == "hold" {
			<-gate
		}
		return nil
	}})
	spec.Routes = append(spec.Routes, RouteSpec{From: "down", To: []string{"tail"}})
	c, g := testChain(t, ModePolling, spec)
	open := openOnce(gate)
	t.Cleanup(open)
	down, tail := c.Router().Instances("down")[0], c.Router().Instances("tail")[0]
	results := make(chan error, 4)
	// Both of down's workers away from its ring, and out of its slots: each
	// followed a request into tail's handler and is held there.
	for i := 1; i <= 2; i++ {
		go invokeTo(t, g, "direct", "hold", results)
		pollUntil(t, "one of down's workers inside tail's handler", func() bool { return tail.Inflight() == i })
	}
	if down.Inflight() != 0 || down.QueueDepth() != 0 || tail.QueuedHops() != 0 {
		t.Fatalf("down: %d in flight, %d queued; tail: %d hops queued; want an idle down whose workers claimed tail",
			down.Inflight(), down.QueueDepth(), tail.QueuedHops())
	}
	go invokeTo(t, g, "direct", "x", results)
	pollUntil(t, "a request waiting in down's ring", func() bool { return down.QueueDepth() == 1 })
	go invokeTo(t, g, "", "x", results)
	pollUntil(t, "the hop queued behind it", func() bool { return down.QueueDepth() == 2 && down.QueuedHops() == 1 })
	if runs.of(down) != 2 {
		t.Fatalf("down handled %d requests, want 2: the claim overtook the queued request", runs.of(down))
	}
	open()
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandoffPollingHeadAwayDownstream: the head's worker gives its ring up
// before its first handler and is away for the whole chain it follows, here
// held three hops downstream. A descriptor published to the head's ring
// meanwhile wakes a parked worker if the head has one, which takes the request
// through; with Concurrency 1 it waits in the ring, and is served when the
// worker comes home. Nothing is lost either way. (Fails if take keeps the
// polling flag until the worker is back: the producer sees a ring somebody
// polls, wakes nobody, and the second request waits for the first. Checked by
// making that change.)
func TestHandoffPollingHeadAwayDownstream(t *testing.T) {
	for _, conc := range []int{2, 1} {
		t.Run(strconv.Itoa(conc), func(t *testing.T) {
			gate := make(chan struct{})
			var ranOn sync.Map // payload + function → goroutine
			note := func(ctx *Ctx) { ranOn.Store(string(ctx.Payload())+"@"+ctx.FunctionName(), goid()) }
			pass := func(ctx *Ctx) error { note(ctx); return nil }
			spec := ChainSpec{
				Functions: []FunctionSpec{
					{Name: "head", Concurrency: conc, Handler: pass},
					{Name: "a", Handler: pass}, {Name: "b", Handler: pass},
					{Name: "c", Handler: func(ctx *Ctx) error {
						note(ctx)
						if string(ctx.Payload()) == "hold" {
							<-gate
						}
						return nil
					}},
				},
				Routes: []RouteSpec{
					{From: "", To: []string{"head"}}, {From: "head", To: []string{"a"}},
					{From: "a", To: []string{"b"}}, {From: "b", To: []string{"c"}},
				},
			}
			chain, g := testChain(t, ModePolling, spec)
			open := openOnce(gate)
			t.Cleanup(open)
			head := chain.Router().Instances("head")[0]
			first, second := make(chan error, 1), make(chan error, 1)
			ran := func(key string) uint64 { v, _ := ranOn.Load(key); id, _ := v.(uint64); return id }
			go invokeTo(t, g, "", "hold", first)
			pollUntil(t, "the first request held inside c", func() bool { return ran("hold@c") != 0 })
			if ran("hold@c") != ran("hold@head") {
				t.Fatal("the first request changed goroutine on its way to c: the head's worker did not follow it")
			}
			go invokeTo(t, g, "", "x", second)
			if conc == 1 {
				pollUntil(t, "the second request waiting in the head's ring", func() bool { return head.QueueDepth() == 1 })
				select {
				case err := <-second:
					t.Fatalf("the second request finished (%v) with the head's only worker held downstream", err)
				default:
				}
				open()
			}
			if err := <-second; err != nil {
				t.Fatal(err)
			}
			if conc == 2 && (ran("x@head") == ran("hold@head") || ran("x@c") != ran("x@head")) {
				t.Error("the second request was not taken through by the head's other worker")
			}
			open()
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			if delivered, dropped := head.SocketStats(); delivered != 2 || dropped != 0 || head.QueueDepth() != 0 {
				t.Errorf("head: %d delivered, %d dropped, %d left in the ring; want 2, 0, 0", delivered, dropped, head.QueueDepth())
			}
		})
	}
}

// TestHandoffReplyIntoClosedGatewaySocket: the reply is a delivery in both
// modes, so a gateway socket that closed under a request fails the replying
// worker, whose error path gives the buffer back and fails the caller — once,
// with ErrSocketClosed, and not as a queue's reclaimed orphan. (Fails if
// Instance.reply's error path drops its releaseBuffer — the teardown's
// LeakCheck — or its notifyFailure — the callers run into their deadline.
// Checked by making each change.)
func TestHandoffReplyIntoClosedGatewaySocket(t *testing.T) {
	bothModes(t, replyIntoClosedGatewaySocket)
}

func replyIntoClosedGatewaySocket(t *testing.T, mode Mode) {
	gate := make(chan struct{})
	var runs atomic.Int64
	spec := holdSpec(gate, &runs)
	const callers = 4
	spec.Functions[0].Concurrency = callers
	c, g := testChain(t, mode, spec)
	open := openOnce(gate)
	t.Cleanup(open)
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
	pollUntil(t, "every request inside the handler", func() bool { return runs.Load() == callers })
	g.sock.Close()
	open()
	wg.Wait()
	close(outcomes)
	n := 0
	for err := range outcomes {
		n++
		if !errors.Is(err, ErrSocketClosed) {
			t.Errorf("caller got %v, want ErrSocketClosed", err)
		}
	}
	fs := g.Stats()
	if n != callers || g.Stats().Pending != 0 || fs.TerminalFailures != callers || fs.Reclaimed != 0 {
		t.Errorf("%d outcomes, %d pending, %d terminal failures, %d reclaimed; want %d, 0, %d, 0",
			n, g.Stats().Pending, fs.TerminalFailures, fs.Reclaimed, callers, callers)
	}
	if delivered, _ := g.SocketStats(); delivered != 0 {
		t.Errorf("the closed socket counted %d deliveries", delivered)
	}
	pollUntil(t, "every buffer back", func() bool { return c.Pool().InUse() == 0 })
}

// polledSocket is a socket with a ModePolling instance's queue and no instance:
// the test is the ring's consumer, through next, and reclaim sees what the ring
// still holds when it stops.
func polledSocket(id uint32, reclaim func(shm.Descriptor)) *Socket {
	return &Socket{id: id, q: newRingQueue(reclaim, func(shm.Descriptor) time.Duration { return 0 })}
}

// TestHandoffPollingSnapshotVisibility: the ring transport's tables are
// snapshots read without a lock, and the rule of TestHandoffSnapshotVisibility
// holds for them — once RegisterSocket, Allow or UnregisterSocket has returned,
// the next send sees it, while other goroutines keep sending through the same
// tables (to a sink, which keeps nothing).
func TestHandoffPollingSnapshotVisibility(t *testing.T) {
	tr := newRingTransport()
	const bgID, id = 1, 2
	bg := newSinkSocket(bgID, func(shm.Descriptor) {})
	if err := tr.RegisterSocket(bg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Allow(GatewayID, bgID); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var senders sync.WaitGroup
	for w := 0; w < 3; w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tr.Send(GatewayID, shm.Descriptor{NextFn: bgID}); err != nil {
					t.Errorf("background send: %v", err)
					return
				}
			}
		}()
	}
	defer func() { close(stop); senders.Wait() }()

	d := shm.Descriptor{NextFn: id, Caller: 7}
	for i := 0; i < 200; i++ {
		s := polledSocket(id, func(shm.Descriptor) { t.Error("a descriptor left in the ring") })
		if err := tr.Send(GatewayID, d); !errors.Is(err, ErrNoSuchFn) {
			t.Fatalf("round %d: send before RegisterSocket: %v, want ErrNoSuchFn", i, err)
		}
		if err := tr.RegisterSocket(s); err != nil {
			t.Fatal(err)
		}
		// (An allowed edge outlives the socket it led to, as a filter rule
		// does: only the first round can see it missing.)
		if i == 0 {
			if err := tr.Send(GatewayID, d); !errors.Is(err, ErrFiltered) {
				t.Fatalf("send before Allow: %v, want ErrFiltered", err)
			}
		}
		if err := tr.Allow(GatewayID, id); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(GatewayID, d); err != nil {
			t.Fatalf("round %d: send after Allow: %v", i, err)
		}
		if got, ok := s.next(); !ok || got != d {
			t.Fatalf("round %d: descriptor corrupted: %+v, %v", i, got, ok)
		}
		if err := tr.UnregisterSocket(id); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(GatewayID, d); !errors.Is(err, ErrNoSuchFn) {
			t.Fatalf("round %d: send after UnregisterSocket returned: %v, want ErrNoSuchFn", i, err)
		}
		s.Close()
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/shm"
)

// Tests for the rule that whoever takes a request's pending entry finishes
// the request on its own goroutine, and for the lifecycle of the goroutines
// that poll a ModePolling chain's rings. The TestHandoff prefix puts them
// in `make race-stress`.

// liveSpinners counts the goroutines busy-polling a D-SPRIGHT ring, and how
// many of them are something other than an instance's worker.
func liveSpinners(t *testing.T) (spinning, foreign int) {
	t.Helper()
	spinning = liveGoroutines(t, func(stack []byte) bool {
		return bytes.Contains(stack, []byte("ring.(*Ring).PollDequeueBurst"))
	})
	foreign = liveGoroutines(t, func(stack []byte) bool {
		return bytes.Contains(stack, []byte("ring.(*Ring).PollDequeueBurst")) &&
			!bytes.Contains(stack, []byte("core.(*Instance).work"))
	})
	return spinning, foreign
}

// TestHandoffPollersFollowTheirSockets: on an idle ModePolling chain exactly
// one goroutine spins per live instance socket — one of the instance's own
// workers (routable or prewarmed), the rest of them parked — and none for the
// gateway, whose replies are finished by the workers that send them; and a
// socket that leaves — RestartInstance, ScaleDown, ScaleToZero,
// DiscardPrewarmed — takes its spinner and its parked workers with it instead
// of leaving them on a dead ring until the chain closes.
func TestHandoffPollersFollowTheirSockets(t *testing.T) {
	baseSpin := settled(t, "earlier tests' spinners to exit", func() int { n, _ := liveSpinners(t); return n })
	baseWorkers := settledWorkers(t)

	const conc = 3
	spec := echoSpec()
	spec.Functions[0].Instances = 2
	spec.Functions[0].Concurrency = conc
	c, g := testChain(t, ModePolling, spec)
	wantSpinners := func(prewarmed int) {
		t.Helper()
		sockets := len(c.Instances()) + prewarmed
		pollUntil(t, "one spinner per live instance socket, each a worker of its instance", func() bool {
			spin, foreign := liveSpinners(t)
			return spin == baseSpin+sockets && foreign == 0 &&
				liveWorkers(t) == baseWorkers+conc*sockets
		})
	}
	invoke := func() {
		t.Helper()
		out, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("ping"))
		if err != nil || string(out) != "PING" {
			t.Fatalf("invoke: %q, %v", out, err)
		}
	}
	wantSpinners(0)
	invoke()

	for i := 0; i < 6; i++ {
		victim := c.Router().Instances("echo")[i%2]
		if _, err := c.RestartInstance(victim.ID()); err != nil {
			t.Fatal(err)
		}
		invoke()
	}
	wantSpinners(0)

	if err := c.ScaleDown("echo"); err != nil {
		t.Fatal(err)
	}
	invoke()
	wantSpinners(0)

	pw, err := c.Prewarm("echo")
	if err != nil {
		t.Fatal(err)
	}
	wantSpinners(1)
	c.DiscardPrewarmed(pw)
	wantSpinners(0)

	if n, err := c.ScaleToZero("echo"); err != nil || n != 1 {
		t.Fatalf("ScaleToZero: %d, %v", n, err)
	}
	wantSpinners(0) // none: the gateway has no ring to spin on

	if _, err := c.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	invoke()
	wantSpinners(0)
	g.Close()
	c.Close()
	pollUntil(t, "no spinner to outlive Chain.Close", func() bool {
		spin, _ := liveSpinners(t)
		return spin == baseSpin && liveWorkers(t) == baseWorkers
	})
	// Pool.LeakCheck: testChain's cleanup.
}

// TestHandoffAbandonRacesCompletion cancels requests at random offsets
// around the moment their reply completes. Every call ends in exactly one of
// {verified reply, context error, refusal at admission}; a completion that won the race for the
// entry has finished writing dst before InvokeInto returns (a canary written
// right after the return survives); nothing stays pending and every buffer
// comes back.
func TestHandoffAbandonRacesCompletion(t *testing.T) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			c, g := testChain(t, mode, echoSpec())
			// How long a request takes here, so the deadlines straddle it.
			start := time.Now()
			for i := 0; i < 200; i++ {
				if _, err := g.Invoke(context.Background(), "", []byte("warm")); err != nil {
					t.Fatal(err)
				}
			}
			typical := time.Since(start) / 200

			const callers, rounds = 4, 1500
			var replies, abandoned, refused atomic.Int64
			var wg sync.WaitGroup
			for id := 0; id < callers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					payload := bytes.Repeat([]byte{'a' + byte(id)}, 2048)
					want := bytes.ToUpper(payload)
					canary := bytes.Repeat([]byte{0xA5}, len(payload))
					// Two destinations in turn: the one an abandoned call
					// used is checked a full request later.
					var dsts [2][]byte
					var armed [2]bool
					for i := range dsts {
						dsts[i] = make([]byte, len(payload))
					}
					for r := 0; r < rounds; r++ {
						dst := dsts[r%2]
						if armed[r%2] && !bytes.Equal(dst, canary) {
							t.Errorf("caller %d round %d: dst written after InvokeInto returned", id, r)
							return
						}
						armed[r%2] = false
						ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Int63n(int64(4*typical)+1)))
						n, err := g.InvokeInto(ctx, "", payload, dst)
						cancel()
						switch {
						case err == nil:
							if !bytes.Equal(dst[:n], want) {
								t.Errorf("caller %d round %d: reply of %d bytes does not verify", id, r, n)
								return
							}
							replies.Add(1)
						case errors.Is(err, context.DeadlineExceeded):
							copy(dst, canary)
							armed[r%2] = true
							abandoned.Add(1)
						case errors.Is(err, ErrBackpressure):
							// Abandoned requests still hold their buffers
							// until the chain has run them; let it catch up.
							refused.Add(1)
							time.Sleep(time.Millisecond)
						default:
							t.Errorf("caller %d round %d: %v", id, r, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			t.Logf("typical %v: %d replies, %d abandoned, %d refused", typical, replies.Load(), abandoned.Load(), refused.Load())
			if n := replies.Load() + abandoned.Load() + refused.Load(); n != callers*rounds && !t.Failed() {
				t.Errorf("%d outcomes for %d calls", n, callers*rounds)
			}
			if g.Stats().Pending != 0 || pendingEntries(g) != 0 {
				t.Errorf("pending after the storm: count %d, table %d", g.Stats().Pending, pendingEntries(g))
			}
			pollUntil(t, "late replies reclaimed", func() bool { return c.Pool().InUse() == 0 })
		})
	}
}

// TestHandoffGatewayStartsNoConsumers: a gateway owns one goroutine, its
// metrics agent; replies are completed by whoever delivers them. Callers
// parked in Invoke are the only other goroutines inside the gateway.
func TestHandoffGatewayStartsNoConsumers(t *testing.T) {
	inGateway := func(stack []byte) bool { return bytes.Contains(stack, []byte("core.(*Gateway).")) }
	base := settled(t, "earlier tests' gateways to stop", func() int { return liveGoroutines(t, inGateway) })
	gate := make(chan struct{})
	var runs atomic.Int64
	spec := holdSpec(gate, &runs)
	spec.Functions[0].Concurrency = 8
	_, g := testChain(t, ModeEvent, spec)
	pollUntil(t, "the metrics agent to start", func() bool { return liveGoroutines(t, inGateway)-base >= 1 })
	if n := liveGoroutines(t, inGateway) - base; n != 1 {
		t.Errorf("idle gateway runs %d goroutines, want 1 (the metrics agent)", n)
	}
	const callers = 6
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("hold")); err != nil {
				t.Error(err)
			}
		}()
	}
	pollUntil(t, "all callers parked", func() bool { return g.Stats().Pending == callers })
	if n := liveGoroutines(t, inGateway) - base; n != 1+callers {
		t.Errorf("%d goroutines inside the gateway with %d callers parked, want %d", n, callers, 1+callers)
	}
	close(gate)
	wg.Wait()
}

// respondTo collects what a remote-originated request's Responder is told.
type respondTo chan error

func (r respondTo) Respond(_ RemoteOrigin, _ []byte, err error) { r <- err }

// TestRemoteDeadlineFiresBeforeRegistration: the chain Deadline of a request a
// peer forwarded here is armed inside the pending table's critical section, so
// even a timer that fires at once finds the entry it is to expire. With a
// 1 ns Deadline and the handler held, every request is answered with
// DeadlineExceeded by the timer — nothing else can answer it — and once the
// handlers are let go the late replies give every buffer back.
func TestRemoteDeadlineFiresBeforeRegistration(t *testing.T) {
	const requests = 200
	gate := make(chan struct{})
	var runs atomic.Int64
	spec := holdSpec(gate, &runs)
	spec.Deadline = time.Nanosecond
	spec.PoolBuffers = 2 * requests
	spec.Functions[0].Concurrency = requests
	c, g := testChain(t, ModeEvent, spec)
	open := openOnce(gate)
	t.Cleanup(open)

	answers := make(respondTo, requests)
	for i := 0; i < requests; i++ {
		origin := RemoteOrigin{Node: "peer", Chain: c.Name(), Caller: uint32(i + 1)}
		if err := g.InvokeRemote("slow", "", []byte("hold"), nil, shm.TraceContext{}, origin, answers); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	patience := time.After(10 * time.Second)
	for i := 0; i < requests; i++ {
		select {
		case err := <-answers:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("answer %d: %v, want DeadlineExceeded", i, err)
			}
		case <-patience:
			t.Fatalf("%d of %d requests never expired: their timers fired before their entries were registered", requests-i, requests)
		}
	}
	if g.Stats().Pending != 0 || pendingEntries(g) != 0 {
		t.Errorf("pending after every deadline: count %d, table %d", g.Stats().Pending, pendingEntries(g))
	}
	if fs := g.Stats(); fs.DeadlinesExceeded != requests {
		t.Errorf("%d deadlines counted, want %d", fs.DeadlinesExceeded, requests)
	}
	open()
	pollUntil(t, "the late replies to give the buffers back", func() bool { return c.Pool().InUse() == 0 })
	select {
	case err := <-answers:
		t.Errorf("a request was answered twice: %v", err)
	default:
	}
	// Pool.LeakCheck: testChain's cleanup.
}

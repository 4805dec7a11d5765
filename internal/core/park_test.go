package core

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/shm"
)

// admissionEchoSpec is echoSpec plus an explicit admission policy.
func admissionEchoSpec(p AdmissionPolicy) ChainSpec {
	spec := echoSpec()
	spec.Admission = p
	return spec
}

// waitUntil polls cond up to the deadline; failing the test on timeout.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestScaleToZeroRemovesAllInstances(t *testing.T) {
	c, _ := testChain(t, ModeEvent, echoSpec())
	if _, err := c.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	n, err := c.ScaleToZero("echo")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d instances, want 2", n)
	}
	if got := len(c.Router().Instances("echo")); got != 0 {
		t.Fatalf("router still sees %d instances", got)
	}
}

func TestZeroReplicaWithoutParkingFailsFast(t *testing.T) {
	// Legacy behavior: no admission policy means no parking — a request
	// hitting a zero-replica function fails with ErrNoInstance.
	c, g := testChain(t, ModeEvent, echoSpec())
	if _, err := c.ScaleToZero("echo"); err != nil {
		t.Fatal(err)
	}
	_, err := g.Invoke(contextWithTimeout(t, 2*time.Second), "", []byte("x"))
	if !errors.Is(err, ErrNoInstance) {
		t.Fatalf("got %v, want ErrNoInstance", err)
	}
}

func TestParkedRequestResumesOnScaleUp(t *testing.T) {
	c, g := testChain(t, ModeEvent, admissionEchoSpec(AdmissionPolicy{
		ParkCapacity: 8,
		ParkTimeout:  5 * time.Second,
	}))
	if _, err := c.ScaleToZero("echo"); err != nil {
		t.Fatal(err)
	}

	type res struct {
		out []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("cold"))
		done <- res{out, err}
	}()

	// The request must park, not fail.
	waitUntil(t, 2*time.Second, "request to park", func() bool {
		return g.ParkedFor("echo") == 1
	})

	// Capacity arrives: the chain's scale notifier wakes the parked request.
	if _, err := c.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("parked request failed: %v", r.err)
	}
	if string(r.out) != "COLD" {
		t.Fatalf("got %q want COLD", r.out)
	}

	s := g.Stats()
	if s.ParkedTotal != 1 || s.Resumed != 1 {
		t.Fatalf("parked_total=%d resumed=%d, want 1/1", s.ParkedTotal, s.Resumed)
	}
	if s.Parked != 0 {
		t.Fatalf("park queue not drained: %d", s.Parked)
	}
	if g.ColdStartLatency().Count() != 1 {
		t.Fatalf("cold-start histogram count %d, want 1", g.ColdStartLatency().Count())
	}
	if p99 := g.ColdStartLatency().Quantile(0.99); p99 <= 0 {
		t.Fatalf("cold-start p99 %v, want > 0", p99)
	}
}

func TestParkTimeoutShedsWithReason(t *testing.T) {
	c, g := testChain(t, ModeEvent, admissionEchoSpec(AdmissionPolicy{
		ParkCapacity: 8,
		ParkTimeout:  30 * time.Millisecond,
	}))
	if _, err := c.ScaleToZero("echo"); err != nil {
		t.Fatal(err)
	}
	_, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("x"))
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedParkTimeout {
		t.Fatalf("got %v, want reason %q", err, ShedParkTimeout)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry-after %v, want > 0", oe.RetryAfter)
	}
	s := g.Stats()
	if s.ShedParkTimeout != 1 {
		t.Fatalf("shed_park_timeout=%d, want 1", s.ShedParkTimeout)
	}
	if s.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1 (shed must count as rejection)", s.Rejected)
	}
}

func TestParkRespectsContextDeadline(t *testing.T) {
	// A generous ParkTimeout must still be clipped to the request's own
	// deadline: the caller's budget wins.
	c, g := testChain(t, ModeEvent, admissionEchoSpec(AdmissionPolicy{
		ParkCapacity: 8,
		ParkTimeout:  time.Minute,
	}))
	if _, err := c.ScaleToZero("echo"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := g.Invoke(contextWithTimeout(t, 50*time.Millisecond), "", []byte("x"))
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("waited %v, deadline clipping failed", waited)
	}
}

func TestParkQueueFullSheds(t *testing.T) {
	c, g := testChain(t, ModeEvent, admissionEchoSpec(AdmissionPolicy{
		ParkCapacity: 1,
		ParkTimeout:  5 * time.Second,
	}))
	if _, err := c.ScaleToZero("echo"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("first"))
		done <- err
	}()
	waitUntil(t, 2*time.Second, "first request to park", func() bool {
		return g.Stats().Parked == 1
	})

	// The queue is at capacity: the second request sheds immediately.
	_, err := g.Invoke(contextWithTimeout(t, 2*time.Second), "", []byte("second"))
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedParkFull {
		t.Fatalf("got %v, want reason %q", err, ShedParkFull)
	}
	if s := g.Stats(); s.ShedParkFull != 1 {
		t.Fatalf("shed_park_full=%d, want 1", s.ShedParkFull)
	}

	if _, err := c.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked request failed after scale-up: %v", err)
	}
}

func TestMaxPendingShedsOverload(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "slow",
			Handler: func(ctx *Ctx) error {
				<-block
				return nil
			},
		}},
		Routes:    []RouteSpec{{From: "", To: []string{"slow"}}},
		Admission: AdmissionPolicy{MaxPending: 1, RetryAfter: 2 * time.Second},
	}
	_, g := testChain(t, ModeEvent, spec)

	done := make(chan error, 1)
	go func() {
		_, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("a"))
		done <- err
	}()
	waitUntil(t, 2*time.Second, "first request to pend", func() bool {
		return g.Stats().Pending == 1
	})

	_, err := g.Invoke(contextWithTimeout(t, 2*time.Second), "", []byte("b"))
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ShedOverload {
		t.Fatalf("got %v, want reason %q", err, ShedOverload)
	}
	if oe.RetryAfter != 2*time.Second {
		t.Fatalf("retry-after %v, want configured 2s", oe.RetryAfter)
	}
	s := g.Stats()
	if s.ShedOverload != 1 || s.Rejected != 1 {
		t.Fatalf("shed_overload=%d rejected=%d, want 1/1", s.ShedOverload, s.Rejected)
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

func TestServeHTTPShedsWith503AndRetryAfter(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "slow",
			Handler: func(ctx *Ctx) error {
				<-block
				return nil
			},
		}},
		Routes:    []RouteSpec{{From: "", To: []string{"slow"}}},
		Admission: AdmissionPolicy{MaxPending: 1},
	}
	_, g := testChain(t, ModeEvent, spec)

	done := make(chan error, 1)
	go func() {
		_, err := g.Invoke(contextWithTimeout(t, 10*time.Second), "", []byte("a"))
		done <- err
	}()
	waitUntil(t, 2*time.Second, "first request to pend", func() bool {
		return g.Stats().Pending == 1
	})

	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader("b"))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("shed response must carry a Retry-After header")
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

func TestPrewarmActivateServes(t *testing.T) {
	c, g := testChain(t, ModeEvent, echoSpec())
	before := len(c.Router().Instances("echo"))

	pw, err := c.Prewarm("echo")
	if err != nil {
		t.Fatal(err)
	}
	// Prewarmed instances must not be routable until activated.
	if got := len(c.Router().Instances("echo")); got != before {
		t.Fatalf("router sees %d instances, want %d (prewarmed must be invisible)", got, before)
	}

	inst, err := c.Activate(pw)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Router().Instances("echo")); got != before+1 {
		t.Fatalf("router sees %d instances after activate, want %d", got, before+1)
	}
	if _, err := c.Activate(pw); err == nil {
		t.Fatal("double activation must fail")
	}

	// Saturate so the activated instance demonstrably serves (edges were
	// re-authorized on activation).
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("hi")); err != nil || string(out) != "HI" {
				t.Errorf("invoke: %q, %v", out, err)
			}
		}()
	}
	wg.Wait()
	_ = inst
}

func TestPrewarmDiscard(t *testing.T) {
	c, _ := testChain(t, ModeEvent, echoSpec())
	pw, err := c.Prewarm("echo")
	if err != nil {
		t.Fatal(err)
	}
	c.DiscardPrewarmed(pw)
	if _, err := c.Activate(pw); err == nil {
		t.Fatal("activating a discarded instance must fail")
	}
	if got := len(c.Router().Instances("echo")); got != 1 {
		t.Fatalf("router sees %d instances, want 1", got)
	}
}

func TestParkedRequestResumesViaPrewarmedActivation(t *testing.T) {
	// The full cold-start mitigation path: function at zero, request parks,
	// a prewarmed instance activates (as the orchestrator's prewarm pool
	// would), and the parked request completes without ever seeing an error.
	c, g := testChain(t, ModeEvent, admissionEchoSpec(AdmissionPolicy{
		ParkCapacity: 8,
		ParkTimeout:  5 * time.Second,
	}))
	pw, err := c.Prewarm("echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScaleToZero("echo"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("x"))
		done <- err
	}()
	waitUntil(t, 2*time.Second, "request to park", func() bool {
		return g.ParkedFor("echo") == 1
	})

	if _, err := c.Activate(pw); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked request failed after prewarmed activation: %v", err)
	}
	if s := g.Stats(); s.Resumed != 1 {
		t.Fatalf("resumed=%d, want 1", s.Resumed)
	}
}

// TestGatewayStartNoReplyParksOffTheReceiveLoop: a fire-and-forget frame from a
// peer arrives on the mesh's receive loop, which InvokeRemote must never
// block — every later frame from that peer, other requests' responses
// included, waits behind it. So a request that has to park on a zero-replica
// function parks on a goroutine of its own: InvokeRemote has returned while
// the request is still parked, and the parked request then ends like any
// other — run by the capacity that arrives, shed once as ShedParkTimeout when
// none does, or turned away by Close — with its buffer back each time.
func TestGatewayStartNoReplyParksOffTheReceiveLoop(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		ends := map[string]struct {
			timeout time.Duration
			end     func(t *testing.T, c *Chain, g *Gateway, ran *atomic.Int64)
		}{
			"ScaleUp runs it": {10 * time.Second, func(t *testing.T, c *Chain, g *Gateway, ran *atomic.Int64) {
				if _, err := c.ScaleUp("echo"); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, 5*time.Second, "the handler to run", func() bool { return ran.Load() == 1 })
				if s := g.Stats(); s.ParkedTotal != 1 || s.Resumed != 1 || s.Rejected != 0 {
					t.Errorf("parked %d, resumed %d, rejected %d; want 1, 1, 0", s.ParkedTotal, s.Resumed, s.Rejected)
				}
			}},
			"no capacity sheds it": {50 * time.Millisecond, func(t *testing.T, _ *Chain, g *Gateway, ran *atomic.Int64) {
				waitUntil(t, 5*time.Second, "the park to time out", func() bool { return g.Stats().ShedParkTimeout == 1 })
				if s := g.Stats(); s.Rejected != 1 || s.Resumed != 0 || ran.Load() != 0 {
					t.Errorf("rejected %d, resumed %d, handler runs %d; want one ShedParkTimeout and nothing else", s.Rejected, s.Resumed, ran.Load())
				}
			}},
			"Close ends it": {10 * time.Second, func(t *testing.T, _ *Chain, g *Gateway, ran *atomic.Int64) {
				g.Close()
				if s := g.Stats(); s.Rejected != 0 || ran.Load() != 0 {
					t.Errorf("rejected %d, handler runs %d after Close; want 0, 0", s.Rejected, ran.Load())
				}
			}},
		}
		for name, tc := range ends {
			t.Run(name, func(t *testing.T) {
				var ran atomic.Int64
				spec := admissionEchoSpec(AdmissionPolicy{ParkCapacity: 8, ParkTimeout: tc.timeout})
				echo := spec.Functions[0].Handler
				spec.Functions[0].Handler = func(ctx *Ctx) error { ran.Add(1); return echo(ctx) }
				c, g := testChain(t, mode, spec)
				if _, err := c.ScaleToZero("echo"); err != nil {
					t.Fatal(err)
				}
				// A call that parks inline returns only when the park has ended,
				// and for the two that end badly with the park's error.
				if err := g.InvokeRemote("echo", "", []byte("event"), nil, shm.TraceContext{}, RemoteOrigin{}, nil); err != nil {
					t.Fatalf("InvokeRemote: %v", err)
				}
				if tc.timeout > time.Second {
					waitUntil(t, 5*time.Second, "the request to park", func() bool { return g.ParkedFor("echo") == 1 })
				}
				tc.end(t, c, g, &ran)
				waitUntil(t, 5*time.Second, "the park to end with the buffer back", func() bool {
					return g.Stats().Parked == 0 && c.Pool().InUse() == 0
				})
				if n := g.Stats().ParkedTotal; n != 1 {
					t.Errorf("%d requests parked, want 1", n)
				}
				// Pool.LeakCheck: testChain's cleanup.
			})
		}
	})
}

package core

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/proto"
	"github.com/spright-go/spright/internal/shm"
)

// pendingEntries counts the waiters registered in a gateway's pending table
// across all shards: a finished request leaves none behind.
func pendingEntries(g *Gateway) int {
	n := 0
	for i := range g.pending.shards {
		s := &g.pending.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// TestLateResponseReleasedNotLeaked: when a caller abandons a request
// (context cancelled) and the response arrives afterwards, the gateway
// must release the buffer and account the orphan instead of leaking.
func TestLateResponseReleasedNotLeaked(t *testing.T) {
	release := make(chan struct{})
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:    "slow",
			Handler: func(ctx *Ctx) error { <-release; return nil },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"slow"}}},
	}
	c, g := testChain(t, ModeEvent, spec)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Invoke(ctx, "", []byte("x"))
		errCh <- err
	}()
	// wait for the request to be in flight, then abandon it
	deadline := time.Now().Add(2 * time.Second)
	for c.Pool().Stats().InUse == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	// let the handler complete: the late reply goes to a forgotten caller
	close(release)
	deadline = time.Now().Add(2 * time.Second)
	for c.Pool().Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatal("late response leaked its buffer")
		}
		time.Sleep(time.Millisecond)
	}
	cnt, errs := c.Errors()
	if cnt == 0 {
		t.Fatal("orphaned response must be recorded")
	}
	found := false
	for _, e := range errs {
		if errors.Is(e, ErrNoWaiter) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want ErrNoWaiter in %v", errs)
	}
	if g.Stats().Reclaimed == 0 {
		t.Fatal("late response must be counted as a reclaimed orphan")
	}
}

// TestCancellationForgetsCallerSlot: abandoning a request must remove its
// entry from the gateway's pending-caller map immediately — a map that
// grows with every cancelled request is a slot leak even if the buffers
// are reclaimed.
func TestCancellationForgetsCallerSlot(t *testing.T) {
	release := make(chan struct{})
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:    "slow",
			Handler: func(ctx *Ctx) error { <-release; return nil },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"slow"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	defer close(release)

	const abandoned = 8
	for i := 0; i < abandoned; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			_, err := g.Invoke(ctx, "", []byte("x"))
			errCh <- err
		}()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if pendingEntries(g) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("request never registered a pending slot")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("want Canceled, got %v", err)
		}
		if pending := pendingEntries(g); pending != 0 {
			t.Fatalf("cancelled request left %d pending slot(s)", pending)
		}
	}
	// handlers are still blocked holding the buffers: InUse > 0 here is
	// expected; the testChain cleanup asserts they drain after release.
	if c.Pool().InUse() == 0 {
		t.Fatal("test expected abandoned requests to still be in flight")
	}
}

func TestGatewayHTTPStatusCodes(t *testing.T) {
	block := make(chan struct{})
	spec := ChainSpec{
		PoolBuffers: 1,
		Functions: []FunctionSpec{{
			Name:    "hold",
			Handler: func(ctx *Ctx) error { <-block; return nil },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"hold"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	srv := httptest.NewServer(g)
	defer srv.Close()
	// LIFO: unblock the held handler before srv.Close waits for its
	// outstanding request.
	defer close(block)

	// first request occupies the single buffer
	go srv.Client().Post(srv.URL+"/x", "text/plain", strings.NewReader("a"))
	deadline := time.Now().Add(2 * time.Second)
	for c.Pool().Stats().InUse == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// second must get 503 (backpressure)
	resp, err := srv.Client().Post(srv.URL+"/x", "text/plain", strings.NewReader("b"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status %d want 503", resp.StatusCode)
	}
}

func TestInvokeAsyncNoPendingEntry(t *testing.T) {
	done := make(chan struct{}, 1)
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "sink",
			Handler: func(ctx *Ctx) error {
				select {
				case done <- struct{}{}:
				default:
				}
				ctx.Drop()
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"sink"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	if err := g.InvokeAsync("", []byte("ev")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("async event not processed")
	}
	// buffer fully released, no pending waiters, no errors
	deadline := time.Now().Add(time.Second)
	for c.Pool().Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatal("async event leaked its buffer")
		}
		time.Sleep(time.Millisecond)
	}
	if n, errs := c.Errors(); n != 0 {
		t.Fatalf("errors: %v", errs)
	}
}

func TestGatewayTopicFromHeaderAndPath(t *testing.T) {
	got := make(chan string, 2)
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "echo",
			Handler: func(ctx *Ctx) error {
				got <- ctx.Topic
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"echo"}}},
	}
	_, g := testChain(t, ModeEvent, spec)
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/some/path", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if topic := <-got; topic != "/some/path" {
		t.Fatalf("topic %q want /some/path", topic)
	}
}

// startDoor is one way into Gateway.start. knock sends body to the echo
// function through it and returns how the door says the request ended: an
// error, or for ServeHTTP a status.
type startDoor struct {
	name   string
	entry  bool // the request holds a pending entry: MaxPending applies
	remote bool // a peer's DFR chose the function: no ingress route is consulted
	knock  func(g *Gateway, body []byte) (error, int)
}

var startDoors = []startDoor{
	{"Invoke", true, false, func(g *Gateway, body []byte) (error, int) {
		_, err := g.Invoke(context.Background(), "", body)
		return err, 0
	}},
	{"InvokeInto", true, false, func(g *Gateway, body []byte) (error, int) {
		_, err := g.InvokeInto(context.Background(), "", body, make([]byte, len(body)))
		return err, 0
	}},
	{"InvokeAsync", false, false, func(g *Gateway, body []byte) (error, int) {
		return g.InvokeAsync("", body), 0
	}},
	{"InvokeRemote/Responder", true, true, func(g *Gateway, body []byte) (error, int) {
		answer := make(respondTo, 1)
		if err := g.InvokeRemote("echo", "", body, nil, shm.TraceContext{}, RemoteOrigin{Node: "peer"}, answer); err != nil {
			return err, 0
		}
		return <-answer, 0
	}},
	{"InvokeRemote/NoReply", false, true, func(g *Gateway, body []byte) (error, int) {
		return g.InvokeRemote("echo", "", body, nil, shm.TraceContext{}, RemoteOrigin{}, nil), 0
	}},
	{"IngestRaw/Response", true, false, func(g *Gateway, body []byte) (error, int) {
		raw := proto.MarshalHTTPRequest(&proto.Message{Method: "POST", Path: "/echo", Body: body})
		_, err := g.IngestRaw(context.Background(), "http", raw)
		return err, 0
	}},
	{"IngestRaw/NoResponse", false, false, func(g *Gateway, body []byte) (error, int) {
		_, err := g.IngestRaw(context.Background(), "mqtt", proto.MarshalMQTTPublish("echo", body))
		return err, 0
	}},
	{"ServeHTTP", true, false, func(g *Gateway, body []byte) (error, int) {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/echo", bytes.NewReader(body)))
		return nil, rec.Code
	}},
}

// startCond is one thing that can stand in a starting request's way. The
// request ends with err (status through ServeHTTP), counted under shed if that
// is a refusal; nil and 200 when the condition does not reach the door.
type startCond struct {
	name string
	spec func(s *ChainSpec)
	body int // payload bytes; 0: a short one
	// arrange brings the condition about before the knock and returns what
	// undoes it once the door has answered (nil: nothing to undo).
	arrange func(t *testing.T, c *Chain, g *Gateway) (undo func())
	during  func(t *testing.T, c *Chain, g *Gateway) // while the knock is outstanding
	reaches func(d startDoor) bool                   // nil: every door
	err     error
	status  int
	shed    string
	// admitted: the request had been admitted when it ended this way.
	admitted func(d startDoor) bool
}

func always(startDoor) bool { return true }

// TestGatewayStartDoors: every door into the gateway goes through one start,
// so each obstacle ends a request the same way whichever door it knocked on —
// the same error (or its HTTP status), the same one counter, Rejected always
// the sum of the Shed* reasons, and afterwards no pending entry and no buffer
// held.
func TestGatewayStartDoors(t *testing.T) { bothModes(t, startDoorsIn) }

func startDoorsIn(t *testing.T, mode Mode) {
	scaleToZero := func(t *testing.T, c *Chain, _ *Gateway) func() {
		if _, err := c.ScaleToZero("echo"); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	conds := []startCond{
		{name: "closed gateway",
			arrange: func(_ *testing.T, _ *Chain, g *Gateway) func() { g.Close(); return nil },
			err:     ErrGatewayClosed, status: http.StatusInternalServerError,
			// A request with an entry is admitted, registered, and only then
			// reads the flag Close set before its sweep.
			admitted: func(d startDoor) bool { return d.entry }},
		{name: "pool exhausted",
			spec: func(s *ChainSpec) { s.PoolBuffers = 4 },
			arrange: func(t *testing.T, c *Chain, _ *Gateway) func() {
				var held []uint32
				for h, err := c.Pool().Get(); err == nil; h, err = c.Pool().Get() {
					held = append(held, h)
				}
				return func() {
					for _, h := range held {
						if err := c.Pool().Put(h); err != nil {
							t.Error(err)
						}
					}
				}
			},
			err: ErrBackpressure, status: http.StatusServiceUnavailable, shed: ShedPoolExhausted},
		{name: "payload over BufSize, store disabled",
			spec: func(s *ChainSpec) { s.BufSize, s.Objects = 4096, ObjectPolicy{Disable: true} },
			body: 8192,
			err:  shm.ErrPayloadTooLarge, status: http.StatusRequestEntityTooLarge, shed: ShedPayloadTooLarge},
		{name: "MaxPending reached",
			spec: func(s *ChainSpec) { s.Admission.MaxPending = 1 },
			arrange: func(t *testing.T, _ *Chain, g *Gateway) func() {
				go g.Invoke(context.Background(), "", []byte("hold")) // until the gate opens
				waitUntil(t, 5*time.Second, "the held request to pend", func() bool { return g.Stats().Pending == 1 })
				return nil
			},
			reaches: func(d startDoor) bool { return d.entry },
			err:     ErrOverload, status: http.StatusServiceUnavailable, shed: ShedOverload},
		{name: "no ingress route",
			spec:    func(s *ChainSpec) { s.Routes[0].Topic = "elsewhere" },
			reaches: func(d startDoor) bool { return !d.remote },
			err:     ErrNoHead, status: http.StatusInternalServerError, admitted: always},
		{name: "zero replicas, parking off",
			arrange: scaleToZero,
			err:     ErrNoInstance, status: http.StatusInternalServerError, admitted: always},
		{name: "zero replicas, parking on, then ScaleUp",
			spec:    func(s *ChainSpec) { s.Admission = AdmissionPolicy{ParkCapacity: 8, ParkTimeout: time.Minute} },
			arrange: scaleToZero,
			during: func(t *testing.T, c *Chain, g *Gateway) {
				waitUntil(t, 5*time.Second, "the request to park", func() bool { return g.ParkedFor("echo") == 1 })
				if _, err := c.ScaleUp("echo"); err != nil {
					t.Fatal(err)
				}
			},
			reaches: func(startDoor) bool { return false }},
	}
	for _, cond := range conds {
		for _, d := range startDoors {
			t.Run(cond.name+"/"+d.name, func(t *testing.T) {
				var ran atomic.Int64
				gate := make(chan struct{}) // holds a "hold" request until the door has answered
				spec := echoSpec()
				echo := spec.Functions[0].Handler
				spec.Functions[0].Concurrency = 2
				spec.Functions[0].Handler = func(ctx *Ctx) error {
					if string(ctx.Payload()) == "hold" {
						<-gate
					} else {
						ran.Add(1)
					}
					return echo(ctx)
				}
				if cond.spec != nil {
					cond.spec(&spec)
				}
				c, g := testChain(t, mode, spec)
				open := openOnce(gate)
				t.Cleanup(open)
				g.Adapters().Attach(MQTTAdapter{})
				var undo func()
				if cond.arrange != nil {
					undo = cond.arrange(t, c, g)
				}
				before := g.Stats()
				body := []byte("knock")
				if cond.body > 0 {
					body = bytes.Repeat([]byte("k"), cond.body)
				}
				type answer struct {
					err    error
					status int
				}
				answered := make(chan answer, 1)
				go func() {
					err, status := d.knock(g, body)
					answered <- answer{err, status}
				}()
				if cond.during != nil {
					cond.during(t, c, g)
				}
				var got answer
				select {
				case got = <-answered:
				case <-time.After(30 * time.Second):
					t.Fatal("the door never answered")
				}
				open()
				if undo != nil {
					undo()
				}

				reached := cond.reaches == nil || cond.reaches(d)
				want, shed, admitted := answer{cond.err, cond.status}, cond.shed, cond.admitted != nil && cond.admitted(d)
				if !reached {
					want, shed, admitted = answer{nil, http.StatusOK}, "", true
				}
				if d.name == "ServeHTTP" {
					want.err = nil
				} else {
					want.status = 0
				}
				if !errors.Is(got.err, want.err) || (want.err == nil && got.err != nil) || got.status != want.status {
					t.Errorf("ended with (%v, %d), want (%v, %d)", got.err, got.status, want.err, want.status)
				}
				waitUntil(t, 5*time.Second, "the request to leave nothing behind", func() bool {
					// A detached park leaves the park table after its
					// dispatch, which the reply may beat.
					return g.Stats().Pending == 0 && c.Pool().InUse() == 0 && g.Stats().Parked == 0
				})
				s := g.Stats()
				if n := s.Admitted - before.Admitted; (n == 1) != admitted || n > 1 {
					t.Errorf("Admitted moved by %d, want admitted=%v", n, admitted)
				}
				var sum uint64
				for reason, n := range shedCounts(s) {
					sum += n
					if want := b2u(reason == shed); n != want {
						t.Errorf("shed %q counted %d times, want %d", reason, n, want)
					}
				}
				if s.Rejected != sum {
					t.Errorf("Rejected %d, the Shed* reasons sum to %d", s.Rejected, sum)
				}
				if !reached {
					waitUntil(t, 5*time.Second, "the handler to run once", func() bool { return ran.Load() == 1 })
				} else if n := ran.Load(); n != 0 {
					t.Errorf("the handler ran %d times for a request that ended with %v", n, cond.err)
				}
				if cond.during != nil {
					if s.ParkedTotal != 1 || s.Resumed != 1 || s.Parked != 0 {
						t.Errorf("parked %d, resumed %d, still parked %d; want 1, 1, 0", s.ParkedTotal, s.Resumed, s.Parked)
					}
				}
			})
		}
	}
}

// shedCounts is s's Shed* counters by reason.
func shedCounts(s GatewayStats) map[string]uint64 {
	return map[string]uint64{
		ShedOverload: s.ShedOverload, ShedParkFull: s.ShedParkFull, ShedParkTimeout: s.ShedParkTimeout,
		ShedPoolExhausted: s.ShedPoolExhausted, ShedPayloadTooLarge: s.ShedPayloadTooLarge,
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestServeHTTPDeclaredLengthNotAllocatedUpFront: a body's declared
// Content-Length is a claim, not bytes. A request that declares 64 MiB and
// sends ten gets a 400 without the gateway allocating the 64 MiB, while a
// 1 MiB body that is what it declares still goes through.
func TestServeHTTPDeclaredLengthNotAllocatedUpFront(t *testing.T) {
	c, g := testChain(t, ModeEvent, echoSpec())

	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader("ten bytes!"))
	req.ContentLength = 64 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short body: status = %d, want 400 (%q)", rec.Code, rec.Body.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("short body of a 64 MiB declaration allocated %.1f MiB", float64(grew)/(1<<20))
	}

	body := largePayload(1 << 20)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("1 MiB body: status = %d (%q)", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("1 MiB body came back %d bytes, want %d", rec.Body.Len(), len(body))
	}
	waitObjectsDrained(t, c)
}

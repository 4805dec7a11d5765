package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/shm"
)

func testChain(t testing.TB, mode Mode, spec ChainSpec) (*Chain, *Gateway) {
	t.Helper()
	spec.Mode = mode
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("chain-%s-%d", t.Name(), time.Now().UnixNano())
	}
	kernel := ebpf.NewKernel()
	mgr := shm.NewManager()
	c, err := NewChain(kernel, mgr, spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		c.Close()
		// Zero-leak teardown invariant: every buffer a test put in flight
		// must be back in the pool once the chain is down. In-flight work
		// may still be releasing, so poll briefly before asserting.
		deadline := time.Now().Add(2 * time.Second)
		for c.Pool().InUse() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := c.Pool().LeakCheck(); err != nil {
			t.Error(err)
		}
	})
	return c, g
}

// errTerminal is the error test handlers fail with.
var errTerminal = errors.New("core: handler error")

// instanceRuns counts a handler's successful runs per instance, for tests that
// ask which instance ran a request. Instance IDs are below MaxInstances.
type instanceRuns [MaxInstances]atomic.Uint64

// count wraps h (nil: a handler that does nothing) to count each run that
// returns nil on the instance it ran on.
func (r *instanceRuns) count(h Handler) Handler {
	return func(ctx *Ctx) error {
		var err error
		if h != nil {
			err = h(ctx)
		}
		if err == nil {
			r[ctx.Instance()].Add(1)
		}
		return err
	}
}

// of returns the runs counted on in.
func (r *instanceRuns) of(in *Instance) uint64 { return r[in.ID()].Load() }

// echoSpec is a single-function chain that upper-cases the payload in
// place (zero-copy mutation).
func echoSpec() ChainSpec {
	return ChainSpec{
		Functions: []FunctionSpec{{
			Name: "echo",
			Handler: func(ctx *Ctx) error {
				b := ctx.Payload()
				for i := range b {
					if b[i] >= 'a' && b[i] <= 'z' {
						b[i] -= 32
					}
				}
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"echo"}}},
	}
}

func TestChainSingleFunctionBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			_, g := testChain(t, mode, echoSpec())
			out, err := g.Invoke(context.Background(), "", []byte("hello"))
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != "HELLO" {
				t.Fatalf("got %q want HELLO", out)
			}
		})
	}
}

// seqSpec is a 3-function sequential chain; each appends its tag so the
// traversal order is observable.
func seqSpec() ChainSpec {
	tagger := func(tag string) Handler {
		return func(ctx *Ctx) error {
			return ctx.SetPayload(append(ctx.Payload(), []byte(tag)...))
		}
	}
	return ChainSpec{
		Functions: []FunctionSpec{
			{Name: "f1", Handler: tagger(">f1")},
			{Name: "f2", Handler: tagger(">f2")},
			{Name: "f3", Handler: tagger(">f3")},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"f1"}},
			{From: "f1", To: []string{"f2"}},
			{From: "f2", To: []string{"f3"}},
		},
	}
}

func TestChainSequentialDFR(t *testing.T) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			_, g := testChain(t, mode, seqSpec())
			out, err := g.Invoke(context.Background(), "", []byte("in"))
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != "in>f1>f2>f3" {
				t.Fatalf("got %q", out)
			}
		})
	}
}

func TestChainDFRBypassesGateway(t *testing.T) {
	// After the run, the gateway must have seen exactly one descriptor
	// back (the final reply), not one per hop — the DFR property (② in
	// Fig. 4).
	_, g := testChain(t, ModeEvent, seqSpec())
	if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	delivered, _ := g.sock.Stats()
	if delivered != 1 {
		t.Fatalf("gateway saw %d descriptors, want 1 (DFR must bypass it)", delivered)
	}
}

func TestChainZeroCopyNoBufferGrowth(t *testing.T) {
	c, g := testChain(t, ModeEvent, seqSpec())
	for i := 0; i < 10; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Pool().Stats()
	if s.InUse != 0 {
		t.Fatalf("buffers leaked: %d in use", s.InUse)
	}
	if s.Allocs != 10 {
		t.Fatalf("allocs %d, want exactly 1 per request (zero-copy chain)", s.Allocs)
	}
}

func TestTopicRouting(t *testing.T) {
	onSpec := ChainSpec{
		Functions: []FunctionSpec{
			{Name: "classifier", Handler: func(ctx *Ctx) error {
				if string(ctx.Payload()) == "motion" {
					ctx.SetTopic("lights/on")
				} else {
					ctx.SetTopic("lights/off")
				}
				return nil
			}},
			{Name: "on", Handler: func(ctx *Ctx) error { return ctx.SetPayload([]byte("ON")) }},
			{Name: "off", Handler: func(ctx *Ctx) error { return ctx.SetPayload([]byte("OFF")) }},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"classifier"}},
			{Topic: "lights/on", From: "classifier", To: []string{"on"}},
			{Topic: "lights/off", From: "classifier", To: []string{"off"}},
		},
	}
	_, g := testChain(t, ModeEvent, onSpec)
	out, err := g.Invoke(context.Background(), "sensor", []byte("motion"))
	if err != nil || string(out) != "ON" {
		t.Fatalf("motion: got %q, %v", out, err)
	}
	out, err = g.Invoke(context.Background(), "sensor", []byte("still"))
	if err != nil || string(out) != "OFF" {
		t.Fatalf("still: got %q, %v", out, err)
	}
}

func TestFanOutWithRefCounts(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	mark := func(name string) Handler {
		return func(ctx *Ctx) error {
			mu.Lock()
			seen[name]++
			mu.Unlock()
			ctx.Drop() // terminal branches of the fan-out
			return nil
		}
	}
	spec := ChainSpec{
		Functions: []FunctionSpec{
			{Name: "splitter", Handler: nil}, // pure routing hop
			{Name: "a", Handler: mark("a")},
			{Name: "b", Handler: mark("b")},
			{Name: "c", Handler: mark("c")},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"splitter"}},
			{From: "splitter", To: []string{"a", "b", "c"}},
		},
	}
	c, g := testChain(t, ModeEvent, spec)
	if err := g.InvokeAsync("", []byte("ev")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := seen["a"] == 1 && seen["b"] == 1 && seen["c"] == 1
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fan-out incomplete: %v", seen)
		}
		time.Sleep(time.Millisecond)
	}
	// all references must drain
	deadline = time.Now().Add(time.Second)
	for c.Pool().Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("fan-out leaked buffers: %+v", c.Pool().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if n, errs := c.Errors(); n != 0 {
		t.Fatalf("chain errors: %v", errs)
	}
}

func TestSecurityDomainFilterBlocksUnroutedEdge(t *testing.T) {
	// f1 tries to call f3 directly even though only f1->f2 is routed;
	// SPROXY's filter must reject the descriptor.
	var sendErr error
	var once sync.Once
	spec := ChainSpec{
		Functions: []FunctionSpec{
			{Name: "f1", Handler: func(ctx *Ctx) error {
				ctx.ForwardTo("f3") // malicious: not in the routing table
				return nil
			}},
			{Name: "f2", Handler: nil},
			{Name: "f3", Handler: func(ctx *Ctx) error {
				once.Do(func() { sendErr = errors.New("f3 was reached") })
				return nil
			}},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"f1"}},
			{From: "f1", To: []string{"f2"}},
		},
	}
	c, g := testChain(t, ModeEvent, spec)
	_, err := g.Invoke(contextWithTimeout(t, 300*time.Millisecond), "", []byte("x"))
	if err == nil {
		t.Fatal("invoke should not complete: the forward was filtered")
	}
	cnt, errs := c.Errors()
	if cnt == 0 {
		t.Fatal("chain must record the filtered send")
	}
	foundFiltered := false
	for _, e := range errs {
		if errors.Is(e, ErrFiltered) {
			foundFiltered = true
		}
	}
	if !foundFiltered {
		t.Fatalf("want ErrFiltered in %v", errs)
	}
	if sendErr != nil {
		t.Fatal(sendErr)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestRuntimeFilterRevocation(t *testing.T) {
	c, g := testChain(t, ModeEvent, echoSpec())
	// revoke gateway -> echo instance authorization at runtime (§3.4)
	inst := c.Router().Instances("echo")[0]
	if err := c.SProxy().Revoke(GatewayID, inst.ID()); err != nil {
		t.Fatal(err)
	}
	_, err := g.Invoke(contextWithTimeout(t, 200*time.Millisecond), "", []byte("x"))
	if !errors.Is(err, ErrFiltered) {
		t.Fatalf("want ErrFiltered after revocation, got %v", err)
	}
	// re-allow restores service
	if err := c.SProxy().Allow(GatewayID, inst.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerErrorReleasesBuffer(t *testing.T) {
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:    "bad",
			Handler: func(ctx *Ctx) error { return errTerminal },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"bad"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	_, err := g.Invoke(contextWithTimeout(t, 200*time.Millisecond), "", []byte("x"))
	if err == nil {
		t.Fatal("handler error means no response; invoke must time out")
	}
	deadline := time.Now().Add(time.Second)
	for c.Pool().Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed handler leaked its buffer")
		}
		time.Sleep(time.Millisecond)
	}
	if n, _ := c.Errors(); n != 1 {
		t.Fatalf("chain error count %d, want 1", n)
	}
}

func TestBackpressureOnPoolExhaustion(t *testing.T) {
	block := make(chan struct{})
	spec := ChainSpec{
		PoolBuffers: 2,
		Functions: []FunctionSpec{{
			Name:        "slow",
			Concurrency: 4,
			Handler: func(ctx *Ctx) error {
				<-block
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"slow"}}},
	}
	_, g := testChain(t, ModeEvent, spec)

	const callers = 3
	results := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := g.Invoke(contextWithTimeout(t, 2*time.Second), "", []byte("x"))
			results <- err
		}()
	}
	// Every caller returns before teardown: one still inside pool.Get while
	// the cleanup's LeakCheck runs reads as a leaked buffer.
	returned := 0
	defer func() {
		close(block)
		for ; returned < callers; returned++ {
			<-results
		}
	}()
	// one of the three must fail fast with backpressure (2-buffer pool)
	deadline := time.After(time.Second)
	for {
		select {
		case err := <-results:
			returned++
			if errors.Is(err, ErrBackpressure) {
				return
			}
		case <-deadline:
			t.Fatal("no backpressure signal within deadline")
		}
	}
}

func TestLoadBalancingPicksResidualCapacity(t *testing.T) {
	r := NewRouter()
	mk := func(id uint32, conc, inflight int) *Instance {
		in := &Instance{id: id, fnName: "f"}
		in.setSlots(conc)
		for i := 0; i < inflight; i++ {
			if _, ok := in.claim(uint32(i)); !ok {
				t.Fatalf("instance %d: claim %d of %d refused", id, i, conc)
			}
		}
		return in
	}
	r.AddInstance("f", mk(1, 32, 30)) // residual 2
	r.AddInstance("f", mk(2, 32, 5))  // residual 27
	r.AddInstance("f", mk(3, 32, 10)) // residual 22
	in, err := r.PickInstance("f")
	if err != nil || in.ID() != 2 {
		t.Fatalf("picked %v, %v; want instance 2", in, err)
	}
	if _, err := r.PickInstance("ghost"); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("want ErrNoInstance, got %v", err)
	}
}

func TestRouterTopicFallback(t *testing.T) {
	r := NewRouter()
	r.SetRoute(RouteKey{From: "a"}, "default")
	r.SetRoute(RouteKey{Topic: "hot", From: "a"}, "special")
	if n, ok := r.Next("hot", "a"); !ok || n[0] != "special" {
		t.Fatalf("exact topic match failed: %v %v", n, ok)
	}
	if n, ok := r.Next("cold", "a"); !ok || n[0] != "default" {
		t.Fatalf("fallback failed: %v %v", n, ok)
	}
	if _, ok := r.Next("x", "zzz"); ok {
		t.Fatal("unknown hop must terminate")
	}
	r.SetRoute(RouteKey{From: "a"}) // clearing
	if _, ok := r.Next("cold", "a"); ok {
		t.Fatal("cleared route must be gone")
	}
}

func TestRouterInstanceLifecycle(t *testing.T) {
	r := NewRouter()
	a := &Instance{id: 1, fnName: "f"}
	b := &Instance{id: 2, fnName: "f"}
	r.AddInstance("f", a)
	r.AddInstance("f", b)
	if len(r.Instances("f")) != 2 {
		t.Fatal("expected 2 instances")
	}
	r.RemoveInstance("f", 1)
	list := r.Instances("f")
	if len(list) != 1 || list[0].ID() != 2 {
		t.Fatalf("remove failed: %v", list)
	}
}

func TestMultiInstanceSpreadsLoad(t *testing.T) {
	var runs instanceRuns
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:        "w",
			Instances:   3,
			Concurrency: 1,
			Handler: runs.count(func(ctx *Ctx) error {
				time.Sleep(5 * time.Millisecond)
				return nil
			}),
		}},
		Routes: []RouteSpec{{From: "", To: []string{"w"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
		// stagger submissions: residual capacity is measured from running
		// handlers, so back-to-back dispatches can all observe three idle
		// instances and pile onto the first one
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	used := 0
	for _, in := range c.Router().Instances("w") {
		if runs.of(in) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("residual-capacity balancing used only %d of 3 instances", used)
	}
}

func TestSproxyMetricsCountInvocations(t *testing.T) {
	c, g := testChain(t, ModeEvent, seqSpec())
	for i := 0; i < 4; i++ {
		if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	sp := c.SProxy()
	for _, fn := range []string{"f1", "f2", "f3"} {
		inst := c.Router().Instances(fn)[0]
		if got := sp.RequestCount(inst.ID()); got != 4 {
			t.Errorf("%s: L7 count %d want 4", fn, got)
		}
	}
	// the gateway received 4 replies
	if got := sp.RequestCount(GatewayID); got != 4 {
		t.Errorf("gateway reply count %d want 4", got)
	}
}

func TestEProxyL3Metrics(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	payload := make([]byte, 150)
	for i := 0; i < 3; i++ {
		if _, err := g.Invoke(context.Background(), "", payload); err != nil {
			t.Fatal(err)
		}
	}
	pkts, bytes := g.EProxy().L3Stats()
	if pkts != 3 || bytes != 450 {
		t.Fatalf("L3 stats pkts=%d bytes=%d want 3, 450", pkts, bytes)
	}
	if rate := g.EProxy().ScrapeRate(); rate < 0 {
		t.Fatal("scrape rate negative")
	}
}

// TestGatewayStats drives one outcome per row on a fresh chain and compares
// the whole snapshot: exactly the fields a row names move, gauges included
// while a request is held, and reading the snapshot allocates nothing.
func TestGatewayStats(t *testing.T) {
	rows := []struct {
		name string
		spec func(s *ChainSpec)
		// drive brings the outcome about. A request whose payload is
		// "hold" waits in the handler until open; held compares the
		// snapshot while it waits.
		drive func(t *testing.T, c *Chain, g *Gateway, open func(), held func(want GatewayStats))
		want  GatewayStats
	}{
		{name: "reply",
			drive: func(t *testing.T, _ *Chain, g *Gateway, _ func(), _ func(GatewayStats)) {
				if _, err := g.Invoke(context.Background(), "", []byte("x")); err != nil {
					t.Fatal(err)
				}
			},
			want: GatewayStats{Admitted: 1, Completed: 1}},
		{name: "MaxPending shed",
			spec: func(s *ChainSpec) { s.Admission.MaxPending = 1 },
			drive: func(t *testing.T, _ *Chain, g *Gateway, open func(), held func(GatewayStats)) {
				done := make(chan error, 1)
				go func() { _, err := g.Invoke(context.Background(), "", []byte("hold")); done <- err }()
				waitUntil(t, 5*time.Second, "the held request to pend", func() bool { return g.Stats().Pending == 1 })
				if _, err := g.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, ErrOverload) {
					t.Fatalf("want ErrOverload, got %v", err)
				}
				held(GatewayStats{Admitted: 1, Pending: 1, Rejected: 1, ShedOverload: 1})
				open()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			},
			want: GatewayStats{Admitted: 1, Completed: 1, Rejected: 1, ShedOverload: 1}},
		{name: "pool exhausted",
			spec: func(s *ChainSpec) { s.PoolBuffers = 4 },
			drive: func(t *testing.T, c *Chain, g *Gateway, _ func(), _ func(GatewayStats)) {
				var held []uint32
				for h, err := c.Pool().Get(); err == nil; h, err = c.Pool().Get() {
					held = append(held, h)
				}
				if _, err := g.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, ErrBackpressure) {
					t.Fatalf("want ErrBackpressure, got %v", err)
				}
				for _, h := range held {
					if err := c.Pool().Put(h); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: GatewayStats{Rejected: 1, ShedPoolExhausted: 1}},
		{name: "handler panic",
			spec: func(s *ChainSpec) {
				s.Injector = fault.New(6).Add(fault.Rule{Op: fault.OpPanic, Function: "echo", MaxCount: 1})
			},
			drive: func(t *testing.T, _ *Chain, g *Gateway, _ func(), _ func(GatewayStats)) {
				if _, err := g.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, ErrHandlerPanic) {
					t.Fatalf("want ErrHandlerPanic, got %v", err)
				}
			},
			// The chain's own counters, read with no publish step between.
			want: GatewayStats{Admitted: 1, Failed: 1, Crashes: 1, TerminalFailures: 1, FaultsInjected: 1}},
		{name: "chain deadline",
			spec: func(s *ChainSpec) { s.Deadline = 20 * time.Millisecond },
			drive: func(t *testing.T, c *Chain, g *Gateway, open func(), held func(GatewayStats)) {
				if _, err := g.Invoke(context.Background(), "", []byte("hold")); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("want DeadlineExceeded, got %v", err)
				}
				held(GatewayStats{Admitted: 1, DeadlinesExceeded: 1})
				open()
				// The reply that comes too late is reclaimed at the gateway.
				waitUntil(t, 5*time.Second, "the late reply reclaimed", func() bool { return c.Pool().InUse() == 0 })
			},
			want: GatewayStats{Admitted: 1, DeadlinesExceeded: 1, Reclaimed: 1}},
		{name: "park then resume",
			spec: func(s *ChainSpec) { s.Admission = AdmissionPolicy{ParkCapacity: 8, ParkTimeout: time.Minute} },
			drive: func(t *testing.T, c *Chain, g *Gateway, _ func(), held func(GatewayStats)) {
				if _, err := c.ScaleToZero("echo"); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { _, err := g.Invoke(context.Background(), "", []byte("x")); done <- err }()
				waitUntil(t, 5*time.Second, "the request to park", func() bool { return g.Stats().Parked == 1 })
				held(GatewayStats{Admitted: 1, Pending: 1, Parked: 1, ParkedTotal: 1})
				if _, err := c.ScaleUp("echo"); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				waitUntil(t, 5*time.Second, "the park table to empty", func() bool { return g.Stats().Parked == 0 })
			},
			want: GatewayStats{Admitted: 1, Completed: 1, ParkedTotal: 1, Resumed: 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			gate := make(chan struct{})
			spec := echoSpec()
			spec.ScrapeInterval = -1 // no agent: ScrapeRate stays 0
			echo := spec.Functions[0].Handler
			spec.Functions[0].Handler = func(ctx *Ctx) error {
				if string(ctx.Payload()) == "hold" {
					<-gate
				}
				return echo(ctx)
			}
			if row.spec != nil {
				row.spec(&spec)
			}
			c, g := testChain(t, ModeEvent, spec)
			open := openOnce(gate)
			t.Cleanup(open)
			if s := g.Stats(); s != (GatewayStats{}) {
				t.Fatalf("a fresh gateway reads %+v", s)
			}
			row.drive(t, c, g, open, func(want GatewayStats) {
				t.Helper()
				if s := g.Stats(); s != want {
					t.Errorf("while held:\n got %+v\nwant %+v", s, want)
				}
			})
			if s := g.Stats(); s != row.want {
				t.Errorf("\n got %+v\nwant %+v", s, row.want)
			}
			if row.want.Completed > 0 && g.Latency().Count() != row.want.Completed {
				t.Errorf("latency histogram holds %d, want one per reply", g.Latency().Count())
			}
			if n := testing.AllocsPerRun(100, func() { _ = g.Stats() }); n != 0 {
				t.Errorf("Stats allocates %v times per call", n)
			}
		})
	}
}

func TestChainSpecValidation(t *testing.T) {
	kernel := ebpf.NewKernel()
	mgr := shm.NewManager()
	cases := []ChainSpec{
		{},          // no name
		{Name: "x"}, // no functions
		{Name: "x", Functions: []FunctionSpec{{}}},                                                                   // unnamed fn
		{Name: "x", Functions: []FunctionSpec{{Name: "a"}, {Name: "a"}}},                                             // dup fn
		{Name: "x", Functions: []FunctionSpec{{Name: "a"}}, Routes: []RouteSpec{{From: "", To: []string{"ghost"}}}},  // bad route target
		{Name: "x", Functions: []FunctionSpec{{Name: "a"}}, Routes: []RouteSpec{{From: "ghost", To: []string{"a"}}}}, // bad route source
	}
	for i, spec := range cases {
		if _, err := NewChain(kernel, mgr, spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	// pool prefixes must be released on failed construction
	if _, err := mgr.CreatePool("x", 1, 1); err != nil {
		t.Fatalf("failed chain construction leaked the pool prefix: %v", err)
	}
}

func TestInvokeWithNoIngressRoute(t *testing.T) {
	spec := ChainSpec{
		Functions: []FunctionSpec{{Name: "a"}},
	}
	_, g := testChain(t, ModeEvent, spec)
	if _, err := g.Invoke(context.Background(), "", nil); !errors.Is(err, ErrNoHead) {
		t.Fatalf("want ErrNoHead, got %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name:    "stuck",
			Handler: func(ctx *Ctx) error { <-block; return nil },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"stuck"}}},
	}
	_, g := testChain(t, ModeEvent, spec)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := g.Invoke(ctx, "", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSocketQueueSemantics(t *testing.T) {
	s := NewSocket(5, 2)
	d := shm.Descriptor{NextFn: 5}
	if err := s.Deliver(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Deliver(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Deliver(d); !errors.Is(err, ErrSocketFull) {
		t.Fatalf("want ErrSocketFull, got %v", err)
	}
	delivered, dropped := s.Stats()
	if delivered != 2 || dropped != 1 {
		t.Fatalf("stats %d/%d", delivered, dropped)
	}
	s.Close()
	if err := s.Deliver(d); !errors.Is(err, ErrSocketClosed) {
		t.Fatalf("want ErrSocketClosed, got %v", err)
	}
	// wire-form delivery with a bad descriptor
	s2 := NewSocket(1, 1)
	if err := s2.DeliverDescriptor([]byte{1, 2}); err == nil {
		t.Fatal("short wire descriptor must fail")
	}
}

func TestRingTransportUnknownAndUnregistered(t *testing.T) {
	tr := newRingTransport()
	s := polledSocket(1, func(shm.Descriptor) {})
	defer s.Close()
	if err := tr.RegisterSocket(s); err != nil {
		t.Fatal(err)
	}
	if err := tr.RegisterSocket(NewSocket(1, 1)); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if err := tr.Send(0, shm.Descriptor{NextFn: 9}); !errors.Is(err, ErrNoSuchFn) {
		t.Fatalf("want ErrNoSuchFn, got %v", err)
	}
	if err := tr.Send(0, shm.Descriptor{NextFn: 1}); !errors.Is(err, ErrFiltered) {
		t.Fatalf("want ErrFiltered before Allow, got %v", err)
	}
	tr.Allow(0, 1)
	if err := tr.Send(0, shm.Descriptor{NextFn: 1, Caller: 7}); err != nil {
		t.Fatal(err)
	}
	if d, ok := s.next(); !ok || d.Caller != 7 {
		t.Fatalf("descriptor corrupted: %+v, %v", d, ok)
	}
	if err := tr.UnregisterSocket(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.UnregisterSocket(1); err == nil {
		t.Fatal("double unregister must fail")
	}
}

package orchestrator

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
)

func upperSpec(name string) core.ChainSpec {
	return core.ChainSpec{
		Name: name,
		Functions: []core.FunctionSpec{{
			Name: "up",
			Handler: func(ctx *core.Ctx) error {
				b := ctx.Payload()
				for i := range b {
					if b[i] >= 'a' && b[i] <= 'z' {
						b[i] -= 32
					}
				}
				return nil
			},
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"up"}}},
	}
}

func TestDeployAndInvokeThroughController(t *testing.T) {
	cl := NewCluster(2)
	d, err := cl.Controller.DeployChain(upperSpec("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	out, err := d.Gateway.Invoke(context.Background(), "", []byte("hi"))
	if err != nil || string(out) != "HI" {
		t.Fatalf("got %q, %v", out, err)
	}
}

func TestDuplicateChainRejected(t *testing.T) {
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(upperSpec("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := cl.Controller.DeployChain(upperSpec("c1")); err == nil {
		t.Fatal("duplicate deploy must fail")
	}
}

func TestSchedulerBalancesChains(t *testing.T) {
	cl := NewCluster(3)
	for i := 0; i < 6; i++ {
		name := "chain-" + string(rune('a'+i))
		if _, err := cl.Controller.DeployChain(upperSpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range cl.Nodes() {
		if n.Chains() != 2 {
			t.Fatalf("node %s has %d chains, want 2 (balanced placement)", n.Name, n.Chains())
		}
	}
}

func TestChainLevelPlacement(t *testing.T) {
	// All instances of a chain share one node's kernel: scale-ups must
	// not cross nodes.
	cl := NewCluster(2)
	d, err := cl.Controller.DeployChain(upperSpec("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Chain.ScaleUp("up"); err != nil {
		t.Fatal(err)
	}
	// both instances answer through the same gateway/kernel
	out, err := d.Gateway.Invoke(context.Background(), "", []byte("x"))
	if err != nil || string(out) != "X" {
		t.Fatalf("%q %v", out, err)
	}
}

func TestDeleteChainReleasesPrefix(t *testing.T) {
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(upperSpec("c1"))
	if err != nil {
		t.Fatal(err)
	}
	node := d.Node
	if err := cl.Controller.DeleteChain("c1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Controller.DeleteChain("c1"); err == nil {
		t.Fatal("double delete must fail")
	}
	// prefix is reusable: redeploy on the same node
	if _, err := node.Kubelet.CreateChain(upperSpec("c1")); err != nil {
		t.Fatalf("prefix not released: %v", err)
	}
}

// TestClosedChainReleasesEBPFState: a chain that is deployed and deleted
// leaves nothing in its node's eBPF kernel — the map registry and the
// loaded/compiled program gauges end where they started, however many chains
// have come and gone.
func TestClosedChainReleasesEBPFState(t *testing.T) {
	cl := NewCluster(1)
	k := cl.Nodes()[0].Kernel
	maps0, es0 := k.MapCount(), k.EngineStats()
	for i := 0; i < 50; i++ {
		d, err := cl.Controller.DeployChain(upperSpec("churn"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if es := k.EngineStats(); es.Loaded != es0.Loaded+2 || es.Compiled != es0.Compiled+2 {
			t.Fatalf("deploy %d: program gauges %+v, want two above %+v", i, es, es0)
		}
		if err := cl.Controller.DeleteChain("churn"); err != nil {
			t.Fatal(err)
		}
	}
	es := k.EngineStats()
	if maps := k.MapCount(); maps != maps0 || es.Loaded != es0.Loaded || es.Compiled != es0.Compiled {
		t.Fatalf("after 50 deploy/delete rounds: %d maps, %d loaded, %d compiled; started at %d, %d, %d",
			maps, es.Loaded, es.Compiled, maps0, es0.Loaded, es0.Compiled)
	}
}

func TestIngressGatewayRoutesByChain(t *testing.T) {
	cl := NewCluster(1)
	d1, err := cl.Controller.DeployChain(upperSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	srv := httptest.NewServer(cl.Ingress)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/alpha/do", "text/plain", strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ABC" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}

	resp, err = http.Post(srv.URL+"/ghost/do", "text/plain", strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown chain must 404, got %d", resp.StatusCode)
	}
}

func TestKubeletProbe(t *testing.T) {
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(upperSpec("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res := d.Node.Kubelet.Probe(d)
	if len(res) != 1 || !res[0].Healthy {
		t.Fatalf("probe results %+v", res)
	}
}

func TestAutoscalerScalesUpUnderLoad(t *testing.T) {
	cl := NewCluster(1)
	block := make(chan struct{})
	spec := core.ChainSpec{
		Name: "busy",
		Functions: []core.FunctionSpec{{
			Name:        "slow",
			Concurrency: 4,
			Handler: func(ctx *core.Ctx) error {
				<-block
				return nil
			},
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"slow"}}},
	}
	d, err := cl.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blockOnce := sync.Once{}
	unblock := func() { blockOnce.Do(func() { close(block) }) }
	defer unblock()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			d.Gateway.Invoke(ctx, "", []byte("x"))
		}()
	}
	// wait for inflight to accumulate
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, in := range d.Chain.Instances() {
			total += in.Inflight()
		}
		if total >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	as := NewAutoscaler(d, 2)
	decisions := as.Evaluate()
	if len(decisions) == 0 || decisions[0].To <= decisions[0].From {
		t.Fatalf("autoscaler must scale up, got %+v", decisions)
	}
	if len(d.Chain.Instances()) < 2 {
		t.Fatal("instances must increase")
	}
	unblock()
	wg.Wait()

	// idle: wait for handlers to drain, then scale back to MinReplicas
	deadline = time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, in := range d.Chain.Instances() {
			total += in.Inflight()
		}
		if total == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	down := as.Evaluate()
	if got := len(d.Chain.Instances()); got != 1 {
		t.Fatalf("idle chain must return to 1 warm instance, has %d", got)
	}
	if len(down) == 0 || down[0].To >= down[0].From {
		t.Fatalf("autoscaler must report the scale-down, got %+v", down)
	}
}

func TestAutoscalerStartStop(t *testing.T) {
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(upperSpec("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	as := NewAutoscaler(d, 0) // default target
	as.Start(time.Millisecond)
	as.Start(time.Millisecond) // idempotent
	time.Sleep(10 * time.Millisecond)
	as.Stop()
	as.Stop() // idempotent
}

func TestEmptySchedulerFails(t *testing.T) {
	s := &Scheduler{}
	if _, err := s.Place(); err != ErrNoNodes {
		t.Fatalf("want ErrNoNodes, got %v", err)
	}
}

// TestNodeEngineMetricsExposed: the cluster exposition carries per-node
// eBPF engine series, and driving traffic through a deployed chain moves
// the jit counter (the dataplane programs compile to the fast paths) while
// the interpreter counter stays put.
func TestNodeEngineMetricsExposed(t *testing.T) {
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(upperSpec("engmet"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}

	scrape := func() string {
		rec := httptest.NewRecorder()
		cl.Observability().Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	body := scrape()
	for _, want := range []string{
		`spright_ebpf_runs_total{engine="jit",node="worker-1"}`,
		`spright_ebpf_runs_total{engine="interp",node="worker-1"}`,
		`spright_ebpf_loaded_programs{node="worker-1"}`,
		`spright_ebpf_compiled_programs{node="worker-1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %s:\n%s", want, body)
		}
	}
	val := func(body, series string) float64 {
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, series+" ") {
				var v float64
				if _, err := fmt.Sscanf(strings.TrimPrefix(line, series+" "), "%g", &v); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("series %s not found", series)
		return 0
	}
	jit := val(body, `spright_ebpf_runs_total{engine="jit",node="worker-1"}`)
	if jit <= 0 {
		t.Fatalf("jit runs = %v, want > 0 after traffic", jit)
	}
	if interp := val(body, `spright_ebpf_runs_total{engine="interp",node="worker-1"}`); interp != 0 {
		t.Fatalf("interp runs = %v, want 0 (dataplane programs should be compiled)", interp)
	}
	if compiled := val(body, `spright_ebpf_compiled_programs{node="worker-1"}`); compiled < 2 {
		t.Fatalf("compiled programs = %v, want >= 2 (sproxy + eproxy)", compiled)
	}

	// More traffic moves the counter monotonically.
	if _, err := d.Gateway.Invoke(context.Background(), "", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if jit2 := val(scrape(), `spright_ebpf_runs_total{engine="jit",node="worker-1"}`); jit2 <= jit {
		t.Fatalf("jit runs did not advance: %v -> %v", jit, jit2)
	}
}

// TestChainRunsOnOneWorkerAllocations is the gate on the local hop, in both
// modes: an uncontended twelve-function chain runs all twelve handlers on one
// goroutine — the head function's worker, which claims each next instance and
// runs it itself — so a request crosses goroutines twice, caller → worker and
// worker → caller, where it used to cross thirteen times; no hop is queued; and
// the request, its eleven hops included, allocates nothing. (The average is not
// exactly zero: one request in 1024 is traced, and a GC empties the sync.Pools.)
//
// In ModePolling that worker is the one that was already spinning on the
// head's ring when the request was sent, request after request: nothing wakes
// a parked worker, and the eleven spinners downstream never see a descriptor.
// (A worker the scheduler holds back for a whole round trip between two polls
// — a GC, a preemption — is found missing from its ring by the next arrival,
// which wakes a parked one to take over: that is the protocol working, and it
// is allowed for one request in a hundred.)
func TestChainRunsOnOneWorkerAllocations(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeEvent, core.ModePolling} {
		t.Run(mode.String(), func(t *testing.T) { chainRunsOnOneWorker(t, mode) })
	}
}

func chainRunsOnOneWorker(t *testing.T, mode core.Mode) {
	const hops = 12
	var ranOn [hops]uint64 // goroutine of each handler's last run, while recording
	var headMoved int      // runs of f0 on another goroutine than its run before
	recording := true
	spec := core.ChainSpec{
		Name: fmt.Sprintf("onegoroutine%d", mode), Mode: mode,
		Routes: []core.RouteSpec{{From: "", To: []string{"f0"}}},
	}
	for i := 0; i < hops; i++ {
		spec.Functions = append(spec.Functions, core.FunctionSpec{
			Name: fmt.Sprintf("f%d", i),
			Handler: func(ctx *core.Ctx) error {
				if recording {
					id := goroutineID()
					if i == 0 && ranOn[0] != 0 && id != ranOn[0] {
						headMoved++
					}
					ranOn[i] = id
				}
				ctx.Payload()[0]++
				return nil
			},
		})
		if i > 0 {
			spec.Routes = append(spec.Routes, core.RouteSpec{From: fmt.Sprintf("f%d", i-1), To: []string{fmt.Sprintf("f%d", i)}})
		}
	}
	d, err := NewCluster(1).Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload, dst := []byte{0, 7}, make([]byte, 2)
	invoke := func() {
		if n, err := d.Gateway.InvokeInto(context.Background(), "", payload, dst); err != nil || n != 2 || dst[0] != hops || dst[1] != 7 {
			t.Fatalf("InvokeInto: %d bytes %v, %v", n, dst[:n], err)
		}
	}
	oneWorker := func() {
		t.Helper()
		for i, id := range ranOn {
			if id != ranOn[0] || id == goroutineID() {
				t.Fatalf("f%d ran on goroutine %d, f0 on %d, the caller is %d: want one worker for the whole chain", i, id, ranOn[0], goroutineID())
			}
		}
	}
	invoke()
	oneWorker()
	if mode == core.ModePolling {
		spinning := idleSpinners(t, hops)
		const requests = 2000
		ranOn[0], headMoved = 0, 0
		invoke()
		first := ranOn[0]
		for i := 1; i < requests; i++ {
			invoke()
			oneWorker()
		}
		t.Logf("%d changes of goroutine at the head in %d requests", headMoved, requests)
		if !spinning[first] || headMoved > requests/100 {
			t.Errorf("the chain first ran on goroutine %d and changed goroutine %d times in %d requests; want a worker that was polling (%v) and no parked one woken",
				first, headMoved, requests, spinning)
		}
	}
	for _, in := range d.Chain.Instances() {
		if q := in.QueuedHops(); q != 0 {
			t.Errorf("%s: %d hops queued, want none", in.Function(), q)
		}
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random there, and every drop is an allocation
	}
	recording = false
	for i := 0; i < 200; i++ { // pools
		invoke()
	}
	if avg := testing.AllocsPerRun(2000, invoke); avg >= 1 {
		t.Errorf("%.2f allocations per %d-hop request, want none", avg, hops)
	} else {
		t.Logf("%.3f allocations per %d-hop request", avg, hops)
	}
	if err := d.Chain.Pool().LeakCheck(); err != nil {
		t.Error(err)
	}
}

// idleSpinners waits until an idle polled chain has settled — every worker
// started has either taken its ring or parked — and returns the goroutines
// spinning on a ring, which must be want of them: one worker per instance and
// nothing else, the gateway having no ring.
func idleSpinners(t *testing.T, want int) map[uint64]bool {
	t.Helper()
	spinning := map[uint64]bool{}
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		var profile strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&profile, 2); err != nil {
			t.Fatal(err)
		}
		clear(spinning)
		started, foreign := true, 0
		for _, g := range strings.Split(profile.String(), "\n\n") {
			switch {
			case strings.Contains(g, "ring.(*Ring).PollDequeueBurst") && strings.Contains(g, "core.(*Instance).work"):
				id, _ := strconv.ParseUint(strings.Fields(g)[1], 10, 64)
				spinning[id] = true
			case strings.Contains(g, "ring.(*Ring).PollDequeueBurst"):
				foreign++
			case strings.Contains(g, "startWorkersLocked") && !strings.Contains(g, "core.(*Instance).work("):
				started = false // a worker that has yet to run
			}
		}
		if started && len(spinning) == want && foreign == 0 {
			return spinning
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers and %d other goroutines spinning on an idle %d-function chain, want one worker per instance:\n%s",
				len(spinning), foreign, want, profile.String())
		}
	}
}

// goroutineID is the calling goroutine's ID, for telling who ran a handler.
func goroutineID() uint64 {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)])) // "goroutine 123 [running]:"
	id, _ := strconv.ParseUint(fields[1], 10, 64)
	return id
}

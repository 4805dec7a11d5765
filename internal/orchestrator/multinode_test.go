package orchestrator

// Multi-node E2E: chains placed across two simulated worker nodes talking
// over the loopback mesh. Covers the tentpole acceptance criteria — correct
// results across the wire, one trace ID spanning both nodes with the
// cross-node hop visible as a span, clean shm pools on both sides — plus
// the chaos path (injected link kill → reconnect; exhausted link → a
// reason-attributed failure, not a leak or a deadline blackhole).

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/transport"
)

// placedSpec builds a two-function chain with f1 on worker-1 and f2 on
// worker-2: f1 uppercases, f2 appends a suffix and replies.
func placedSpec(name string) core.ChainSpec {
	return core.ChainSpec{
		Name:             name,
		Mode:             core.ModeEvent,
		TraceSampleEvery: 1,
		Deadline:         5 * time.Second,
		Functions: []core.FunctionSpec{
			{
				Name: "f1", Node: "worker-1",
				Handler: func(ctx *core.Ctx) error {
					b := ctx.Payload()
					for i := range b {
						if b[i] >= 'a' && b[i] <= 'z' {
							b[i] -= 32
						}
					}
					return nil
				},
			},
			{
				Name: "f2", Node: "worker-2",
				Handler: func(ctx *core.Ctx) error {
					return ctx.SetPayload(append(ctx.Payload(), []byte("+f2")...))
				},
			},
		},
		Routes: []core.RouteSpec{
			{From: "", To: []string{"f1"}},
			{From: "f1", To: []string{"f2"}},
		},
	}
}

func TestPlacedChainCrossNodeE2E(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	pd, err := cluster.Controller.DeployPlacedChain(placedSpec("xnode"))
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}

	out, err := pd.Gateway().Invoke(context.Background(), "/x", []byte("hello"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !bytes.Equal(out, []byte("HELLO+f2")) {
		t.Fatalf("cross-node result %q, want %q", out, "HELLO+f2")
	}

	// One trace ID spans both nodes, and the cross-node hop is a span.
	headTr := pd.Head().Chain.Tracer()
	if headTr == nil {
		t.Fatalf("head variant has no tracer")
	}
	headTraces := headTr.Retained()
	if len(headTraces) == 0 {
		t.Fatalf("no completed trace on head node")
	}
	ht := headTraces[len(headTraces)-1]
	sawForward := false
	for _, s := range ht.Spans {
		if s.Stage == core.StageXNodeForward {
			sawForward = true
			if s.Function != "f2" {
				t.Fatalf("forward span function %q, want f2", s.Function)
			}
		}
	}
	if !sawForward {
		t.Fatalf("head trace has no %s span: %+v", core.StageXNodeForward, ht.Spans)
	}
	remote := pd.Variant("worker-2")
	if remote == nil {
		t.Fatalf("no worker-2 variant")
	}
	var remoteMatch bool
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !remoteMatch {
		for _, rt := range remote.Chain.Tracer().Retained() {
			if rt.ID == ht.ID {
				remoteMatch = true
				if len(rt.Spans) == 0 {
					t.Fatalf("remote trace %s has no spans", rt.ID)
				}
			}
		}
		if !remoteMatch {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !remoteMatch {
		t.Fatalf("trace %s did not span worker-2 (remote traces: %d)",
			ht.ID, len(remote.Chain.Tracer().Retained()))
	}

	// Fire-and-forget crosses nodes too.
	if err := pd.Gateway().InvokeAsync("/x", []byte("async")); err != nil {
		t.Fatalf("InvokeAsync: %v", err)
	}

	// Both nodes' pools come back clean once traffic drains.
	waitLeakFree(t, pd)
	pd.Close()
}

func waitLeakFree(t *testing.T, pd *PlacedDeployment) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := true
		for _, node := range []string{"worker-1", "worker-2"} {
			if v := pd.Variant(node); v != nil && v.Chain.Pool().LeakCheck() != nil {
				clean = false
			}
		}
		if clean {
			return
		}
		if time.Now().After(deadline) {
			for _, node := range []string{"worker-1", "worker-2"} {
				if v := pd.Variant(node); v != nil {
					if err := v.Chain.Pool().LeakCheck(); err != nil {
						t.Errorf("%s pool leak: %v", node, err)
					}
				}
			}
			t.Fatalf("pools did not drain clean before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStoresDrained polls until every involved node's object store is
// leak-free (request teardown is asynchronous to the response).
func waitStoresDrained(t *testing.T, pd *PlacedDeployment, nodes ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := true
		for _, node := range nodes {
			v := pd.Variant(node)
			if v == nil {
				continue
			}
			if st := v.Chain.ObjectStore(); st != nil && st.LeakCheck() != nil {
				clean = false
			}
		}
		if clean {
			return
		}
		if time.Now().After(deadline) {
			for _, node := range nodes {
				if v := pd.Variant(node); v != nil {
					if st := v.Chain.ObjectStore(); st != nil {
						if err := st.LeakCheck(); err != nil {
							t.Errorf("%s object store leak: %v", node, err)
						}
					}
				}
			}
			t.Fatalf("object stores did not drain before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPlacedChainCrossNodeLargePayload drives a >BufSize request across the
// mesh: worker-1 admits it into the object tier (Len=0 carrier buffer), the
// transport stub must forward the OBJECT's bytes — not the empty in-buffer
// payload — and worker-2 re-admits them through its own large-payload path.
// The untouched echo response crosses back the same way.
func TestPlacedChainCrossNodeLargePayload(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	var remoteSawObject bool
	spec := core.ChainSpec{
		Name:        "xnode-large",
		Mode:        core.ModeEvent,
		PoolBuffers: 128,
		BufSize:     4096,
		Deadline:    5 * time.Second,
		Functions: []core.FunctionSpec{
			{
				Name: "relay", Node: "worker-1",
				Handler: func(ctx *core.Ctx) error { return nil },
			},
			{
				Name: "sink", Node: "worker-2",
				Handler: func(ctx *core.Ctx) error {
					// The body must arrive via worker-2's own object tier,
					// not as a (impossible) >BufSize in-buffer payload.
					remoteSawObject = len(ctx.Payload()) == 0 && ctx.ObjectHandle().Valid()
					return nil
				},
			},
		},
		Routes: []core.RouteSpec{
			{From: "", To: []string{"relay"}},
			{From: "relay", To: []string{"sink"}},
		},
	}
	pd, err := cluster.Controller.DeployPlacedChain(spec)
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}

	want := make([]byte, 50_000)
	for i := range want {
		want[i] = byte(i*13 + 7)
	}
	out, err := pd.Gateway().Invoke(context.Background(), "/big", want)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("cross-node large echo: %d bytes back, want %d (match=%v)",
			len(out), len(want), bytes.Equal(out, want))
	}
	if !remoteSawObject {
		t.Fatalf("remote handler did not receive the body through the object tier")
	}

	waitLeakFree(t, pd)
	waitStoresDrained(t, pd, "worker-1", "worker-2")
	pd.Close()
}

// TestPlacedChainCrossNodeAttachedObject covers the auxiliary flavor: a
// handler on worker-1 attaches an object alongside a small in-buffer
// payload; the frame's object section carries it to worker-2, where it is
// re-materialized into that node's store and readable via OpenObject.
func TestPlacedChainCrossNodeAttachedObject(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	blob := make([]byte, 30_000)
	for i := range blob {
		blob[i] = byte(i*31 + 11)
	}
	spec := core.ChainSpec{
		Name:        "xnode-attach",
		Mode:        core.ModeEvent,
		PoolBuffers: 128,
		BufSize:     4096,
		Deadline:    5 * time.Second,
		Functions: []core.FunctionSpec{
			{
				Name: "producer", Node: "worker-1",
				Handler: func(ctx *core.Ctx) error {
					h, err := ctx.PutObject("", blob)
					if err != nil {
						return err
					}
					if err := ctx.AttachObject(h); err != nil {
						return err
					}
					return ctx.SetPayload([]byte("meta"))
				},
			},
			{
				Name: "consumer", Node: "worker-2",
				Handler: func(ctx *core.Ctx) error {
					if got := string(ctx.Payload()); got != "meta" {
						return fmt.Errorf("payload %q, want %q", got, "meta")
					}
					r, err := ctx.OpenObject()
					if err != nil {
						return fmt.Errorf("open forwarded object: %w", err)
					}
					defer r.Close()
					got := make([]byte, r.Size())
					if r.Size() > 0 {
						if _, err := r.ReadAt(got, 0); err != nil {
							return err
						}
					}
					if !bytes.Equal(got, blob) {
						return fmt.Errorf("forwarded object %d bytes, corrupt or truncated", len(got))
					}
					ctx.DetachObject()
					ctx.Reply()
					return ctx.SetPayload([]byte("verified"))
				},
			},
		},
		Routes: []core.RouteSpec{
			{From: "", To: []string{"producer"}},
			{From: "producer", To: []string{"consumer"}},
		},
	}
	pd, err := cluster.Controller.DeployPlacedChain(spec)
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}

	out, err := pd.Gateway().Invoke(context.Background(), "/attach", []byte("go"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(out) != "verified" {
		t.Fatalf("consumer verdict %q, want %q", out, "verified")
	}

	waitLeakFree(t, pd)
	waitStoresDrained(t, pd, "worker-1", "worker-2")
	pd.Close()
}

func TestPlacedChainChaosReconnectAndDropAttribution(t *testing.T) {
	inj := fault.New(7)
	cluster := NewCluster(2)
	cfg := transport.Config{Injector: inj, MaxAttempts: 4,
		DialBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	if err := cluster.StartMesh(cfg); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	pd, err := cluster.Controller.DeployPlacedChain(placedSpec("chaos"))
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()

	// Warm the link.
	if _, err := pd.Gateway().Invoke(context.Background(), "/x", []byte("warm")); err != nil {
		t.Fatalf("warm invoke: %v", err)
	}

	// Phase 1 — transient link kills: the peer listener stays up, so every
	// injected kill is followed by a reconnect and the traffic still lands.
	inj.Add(fault.Rule{Op: fault.OpQueueFull, Function: "net:worker-1", Hop: "net:worker-2",
		Probability: 1, MaxCount: 2})
	for i := 0; i < 5; i++ {
		out, err := pd.Gateway().Invoke(context.Background(), "/x", []byte("back"))
		if err != nil {
			t.Fatalf("invoke %d during chaos: %v", i, err)
		}
		if !bytes.Equal(out, []byte("BACK+f2")) {
			t.Fatalf("chaos result %q", out)
		}
	}

	// Phase 2 — peer node goes dark: its mesh (listener included) closes,
	// and one more injected kill discards worker-1's stale conn so the
	// writer must redial. The dial is refused until the reconnect budget
	// exhausts, and the in-flight forward fails fast with the drop reason
	// attributed — no leak, no deadline blackhole.
	inj.Add(fault.Rule{Op: fault.OpQueueFull, Function: "net:worker-1", Hop: "net:worker-2",
		Probability: 1, MaxCount: 1})
	cluster.Nodes()[1].Mesh.Close()
	_, err = pd.Gateway().Invoke(context.Background(), "/x", []byte("doomed"))
	if err == nil {
		t.Fatalf("invoke through a dead node succeeded")
	}
	if !strings.Contains(err.Error(), transport.DropConnDown) {
		t.Fatalf("failure not attributed to conn_down: %v", err)
	}

	node1 := cluster.Nodes()[0]
	st := node1.Mesh.Stats()
	var reconnects, connDown uint64
	for _, ps := range st.Sent {
		if ps.Peer == "worker-2" {
			reconnects = ps.Reconnects
			connDown = ps.Drops[transport.DropConnDown]
		}
	}
	if reconnects == 0 {
		t.Fatalf("no reconnect counted after injected link kills")
	}
	if connDown == 0 {
		t.Fatalf("conn_down drop not counted on worker-1→worker-2")
	}
	gs := pd.Gateway().Stats()
	if gs.Failed == 0 {
		t.Fatalf("gateway failure counter did not attribute the dropped forward")
	}
	waitLeakFree(t, pd)
}

// TestPlacedChainBatchingUnderLoad drives concurrent cross-node traffic and
// asserts the writer coalesced frames (batched-frames-per-write > 1).
func TestPlacedChainBatchingUnderLoad(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	spec := placedSpec("batch")
	spec.Functions[1].Instances = 4
	spec.Functions[1].Concurrency = 64
	pd, err := cluster.Controller.DeployPlacedChain(spec)
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()

	node1 := cluster.Nodes()[0]
	maxBatch := func() float64 {
		for _, ps := range node1.Mesh.Stats().Sent {
			if ps.Peer == "worker-2" && ps.FramesPerWrite.Count() > 0 {
				return ps.FramesPerWrite.Max()
			}
		}
		return 0
	}

	deadline := time.Now().Add(10 * time.Second)
	for maxBatch() <= 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no batched write observed under concurrent load (max batch %.1f)", maxBatch())
		}
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("req-%d", i))
				if _, err := pd.Gateway().Invoke(context.Background(), "/x", payload); err != nil {
					t.Errorf("invoke: %v", err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	waitLeakFree(t, pd)
}

// TestPlacedChainAutoscalerRemoteBacklog wires the autoscaler to the mesh
// backlog hook and checks the demand signal includes queued frames.
func TestPlacedChainAutoscalerRemoteBacklog(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	pd, err := cluster.Controller.DeployPlacedChain(placedSpec("scalemesh"))
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()

	as, err := pd.EnableAutoscaling(AutoscalerConfig{Target: 1, MaxReplicas: 4, Interval: time.Hour})
	if err != nil {
		t.Fatalf("EnableAutoscaling: %v", err)
	}
	if as == nil {
		t.Fatalf("nil autoscaler")
	}
	// The hook resolves f2's backlog through the mesh ring (0 when idle)
	// and f1's (local) to 0.
	if got := as.remoteBacklog("f2"); got != 0 {
		t.Fatalf("idle remote backlog %d, want 0", got)
	}
	if got := as.remoteBacklog("f1"); got != 0 {
		t.Fatalf("local fn backlog %d, want 0", got)
	}
	// Evaluate must run clean with the hook installed.
	as.Evaluate()
}

// TestNetMetricsConformance is the exporter conformance test for the
// spright_net_* families: drive cross-node traffic, scrape the registry,
// and assert the exposition equals Mesh.Stats exactly.
func TestNetMetricsConformance(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()

	pd, err := cluster.Controller.DeployPlacedChain(placedSpec("netconf"))
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()

	const requests = 32
	for i := 0; i < requests; i++ {
		if _, err := pd.Gateway().Invoke(context.Background(), "/x", []byte("ping")); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	// A peer writer bumps its counters one by one after WriteTo returns, so
	// the last reply can reach its caller first. Scrape only once every
	// sender has accounted for its frames and two consecutive snapshots
	// agree: nothing moves after that.
	var prev []transport.MeshStats
	pollUntil(t, 5*time.Second, "mesh counters to settle", func() bool {
		var cur []transport.MeshStats
		sentAll := true
		for _, n := range cluster.Nodes() {
			st := n.Mesh.Stats()
			for _, ps := range st.Sent {
				sentAll = sentAll && ps.FramesSent >= requests
			}
			cur = append(cur, st)
		}
		settled := sentAll && reflect.DeepEqual(cur, prev)
		prev = cur
		return settled
	})

	var buf bytes.Buffer
	if err := cluster.Observability().Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	expo := parseNetExposition(t, buf.String())

	for _, n := range cluster.Nodes() {
		st := n.Mesh.Stats()
		for _, ps := range st.Sent {
			base := fmt.Sprintf(`{node=%q,peer=%q}`, st.Node, ps.Peer)
			assertExpo(t, expo, "spright_net_frames_sent_total"+base, float64(ps.FramesSent))
			assertExpo(t, expo, "spright_net_bytes_sent_total"+base, float64(ps.BytesSent))
			assertExpo(t, expo, "spright_net_writes_total"+base, float64(ps.Writes))
			assertExpo(t, expo, "spright_net_reconnects_total"+base, float64(ps.Reconnects))
			assertExpo(t, expo, "spright_net_send_ring_depth"+base, float64(ps.QueueDepth))
			for _, reason := range []string{transport.DropBacklog, transport.DropConnDown, transport.DropClosed} {
				key := fmt.Sprintf(`spright_net_drops_total{node=%q,peer=%q,reason=%q}`, st.Node, ps.Peer, reason)
				assertExpo(t, expo, key, float64(ps.Drops[reason]))
			}
			if ps.Writes > 0 {
				cnt := fmt.Sprintf(`spright_net_frames_per_write_count{node=%q,peer=%q}`, st.Node, ps.Peer)
				if _, ok := expo[cnt]; !ok {
					t.Errorf("missing per-write summary count sample %s", cnt)
				}
			}
		}
		for _, rs := range st.Received {
			base := fmt.Sprintf(`{node=%q,peer=%q}`, st.Node, rs.Peer)
			assertExpo(t, expo, "spright_net_frames_received_total"+base, float64(rs.FramesReceived))
			assertExpo(t, expo, "spright_net_bytes_received_total"+base, float64(rs.BytesReceived))
		}
		assertExpo(t, expo, fmt.Sprintf(`spright_net_recv_errors_total{node=%q}`, st.Node), float64(st.RecvErrors))
	}
}

func parseNetExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func assertExpo(t *testing.T, expo map[string]float64, key string, want float64) {
	t.Helper()
	got, ok := expo[key]
	if !ok {
		t.Errorf("exposition missing %s", key)
		return
	}
	if got != want {
		t.Errorf("%s = %g, want %g", key, got, want)
	}
}

// benchLikeSpec is the benchmark's xnode-chain: f0 on worker-1, f1 on
// worker-2, pool buffers large enough for a 16 KiB body, no deadline.
func benchLikeSpec(name string, f1 core.Handler) core.ChainSpec {
	return core.ChainSpec{
		Name:    name,
		Mode:    core.ModeEvent,
		BufSize: 32 << 10,
		Functions: []core.FunctionSpec{
			{Name: "f0", Node: "worker-1", Handler: func(*core.Ctx) error { return nil }},
			{Name: "f1", Node: "worker-2", Handler: f1},
		},
		Routes: []core.RouteSpec{
			{From: "", To: []string{"f0"}},
			{From: "f0", To: []string{"f1"}},
		},
	}
}

// TestCrossNodeRoundTripAllocations is the gate on the cross-node request
// path: a warm 16 KiB InvokeInto across two nodes does not allocate, both
// nodes' goroutines counted (AllocsPerRun reads the process-wide malloc
// counter) — no per-frame strings, no escaping frame, no closure, no
// goroutine, no iovec per flush. The average is not exactly zero: one request
// in 1024 is traced, and a GC empties the sync.Pools.
func TestCrossNodeRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random, and every drop is an allocation")
	}
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()
	pd, err := cluster.Controller.DeployPlacedChain(benchLikeSpec("xalloc", func(ctx *core.Ctx) error {
		p := ctx.Payload()
		p[0]++
		return nil
	}))
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()

	payload := bytes.Repeat([]byte{7}, 16<<10)
	dst := make([]byte, len(payload))
	gw, ctx := pd.Gateway(), context.Background()
	invoke := func() {
		n, err := gw.InvokeInto(ctx, "", payload, dst)
		if err != nil || n != len(payload) || dst[0] != 8 || dst[n-1] != 7 {
			t.Fatalf("InvokeInto: %d bytes, %v", n, err)
		}
	}
	for i := 0; i < 200; i++ { // slots, read buffers, interned names, pools
		invoke()
	}
	if avg := testing.AllocsPerRun(2000, invoke); avg >= 1 {
		t.Errorf("%.2f allocations per cross-node round trip, want none", avg)
	} else {
		t.Logf("%.3f allocations per cross-node round trip", avg)
	}
	waitLeakFree(t, pd)
}

// TestRemoteRequestsSpawnNoGoroutines: requests a peer forwarded here wait
// as pending entries, not as goroutines — with a burst of them held inside
// f1, the only goroutines inside any gateway are the origin's parked callers
// and the metrics agents.
func TestRemoteRequestsSpawnNoGoroutines(t *testing.T) {
	cluster := NewCluster(2)
	if err := cluster.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cluster.StopMesh()
	gate := make(chan struct{})
	pd, err := cluster.Controller.DeployPlacedChain(benchLikeSpec("xburst", func(*core.Ctx) error {
		<-gate
		return nil
	}))
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()

	inGateway := func() (parked, other int) {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
			t.Fatal(err)
		}
		for _, g := range strings.Split(buf.String(), "\n\n") {
			switch {
			case !strings.Contains(g, "core.(*Gateway)."):
			case strings.Contains(g, "core.(*Gateway).metricsAgent"):
			case strings.Contains(g, "core.(*Gateway).await"):
				parked++
			default:
				other++
				t.Logf("unexpected goroutine inside a gateway:\n%s", g)
			}
		}
		return parked, other
	}

	const burst = 16
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := pd.Gateway().Invoke(ctx, "", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	remote := pd.Variant("worker-2").Gateway
	pollUntil(t, 5*time.Second, "the burst to be pending on worker-2", func() bool { return remote.Stats().Pending == burst })
	if parked, other := inGateway(); parked != burst || other != 0 {
		t.Errorf("%d callers parked and %d other goroutines inside gateways, want %d and 0", parked, other, burst)
	}
	close(gate)
	wg.Wait()
	waitLeakFree(t, pd)
}

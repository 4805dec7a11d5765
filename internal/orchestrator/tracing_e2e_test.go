package orchestrator

// End-to-end distributed-tracing tests: one request crossing two deployed
// chains (via Ctx.TraceContext + core.WithTraceContext) and a DFR fan-out
// must yield a single trace ID with correctly parented spans, visible
// through the cluster observability layer's /traces endpoint; tail-based
// sampling must retain faulted / over-threshold requests even when head
// sampling would drop them; and every surface that hands traces out
// (/traces, /traces?format=otlp, a watchdog bundle's traces.json) serves
// the same OTLP document, tail markers included.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/transport"
)

// handlerSpans returns the handler-stage spans of a trace keyed by function.
func handlerSpans(tr *core.Trace) map[string][]core.Span {
	out := make(map[string][]core.Span)
	for _, s := range tr.Spans {
		if s.Stage == core.StageHandler {
			out[s.Function] = append(out[s.Function], s)
		}
	}
	return out
}

// tailTraces returns the tracer's retained traces that tail sampling kept.
func tailTraces(tr *core.Tracer) []*core.Trace {
	var out []*core.Trace
	for _, t := range tr.Retained() {
		if t.Tail {
			out = append(out, t)
		}
	}
	return out
}

// otlpRoots parses one OTLP/HTTP JSON document and returns the attributes
// of each trace's root request span, keyed by service name, then trace ID.
func otlpRoots(t *testing.T, body []byte) map[string]map[string]map[string]string {
	t.Helper()
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []otlpTestKV `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID    string       `json:"traceId"`
					Name       string       `json:"name"`
					Attributes []otlpTestKV `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.ResourceSpans == nil {
		t.Fatalf("not an OTLP document (%v): %s", err, body)
	}
	attrs := func(kvs []otlpTestKV) map[string]string {
		m := make(map[string]string, len(kvs))
		for _, kv := range kvs {
			m[kv.Key] = kv.Value.StringValue + kv.Value.IntValue
		}
		return m
	}
	out := make(map[string]map[string]map[string]string)
	for _, rs := range doc.ResourceSpans {
		svc := attrs(rs.Resource.Attributes)["service.name"]
		out[svc] = make(map[string]map[string]string)
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if sp.Name == core.StageRequest {
					out[svc][sp.TraceID] = attrs(sp.Attributes)
				}
			}
		}
	}
	return out
}

type otlpTestKV struct {
	Key   string `json:"key"`
	Value struct {
		StringValue string `json:"stringValue"`
		IntValue    string `json:"intValue"`
	} `json:"value"`
}

func TestCrossChainFanOutSingleTrace(t *testing.T) {
	cl := NewCluster(1)

	// Downstream chain "beta": a plain echo, sampling every request so an
	// adopted inbound context is always traced.
	depB, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:             "beta",
		TraceSampleEvery: 1,
		Functions: []core.FunctionSpec{{
			Name: "b1",
			Handler: func(ctx *core.Ctx) error {
				return ctx.SetPayload(append(ctx.Payload(), ":beta"...))
			},
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"b1"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer depB.Close()

	// Upstream chain "alpha": a1 fans out to {a2, a3}; a2 crosses into
	// chain beta carrying the shared-memory trace context, then replies;
	// a3 is a fire-and-forget branch that drops.
	depA, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:             "alpha",
		TraceSampleEvery: 1,
		Functions: []core.FunctionSpec{
			{Name: "a1", Handler: func(ctx *core.Ctx) error { return nil }},
			{Name: "a2", Handler: func(ctx *core.Ctx) error {
				downstream := core.WithTraceContext(context.Background(), ctx.TraceContext())
				out, err := depB.Gateway.Invoke(downstream, "", ctx.Payload())
				if err != nil {
					return err
				}
				if err := ctx.SetPayload(out); err != nil {
					return err
				}
				ctx.Reply()
				return nil
			}},
			{Name: "a3", Handler: func(ctx *core.Ctx) error { ctx.Drop(); return nil }},
		},
		Routes: []core.RouteSpec{
			{From: "", To: []string{"a1"}},
			{From: "a1", To: []string{"a2", "a3"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer depA.Close()

	out, err := depA.Gateway.Invoke(context.Background(), "", []byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "req:beta" {
		t.Fatalf("cross-chain payload %q, want %q", out, "req:beta")
	}

	trA, trB := depA.Chain.Tracer(), depB.Chain.Tracer()
	if trA == nil || trB == nil {
		t.Fatal("both chains must have tracers")
	}

	// Spans recorded on branch goroutines may land just after the waiter
	// returns (the tracer keeps a late-attach window for them): poll until
	// the full picture is visible.
	var tA, tB *core.Trace
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if da, db := trA.Retained(), trB.Retained(); len(da) > 0 && len(db) > 0 {
			tA, tB = da[len(da)-1], db[len(db)-1]
			if len(handlerSpans(tA)) == 3 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if tA == nil || tB == nil {
		t.Fatalf("traces not retained: alpha=%d beta=%d",
			trA.TotalSampled(), trB.TotalSampled())
	}

	// One distributed trace across both chains.
	if tA.ID == (core.TraceID{}) {
		t.Fatal("alpha trace has a zero trace ID")
	}
	if tB.ID != tA.ID {
		t.Fatalf("beta trace ID %s != alpha trace ID %s (context not propagated)",
			tB.ID, tA.ID)
	}

	// The fan-out produced a handler span per branch plus the head.
	hs := handlerSpans(tA)
	for _, fn := range []string{"a1", "a2", "a3"} {
		if len(hs[fn]) != 1 {
			t.Fatalf("handler spans for %s: %d, want 1 (spans: %+v)", fn, len(hs[fn]), tA.Spans)
		}
	}

	// Every parent resolves within the union of both chains' spans; beta's
	// root must be parented on an alpha handler span (the cross-chain hop).
	ids := make(map[uint64]core.Span)
	for _, s := range append(append([]core.Span{}, tA.Spans...), tB.Spans...) {
		if s.ID == 0 {
			t.Fatalf("span with zero ID: %+v", s)
		}
		ids[s.ID] = s
	}
	roots := 0
	for _, s := range append(append([]core.Span{}, tA.Spans...), tB.Spans...) {
		if s.Parent == 0 {
			roots++
			continue
		}
		if _, ok := ids[s.Parent]; !ok {
			t.Fatalf("span %016x (%s) has unresolvable parent %016x", s.ID, s.Stage, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("%d parentless spans across both chains, want exactly 1 root", roots)
	}
	var bRoot *core.Span
	for i, s := range tB.Spans {
		if s.Stage == core.StageRequest {
			bRoot = &tB.Spans[i]
		}
	}
	if bRoot == nil {
		t.Fatalf("beta trace has no request span: %+v", tB.Spans)
	}
	if p, ok := ids[bRoot.Parent]; !ok || p.Stage != core.StageHandler {
		t.Fatalf("beta root parent %016x is not an alpha handler span (got %+v)",
			bRoot.Parent, p)
	}

	// The distributed trace is visible on the admin surface as OTLP JSON.
	mux := cl.Observability().AdminMux()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/traces: code %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/traces Content-Type %q, want application/json", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"resourceSpans"`) {
		t.Fatalf("OTLP body missing resourceSpans: %s", body)
	}
	if !strings.Contains(body, tA.ID.String()) {
		t.Fatalf("OTLP body missing trace ID %s:\n%s", tA.ID, body)
	}
	for _, svc := range []string{"spright/alpha", "spright/beta"} {
		if !strings.Contains(body, svc) {
			t.Fatalf("OTLP body missing service %q", svc)
		}
	}
}

// TestTailSamplingRetainsFaultedRequest: at the production head-sampling
// period (1-in-1024) a single faulted request would normally be invisible;
// tail-based sampling must retain it anyway.
func TestTailSamplingRetainsFaultedRequest(t *testing.T) {
	cl := NewCluster(1)
	inj := fault.New(42).Add(fault.Rule{Op: fault.OpError, Function: "g1", Probability: 1})
	dep, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:             "gamma",
		TraceSampleEvery: 1024,
		Injector:         inj,
		Functions: []core.FunctionSpec{{
			Name:    "g1",
			Handler: func(ctx *core.Ctx) error { return nil },
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"g1"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected fault not surfaced: %v", err)
	}

	tail := tailTraces(dep.Chain.Tracer())
	if len(tail) == 0 {
		t.Fatal("faulted request not tail-retained at sample period 1024")
	}
	got := tail[len(tail)-1]
	if !got.Tail {
		t.Fatal("tail-retained trace not flagged Tail")
	}
	if got.Err == "" {
		t.Fatalf("tail-retained trace has no error: %+v", got)
	}
	if got.ID == (core.TraceID{}) {
		t.Fatal("tail-retained trace has a zero trace ID")
	}
}

// TestTailSamplingRetainsSlowRequest: a request slower than the chain's
// TraceTailLatency threshold is retained even when head sampling skips it.
func TestTailSamplingRetainsSlowRequest(t *testing.T) {
	cl := NewCluster(1)
	dep, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:             "delta",
		TraceSampleEvery: 1024,
		TraceTailLatency: time.Millisecond,
		Functions: []core.FunctionSpec{{
			Name:        "d1",
			ServiceTime: 5 * time.Millisecond,
			Handler:     func(ctx *core.Ctx) error { return nil },
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"d1"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	tail := tailTraces(dep.Chain.Tracer())
	if len(tail) == 0 {
		t.Fatal("over-threshold request not tail-retained")
	}
	got := tail[len(tail)-1]
	if !got.Tail || got.Err != "" {
		t.Fatalf("tail trace: Tail=%v Err=%q, want latency-retained success", got.Tail, got.Err)
	}
	if got.Elapsed() < time.Millisecond {
		t.Fatalf("tail trace elapsed %v, want >= threshold 1ms", got.Elapsed())
	}
}

// TestFaultedTraceTailMarkedOnEverySurface: a request that fails on the
// remote node of a placed chain is tail-retained on both nodes under one
// trace ID. /traces, /traces?format=otlp and the watchdog bundle's
// traces.json all carry it as OTLP, its root span marked spright.tail —
// the remote side's too, whose root parents onto the head node's
// cross-node span.
func TestFaultedTraceTailMarkedOnEverySurface(t *testing.T) {
	cl := NewCluster(2)
	if err := cl.StartMesh(transport.Config{}); err != nil {
		t.Fatalf("StartMesh: %v", err)
	}
	defer cl.StopMesh()
	spec := placedSpec("xtail")
	spec.ScrapeInterval = -1 // the test drives the watchdog
	spec.Functions[1].Handler = func(ctx *core.Ctx) error { return errors.New("f2 failed") }
	pd, err := cl.Controller.DeployPlacedChain(spec)
	if err != nil {
		t.Fatalf("DeployPlacedChain: %v", err)
	}
	defer pd.Close()
	bundleDir := t.TempDir()
	wd, err := cl.Controller.EnableSLOWatchdog("xtail", SLOPolicy{
		MaxErrorRate: 0.01, MinRequests: 1, BundleDir: bundleDir,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := pd.Gateway().Invoke(context.Background(), "/x", []byte("hello")); err == nil {
		t.Fatal("a request failing on worker-2 succeeded")
	}
	head, remote := pd.Head().Chain.Tracer(), pd.Variant("worker-2").Chain.Tracer()
	var id string
	deadline := time.Now().Add(2 * time.Second)
	for id == "" && time.Now().Before(deadline) {
		if ht, rt := tailTraces(head), tailTraces(remote); len(ht) == 1 && len(rt) == 1 && ht[0].ID == rt[0].ID {
			id = ht[0].ID.String()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if id == "" {
		t.Fatalf("the faulted request is not one tail-retained trace on both nodes: head %d, remote %d",
			len(tailTraces(head)), len(tailTraces(remote)))
	}

	if kinds := wd.Evaluate(time.Now()); len(kinds) == 0 {
		t.Fatal("one failed request in one did not breach a 1% error-rate objective")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if wd.captured.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bundle never captured")
		}
	}
	entries, err := os.ReadDir(bundleDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("bundles on disk: %v (%v), want one", entries, err)
	}
	bundle, err := os.ReadFile(filepath.Join(bundleDir, entries[0].Name(), "traces.json"))
	if err != nil {
		t.Fatal(err)
	}

	surfaces := map[string][]byte{"traces.json": bundle}
	mux := cl.Observability().AdminMux()
	for _, url := range []string{"/traces", "/traces?format=otlp"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: code %d", url, rec.Code)
		}
		surfaces[url] = rec.Body.Bytes()
	}
	for name, body := range surfaces {
		services := []string{"spright/xtail", "spright/xtail@worker-2"}
		if name == "traces.json" {
			services = services[:1] // a bundle holds its own chain's traces
		}
		roots := otlpRoots(t, body)
		for _, svc := range services {
			root, ok := roots[svc][id]
			if !ok {
				t.Errorf("%s: %s has no root span for trace %s", name, svc, id)
				continue
			}
			if root["spright.tail"] != "true" || root["spright.caller"] == "" {
				t.Errorf("%s: %s root span of trace %s lacks the tail or caller marker: %v", name, svc, id, root)
			}
		}
	}
}

// TestFileExporterShipsEachTraceOnce: the file exporter, run across at
// least one tick and its final flush on stop, writes every retained trace
// exactly once, as OTLP JSON lines.
func TestFileExporterShipsEachTraceOnce(t *testing.T) {
	cl := NewCluster(1)
	dep, err := cl.Controller.DeployChain(core.ChainSpec{
		Name:             "export",
		TraceSampleEvery: 1,
		Functions:        []core.FunctionSpec{{Name: "f", Handler: func(ctx *core.Ctx) error { return nil }}},
		Routes:           []core.RouteSpec{{From: "", To: []string{"f"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	stop, err := cl.Observability().StartFileExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	drive(10)
	// The first tick ships the first batch; the second batch goes out
	// with the flush on stop, beside traces the exporter has shipped.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if b, _ := os.ReadFile(path); len(b) > 0 {
			break
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatal("the exporter's tick wrote nothing")
		}
	}
	drive(10)
	stop()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("%d OTLP lines, want one per export that found new traces (>= 2)", len(lines))
	}
	written := make(map[string]int) // trace ID -> lines that carry it
	for _, ln := range lines {
		for id := range otlpRoots(t, []byte(ln))["spright/export"] {
			written[id]++
		}
	}
	retained := dep.Chain.Tracer().Retained()
	if len(retained) != 20 {
		t.Fatalf("%d traces retained, want 20", len(retained))
	}
	for _, tr := range retained {
		if n := written[tr.ID.String()]; n != 1 {
			t.Errorf("trace %s written %d times, want once", tr.ID, n)
		}
	}
	if len(written) != len(retained) {
		t.Errorf("%d traces in the file, %d retained", len(written), len(retained))
	}
}

package obs_test

// Exporter conformance: deploy real chains through the orchestrator, drive
// concurrent load, scrape /metrics over HTTP, and assert the exposition's
// counters equal the in-process sources exactly. Runs under -race in
// `make verify` — concurrent scrapes during load must be race-clean.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/orchestrator"
	"github.com/spright-go/spright/internal/shm"
)

func echoSpec(name string, mode core.Mode) core.ChainSpec {
	return core.ChainSpec{
		Name: name,
		Mode: mode,
		Functions: []core.FunctionSpec{{
			Name: "echo",
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
		Routes: []core.RouteSpec{{From: "", To: []string{"echo"}}},
	}
}

// parseExposition indexes an exposition body: "name{labels}" -> value.
func parseExposition(t *testing.T, body string) map[string]float64 {
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
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func scrape(t *testing.T, cluster *orchestrator.Cluster) (map[string]float64, string) {
	t.Helper()
	srv := httptest.NewServer(cluster.Observability().AdminMux())
	defer srv.Close()
	rec := httptest.NewRecorder()
	cluster.Observability().Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text exposition 0.0.4", ct)
	}
	body := rec.Body.String()
	return parseExposition(t, body), body
}

func TestExporterConformance(t *testing.T) {
	cluster := orchestrator.NewCluster(1)
	evDep, err := cluster.Controller.DeployChain(echoSpec("conf_event", core.ModeEvent))
	if err != nil {
		t.Fatal(err)
	}
	plDep, err := cluster.Controller.DeployChain(echoSpec("conf_poll", core.ModePolling))
	if err != nil {
		t.Fatal(err)
	}
	defer evDep.Close()

	// Concurrent load on both chains while a scraper hammers /metrics —
	// the race-cleanliness half of the conformance contract.
	stopScraper := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stopScraper:
				return
			default:
				rec := httptest.NewRecorder()
				cluster.Observability().Registry().ServeHTTP(rec,
					httptest.NewRequest("GET", "/metrics", nil))
				time.Sleep(time.Millisecond)
			}
		}
	}()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, d := range []*orchestrator.Deployment{evDep, plDep} {
					out, err := d.Gateway.Invoke(context.Background(), "",
						[]byte(fmt.Sprintf("req-%d-%d", w, i)))
					if err != nil {
						t.Errorf("invoke: %v", err)
						return
					}
					if !strings.HasPrefix(string(out), "REQ-") {
						t.Errorf("bad response %q", out)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopScraper)
	scraperWG.Wait()

	vals, body := scrape(t, cluster)

	// Counters in the exposition must equal the in-process sources exactly
	// (traffic is quiescent now).
	for _, d := range []*orchestrator.Deployment{evDep, plDep} {
		name := d.Chain.Name()
		gs := d.Gateway.Stats()
		for metric, want := range map[string]uint64{
			"spright_gateway_admitted_total":  gs.Admitted,
			"spright_gateway_completed_total": gs.Completed,
			"spright_gateway_rejected_total":  gs.Rejected,
			"spright_gateway_failed_total":    gs.Failed,
		} {
			key := fmt.Sprintf(`%s{chain="%s"}`, metric, name)
			got, ok := vals[key]
			if !ok {
				t.Fatalf("%s missing from exposition:\n%s", key, body)
			}
			if got != float64(want) {
				t.Errorf("%s = %v, want %d (Gateway.Stats)", key, got, want)
			}
		}
		if want := gs.Admitted; want != workers*perWorker {
			t.Errorf("%s admitted %d, want %d", name, want, workers*perWorker)
		}
		inuse := vals[fmt.Sprintf(`spright_shm_inuse_buffers{chain="%s"}`, name)]
		if got := float64(d.Chain.Pool().InUse()); inuse != got {
			t.Errorf("%s inuse gauge %v, want %v (Pool.InUse)", name, inuse, got)
		}
		lat := fmt.Sprintf(`spright_gateway_latency_seconds_count{chain="%s"}`, name)
		if got := vals[lat]; got != float64(gs.Completed) {
			t.Errorf("%s = %v, want %d", lat, got, gs.Completed)
		}
	}

	// Event-mode chain exposes EPROXY and SPROXY series; polling-mode chain
	// exposes ring series. Both merge into shared families.
	for _, want := range []string{
		`spright_eproxy_l3_packets_total{chain="conf_event"}`,
		`spright_sproxy_requests_total{chain="conf_event",function="echo",instance="1"}`,
		`spright_ring_enqueues_total{chain="conf_poll",instance="1"}`,
		`spright_socket_delivered_total{chain="conf_event",function="gateway",instance="0"}`,
		`spright_socket_delivered_total{chain="conf_poll",function="gateway",instance="0"}`,
		`spright_failures_total{chain="conf_event",kind="crash"}`,
		`spright_trace_sampled_total{chain="conf_event"}`,
	} {
		if _, ok := vals[want]; !ok {
			t.Errorf("exposition missing %s", want)
		}
	}
	// The gateway has a socket in both modes and a ring in neither: a reply is
	// delivered into its sink by the worker that sends it.
	if _, ok := vals[`spright_ring_enqueues_total{chain="conf_poll",instance="0"}`]; ok {
		t.Error("exposition has a ring series for the gateway")
	}
	// The EPROXY packet counter must equal admissions (one monitor run per
	// admitted request), and the SPROXY redirect count must equal the
	// instance socket's delivered count.
	if pk := vals[`spright_eproxy_l3_packets_total{chain="conf_event"}`]; pk != workers*perWorker {
		t.Errorf("eproxy packets %v, want %d", pk, workers*perWorker)
	}
	// One TYPE header per family even with two chains merged into it.
	if n := strings.Count(body, "# TYPE spright_gateway_admitted_total "); n != 1 {
		t.Errorf("%d TYPE headers for merged family, want 1", n)
	}

	// /healthz must be green, and /traces must carry both chains.
	srv := httptest.NewServer(cluster.Observability().AdminMux())
	defer srv.Close()
	rec := httptest.NewRecorder()
	cluster.Observability().HealthzHandler(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz %d: %s", rec.Code, rec.Body.String())
	}
	// At the default 1-in-1024 head sampling the load above may have traced
	// nothing; a request carrying a sampled context is always traced.
	for i, d := range []*orchestrator.Deployment{evDep, plDep} {
		ctx := core.WithTraceContext(context.Background(),
			shm.TraceContext{TraceHi: 1, TraceLo: uint64(i + 1), Span: 1, Flags: shm.TraceSampled})
		if _, err := d.Gateway.Invoke(ctx, "", []byte("traced")); err != nil {
			t.Fatal(err)
		}
	}
	rec = httptest.NewRecorder()
	cluster.Observability().TracesHandler(rec, httptest.NewRequest("GET", "/traces", nil))
	for _, svc := range []string{"spright/conf_event", "spright/conf_poll"} {
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), svc) {
			t.Errorf("/traces %d missing %s: %s", rec.Code, svc, rec.Body.String())
		}
	}

	// Teardown drops a chain's series from the next scrape.
	plDep.Close()
	vals2, body2 := scrape(t, cluster)
	if _, ok := vals2[`spright_gateway_admitted_total{chain="conf_poll"}`]; ok {
		t.Errorf("deleted chain still in exposition:\n%s", body2)
	}
	if _, ok := vals2[`spright_gateway_admitted_total{chain="conf_event"}`]; !ok {
		t.Errorf("surviving chain vanished from exposition:\n%s", body2)
	}
}

// TestHealthzReflectsCircuitBreaker: an instance with an open breaker must
// flip /healthz to 503 with the chain's check named.
func TestHealthzReflectsCircuitBreaker(t *testing.T) {
	cluster := orchestrator.NewCluster(1)
	spec := echoSpec("conf_health", core.ModeEvent)
	boom := true
	spec.Functions = append(spec.Functions, core.FunctionSpec{
		Name: "flaky",
		Handler: func(ctx *core.Ctx) error {
			if boom {
				return fmt.Errorf("boom")
			}
			return nil
		},
	})
	spec.Routes = []core.RouteSpec{{From: "", To: []string{"flaky"}}}
	spec.Health = core.HealthPolicy{ConsecutiveFailures: 3, OpenDuration: time.Minute}
	dep, err := cluster.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	for i := 0; i < 5; i++ {
		_, _ = dep.Gateway.Invoke(context.Background(), "", []byte("x"))
	}
	rec := httptest.NewRecorder()
	cluster.Observability().HealthzHandler(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz %d after breaker opened, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "conf_health") {
		t.Fatalf("/healthz failure does not name the chain: %s", rec.Body.String())
	}
}

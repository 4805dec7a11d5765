package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/boutique"
	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/orchestrator"
)

// zeroReader yields left zero bytes and counts how many it handed out.
type zeroReader struct{ left, read int }

func (z *zeroReader) Read(p []byte) (int, error) {
	if z.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), z.left)
	clear(p[:n])
	z.left -= n
	z.read += n
	return n, nil
}

// TestBoutiqueAwareBodyCap: the boutique shim streams the client's body to
// the gateway, whose body cap refuses an oversized one after at most the cap
// plus one byte — it is never read whole first.
func TestBoutiqueAwareBodyCap(t *testing.T) {
	const maxObj = 1 << 20
	cluster := orchestrator.NewCluster(1)
	spec := boutique.Spec(boutique.SpecOptions{})
	spec.Objects.MaxObjectBytes = maxObj
	dep, err := cluster.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	h := boutiqueAware(cluster.Ingress, "boutique", spec.Name)

	for _, tc := range []struct {
		name     string
		declared bool
	}{{"declared-length", true}, {"undeclared-length", false}} {
		t.Run(tc.name, func(t *testing.T) {
			body := &zeroReader{left: 8 << 20}
			req := httptest.NewRequest(http.MethodPost, "/boutique/?chain=1", body)
			req.ContentLength = -1
			if tc.declared {
				req.ContentLength = int64(body.left)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413 (%s)", rec.Code, rec.Body)
			}
			if body.read > maxObj+1 {
				t.Fatalf("read %d bytes of the client's body, want at most %d", body.read, maxObj+1)
			}
		})
	}

	t.Run("chain-2-reply", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/boutique/?chain=2", strings.NewReader("user-1"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d (%s)", rec.Code, rec.Body)
		}
		if out := rec.Body.Bytes(); len(out) < 2 || out[1] != 0x0f {
			t.Fatalf("reply %x, want second byte 0x0f", out)
		}
	})
	if err := dep.Chain.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsCoverStatsLines: every line the old hand-formatted /stats page
// printed has a /metrics family on the same mux, for a boutique chain
// deployed the way `-app boutique -autoscale` deploys it.
func TestMetricsCoverStatsLines(t *testing.T) {
	cluster := orchestrator.NewCluster(1)
	spec := boutique.Spec(boutique.SpecOptions{})
	spec.Admission = core.AdmissionPolicy{ParkCapacity: 16, ParkTimeout: time.Second}
	dep, err := cluster.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	as, err := cluster.Controller.EnableAutoscaling(spec.Name, orchestrator.AutoscalerConfig{
		Target: 32, MinReplicas: 1, MaxReplicas: 2, Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(as.Close)

	mux := http.NewServeMux()
	mux.Handle("/", boutiqueAware(cluster.Ingress, "boutique", spec.Name))
	cluster.Observability().Attach(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/boutique/?chain=0", strings.NewReader("user-1")))
	if rec.Code != http.StatusOK {
		t.Fatalf("request: status %d (%s)", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	exposition := rec.Body.String()

	for _, line := range []struct {
		name     string
		families []string
	}{
		{"gateway", []string{"spright_gateway_admitted_total", "spright_gateway_completed_total",
			"spright_gateway_rejected_total", "spright_gateway_latency_seconds"}},
		{"pool", []string{"spright_shm_inuse_buffers", "spright_shm_capacity_buffers",
			"spright_shm_highwater_buffers", "spright_shm_allocs_total"}},
		{"eproxy", []string{"spright_eproxy_l3_packets_total", "spright_eproxy_l3_bytes_total"}},
		{"shed", []string{"spright_gateway_shed_total", "spright_gateway_parked_total",
			"spright_gateway_resumed_total", "spright_coldstart_seconds"}},
		{"scale", []string{"spright_autoscaler_replicas", "spright_autoscaler_healthy_replicas",
			"spright_autoscaler_desired_replicas", "spright_autoscaler_demand_ewma", "spright_autoscaler_parked"}},
	} {
		t.Run(line.name, func(t *testing.T) {
			for _, f := range line.families {
				if !strings.Contains(exposition, "\n# TYPE "+f+" ") {
					t.Errorf("/metrics has no %s family", f)
				}
			}
		})
	}
}

package obs

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/spright-go/spright/internal/metrics"
)

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Register("a", func() []Family {
		return []Family{
			CounterFamily("spright_test_total", "A counter.", L("chain", "c1"), 42),
			GaugeFamily("spright_test_gauge", "A gauge.", nil, 1.5),
		}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP spright_test_total A counter.",
		"# TYPE spright_test_total counter",
		`spright_test_total{chain="c1"} 42`,
		"# TYPE spright_test_gauge gauge",
		"spright_test_gauge 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFamilyMergeAcrossCollectors(t *testing.T) {
	r := NewRegistry()
	r.Register("c1", func() []Family {
		return []Family{CounterFamily("spright_merge_total", "h", L("chain", "one"), 1)}
	})
	r.Register("c2", func() []Family {
		return []Family{CounterFamily("spright_merge_total", "h", L("chain", "two"), 2)}
	})
	fams := r.Gather()
	if len(fams) != 1 {
		t.Fatalf("families %d want 1 (merged)", len(fams))
	}
	if len(fams[0].Samples) != 2 {
		t.Fatalf("samples %d want 2", len(fams[0].Samples))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// exactly one TYPE header for the merged family
	if n := strings.Count(b.String(), "# TYPE spright_merge_total"); n != 1 {
		t.Fatalf("TYPE headers %d want 1:\n%s", n, b.String())
	}
}

func TestUnregisterRemovesFamilies(t *testing.T) {
	r := NewRegistry()
	r.Register("gone", func() []Family {
		return []Family{CounterFamily("spright_gone_total", "h", nil, 1)}
	})
	r.Unregister("gone")
	if fams := r.Gather(); len(fams) != 0 {
		t.Fatalf("families after unregister: %v", fams)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Register("esc", func() []Family {
		return []Family{CounterFamily("spright_esc_total", "h",
			L("path", "a\"b\\c\nd"), 1)}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestInvalidMetricNameRejected(t *testing.T) {
	r := NewRegistry()
	r.Register("bad", func() []Family {
		return []Family{CounterFamily("bad name", "h", nil, 1)}
	})
	if err := r.WritePrometheus(&strings.Builder{}); err == nil {
		t.Fatal("invalid metric name must fail exposition")
	}
}

func TestSummaryFamilyRendering(t *testing.T) {
	h := metrics.NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	f := SummaryFamily("spright_lat_seconds", "h", L("chain", "c"), h, 0.5, 0.99)
	// 2 quantiles + _sum + _count
	if len(f.Samples) != 4 {
		t.Fatalf("samples %d want 4", len(f.Samples))
	}
	var b strings.Builder
	if err := writeFamily(&b, f); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`spright_lat_seconds{chain="c",quantile="0.5"}`,
		`spright_lat_seconds_count{chain="c"} 100`,
		`spright_lat_seconds_sum{chain="c"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestHealthzAggregation(t *testing.T) {
	o := New()
	o.RegisterHealthCheck("good", func() error { return nil })
	rec := httptest.NewRecorder()
	o.HealthzHandler(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthy node: code=%d body=%q", rec.Code, rec.Body.String())
	}

	o.RegisterHealthCheck("bad", func() error { return errors.New("pool leaked") })
	rec = httptest.NewRecorder()
	o.HealthzHandler(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "pool leaked") {
		t.Fatalf("unhealthy node: code=%d body=%q", rec.Code, rec.Body.String())
	}

	o.UnregisterHealthCheck("bad")
	rec = httptest.NewRecorder()
	o.HealthzHandler(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("after unregister: code=%d", rec.Code)
	}
}

func TestAdminMuxEndpoints(t *testing.T) {
	o := New()
	o.RegisterSpanSource("chainA", func(limit int) []TraceData {
		return []TraceData{sampleTrace("chainA", 1)}
	})
	mux := o.AdminMux()

	for path, want := range map[string]string{
		"/metrics": "spright_go_goroutines",
		"/healthz": "ok",
		"/traces":  "spright/chainA",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: code %d", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%s missing %q:\n%s", path, want, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof index: code %d", rec.Code)
	}
}

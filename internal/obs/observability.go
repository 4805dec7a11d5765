package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Observability bundles the admin surface of one SPRIGHT node: the metrics
// registry, the health checks /healthz aggregates, the span sources /traces
// and the trace file exporter drain, the flight recorder behind /events,
// and the SLO monitors behind /slo. Chains register on deploy and
// unregister on teardown.
type Observability struct {
	reg    *Registry
	flight *FlightRecorder

	mu        sync.Mutex
	checks    map[string]func() error
	spans     map[string]func(limit int) []TraceData
	slos      map[string]*SLOMonitor
	bundleDir string
}

// New creates an Observability with an empty registry plus the built-in
// process collector (goroutines, heap, GC) — the node-level counterpart of
// the per-chain collectors — and an enabled flight recorder.
func New() *Observability {
	o := &Observability{
		reg:    NewRegistry(),
		flight: NewFlightRecorder(0),
		checks: make(map[string]func() error),
		spans:  make(map[string]func(limit int) []TraceData),
		slos:   make(map[string]*SLOMonitor),
	}
	o.reg.Register("process", processCollector)
	return o
}

// Registry returns the metrics registry (also the /metrics http.Handler).
func (o *Observability) Registry() *Registry { return o.reg }

// Flight returns the node's flight recorder (never nil).
func (o *Observability) Flight() *FlightRecorder { return o.flight }

// RegisterSLOMonitor installs the chain's sliding-window SLO monitor
// behind /slo.
func (o *Observability) RegisterSLOMonitor(chain string, m *SLOMonitor) {
	o.mu.Lock()
	o.slos[chain] = m
	o.mu.Unlock()
}

// UnregisterSLOMonitor removes a chain's SLO monitor.
func (o *Observability) UnregisterSLOMonitor(chain string) {
	o.mu.Lock()
	delete(o.slos, chain)
	o.mu.Unlock()
}

// SLOReports computes the current sliding-window report of every
// registered monitor, keyed by chain.
func (o *Observability) SLOReports(now time.Time) map[string]SLOReport {
	o.mu.Lock()
	ms := make(map[string]*SLOMonitor, len(o.slos))
	for k, v := range o.slos {
		ms[k] = v
	}
	o.mu.Unlock()
	out := make(map[string]SLOReport, len(ms))
	for chain, m := range ms {
		out[chain] = m.Report(chain, now)
	}
	return out
}

// SetBundleDir configures where diagnostic bundles live; /debug/bundle/
// serves the directory read-only. "" disables serving.
func (o *Observability) SetBundleDir(dir string) {
	o.mu.Lock()
	o.bundleDir = dir
	o.mu.Unlock()
}

// BundleDir returns the configured diagnostic-bundle directory.
func (o *Observability) BundleDir() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.bundleDir
}

// RegisterHealthCheck installs a named health check; /healthz fails when
// any registered check returns an error.
func (o *Observability) RegisterHealthCheck(name string, fn func() error) {
	o.mu.Lock()
	o.checks[name] = fn
	o.mu.Unlock()
}

// UnregisterHealthCheck removes a health check.
func (o *Observability) UnregisterHealthCheck(name string) {
	o.mu.Lock()
	delete(o.checks, name)
	o.mu.Unlock()
}

// RegisterSpanSource installs a named source of completed traces in
// exporter-neutral TraceData form — the feed behind /traces, diagnostic
// bundles and the file exporter. limit bounds how many of the most recent
// traces the source returns (<= 0: all it retains).
func (o *Observability) RegisterSpanSource(name string, fn func(limit int) []TraceData) {
	o.mu.Lock()
	o.spans[name] = fn
	o.mu.Unlock()
}

// UnregisterSpanSource removes a span source.
func (o *Observability) UnregisterSpanSource(name string) {
	o.mu.Lock()
	delete(o.spans, name)
	o.mu.Unlock()
}

// Health runs every registered check and returns the failures by name
// (empty when the node is healthy).
func (o *Observability) Health() map[string]error {
	o.mu.Lock()
	fns := make(map[string]func() error, len(o.checks))
	for k, v := range o.checks {
		fns[k] = v
	}
	o.mu.Unlock()
	out := make(map[string]error)
	for name, fn := range fns {
		if err := fn(); err != nil {
			out[name] = err
		}
	}
	return out
}

// CompletedTraces gathers up to limit completed traces per registered span
// source (<= 0: source default), for OTLP rendering and file export.
func (o *Observability) CompletedTraces(limit int) []TraceData {
	o.mu.Lock()
	fns := make([]func(int) []TraceData, 0, len(o.spans))
	for _, v := range o.spans {
		fns = append(fns, v)
	}
	o.mu.Unlock()
	var out []TraceData
	for _, fn := range fns {
		out = append(out, fn(limit)...)
	}
	return out
}

// HealthzHandler serves /healthz: 200 "ok" when every check passes, 503
// with one line per failing check otherwise.
func (o *Observability) HealthzHandler(w http.ResponseWriter, _ *http.Request) {
	failures := o.Health()
	if len(failures) == 0 {
		fmt.Fprintln(w, "ok")
		return
	}
	names := make([]string, 0, len(failures))
	for n := range failures {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s: %v\n", n, failures[n])
	}
	http.Error(w, strings.TrimRight(b.String(), "\n"), http.StatusServiceUnavailable)
}

// MaxTraceRenderLimit caps ?limit= on /traces at the largest trace ring
// any chain retains, so a huge requested limit degrades to "everything
// retained" instead of sizing allocations from client input.
const MaxTraceRenderLimit = 1024

// jsonError writes a JSON error body ({"error": ...}) with the status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
	})
}

// parseLimit validates an optional ?limit= query parameter: absent is 0
// (source default), non-numeric or negative is a 400, anything above
// MaxTraceRenderLimit clamps to it.
func parseLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "invalid limit %q: not an integer", raw)
		return 0, false
	}
	if n < 0 {
		jsonError(w, http.StatusBadRequest, "invalid limit %d: must be >= 0", n)
		return 0, false
	}
	if n > MaxTraceRenderLimit {
		n = MaxTraceRenderLimit
	}
	return n, true
}

// TracesHandler serves /traces: the completed traces of every span source
// as one OTLP/HTTP JSON document. ?limit=N bounds the traces rendered per
// source (clamped to MaxTraceRenderLimit); ?format= may be absent or
// "otlp". A malformed limit or any other format is a 400 with a JSON error,
// not a silent coercion.
func (o *Observability) TracesHandler(w http.ResponseWriter, r *http.Request) {
	if r == nil {
		r = &http.Request{URL: &url.URL{}}
	}
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	if format := r.URL.Query().Get("format"); format != "" && format != "otlp" {
		jsonError(w, http.StatusBadRequest, "unknown format %q: want \"otlp\"", format)
		return
	}
	b, err := OTLPJSON(o.CompletedTraces(limit))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// EventsHandler serves /events: the flight recorder's journal as JSON,
// seq-cursor paginated. ?chain=<name> reads one chain's ring (default:
// the cluster ring), ?after=<seq> returns only events newer than the
// cursor, ?limit=N bounds the page. The response carries next_after — the
// last returned seq — so consumers resume where they left off even across
// ring wrap.
func (o *Observability) EventsHandler(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	var after uint64
	if raw := r.URL.Query().Get("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "invalid after %q: not a sequence number", raw)
			return
		}
		after = n
	}
	chain := r.URL.Query().Get("chain")
	events := o.flight.Events(chain, after, limit)
	if events == nil && chain != "" {
		jsonError(w, http.StatusNotFound, "chain %q has no flight ring", chain)
		return
	}
	nextAfter := after
	if len(events) > 0 {
		nextAfter = events[len(events)-1].Seq
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"total":      o.flight.Total(),
		"chains":     o.flight.Chains(),
		"chain":      chain,
		"after":      after,
		"next_after": nextAfter,
		"events":     events,
	})
}

// SLOHandler serves /slo: every registered chain's sliding-window
// latency attribution and error rate as one JSON object keyed by chain.
func (o *Observability) SLOHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(o.SLOReports(time.Now()))
}

// BundleHandler serves /debug/bundle/: a read-only listing of captured
// diagnostic bundles. 404 until a bundle dir is configured.
func (o *Observability) BundleHandler(w http.ResponseWriter, r *http.Request) {
	dir := o.BundleDir()
	if dir == "" {
		jsonError(w, http.StatusNotFound, "no bundle dir configured (-bundle-dir)")
		return
	}
	http.StripPrefix("/debug/bundle/", http.FileServer(http.Dir(dir))).ServeHTTP(w, r)
}

// fileExportPeriod is how often StartFileExporter ships new traces.
const fileExportPeriod = time.Second

// StartFileExporter launches a background loop appending newly completed
// traces (across all span sources) to path as OTLP JSON lines every
// fileExportPeriod. The returned stop function flushes once more and closes
// the file.
func (o *Observability) StartFileExporter(path string) (func(), error) {
	exp, err := NewTraceFileExporter(path)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(fileExportPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_, _ = exp.Export(o.CompletedTraces(0))
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
			_, _ = exp.Export(o.CompletedTraces(0))
			_ = exp.Close()
		})
	}, nil
}

// AdminMux builds the full admin endpoint catalog: /metrics (Prometheus
// exposition), /healthz, /traces (retained traces as OTLP/HTTP JSON),
// /events, /slo, /debug/bundle/ and the standard net/http/pprof tree under
// /debug/pprof/.
func (o *Observability) AdminMux() *http.ServeMux {
	mux := http.NewServeMux()
	o.Attach(mux)
	return mux
}

// Attach registers the admin endpoints on an existing mux, so a server can
// serve them alongside application routes.
func (o *Observability) Attach(mux *http.ServeMux) {
	mux.Handle("/metrics", o.reg)
	mux.HandleFunc("/healthz", o.HealthzHandler)
	mux.HandleFunc("/traces", o.TracesHandler)
	mux.HandleFunc("/events", o.EventsHandler)
	mux.HandleFunc("/slo", o.SLOHandler)
	mux.HandleFunc("/debug/bundle/", o.BundleHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// processCollector reports node-process vitals alongside the dataplane
// metrics.
func processCollector() []Family {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []Family{
		GaugeFamily("spright_go_goroutines", "Number of live goroutines.", nil,
			float64(runtime.NumGoroutine())),
		GaugeFamily("spright_go_heap_alloc_bytes", "Bytes of allocated heap objects.", nil,
			float64(ms.HeapAlloc)),
		CounterFamily("spright_go_gc_cycles_total", "Completed GC cycles.", nil,
			float64(ms.NumGC)),
	}
}

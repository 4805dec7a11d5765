// Package obs is SPRIGHT's unified observability layer: a metrics
// registry every subsystem registers into (gateway admission/completion,
// EPROXY L3 and failure maps, SPROXY per-function invocation counts,
// per-socket delivery counters, shared-memory pool occupancy, ring
// occupancy), rendered as Prometheus text exposition, plus the admin
// surface (/metrics, /healthz, /traces, pprof) the §3.3 metrics server
// scrapes. The registry is pull-based: collectors are closures over live
// counters, so a scrape always observes the current atomic values and the
// dataplane pays nothing between scrapes.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/spright-go/spright/internal/metrics"
)

// Type is the Prometheus metric type of a family.
type Type int

// Metric types, mapping onto Prometheus exposition TYPE lines.
const (
	Counter Type = iota
	Gauge
	Summary
	Untyped
)

func (t Type) String() string {
	switch t {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Summary:
		return "summary"
	default:
		return "untyped"
	}
}

// Label is one name/value pair of a sample's label set.
type Label struct {
	K, V string
}

// L is shorthand for building a label set in collector closures.
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("obs: L requires key/value pairs")
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{K: kv[i], V: kv[i+1]})
	}
	return out
}

// Sample is one exposition line within a family. Suffix ("_sum", "_count")
// distinguishes the synthetic series of a summary; it is empty for plain
// counters and gauges.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one named metric with its samples — the unit collectors emit.
type Family struct {
	Name    string
	Help    string
	Type    Type
	Samples []Sample
}

// CollectorFunc produces the families of one subsystem at scrape time.
type CollectorFunc func() []Family

// Registry multiplexes collectors into one exposition document. Collectors
// are keyed by a registration name so a chain teardown can unregister its
// collectors without identity games.
type Registry struct {
	mu         sync.Mutex
	collectors map[string]CollectorFunc
	order      []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{collectors: make(map[string]CollectorFunc)}
}

// Register installs (or replaces) the collector under key. Registration
// order is preserved for same-name family merging; a replaced key keeps
// its original position.
func (r *Registry) Register(key string, c CollectorFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[key]; !ok {
		r.order = append(r.order, key)
	}
	r.collectors[key] = c
}

// Unregister removes the collector under key (a no-op when absent).
func (r *Registry) Unregister(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.collectors[key]; !ok {
		return
	}
	delete(r.collectors, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Gather runs every collector and merges same-name families (collectors of
// different chains emit into one family, distinguished by labels). Families
// come back sorted by name so the exposition is deterministic.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fns := make([]CollectorFunc, 0, len(r.order))
	for _, k := range r.order {
		fns = append(fns, r.collectors[k])
	}
	r.mu.Unlock()

	byName := make(map[string]*Family)
	var names []string
	for _, fn := range fns {
		for _, f := range fn() {
			if got, ok := byName[f.Name]; ok {
				got.Samples = append(got.Samples, f.Samples...)
				continue
			}
			cp := f
			cp.Samples = append([]Sample(nil), f.Samples...)
			byName[f.Name] = &cp
			names = append(names, f.Name)
		}
	}
	sort.Strings(names)
	out := make([]Family, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers followed by one line per
// sample, label values escaped per the spec.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Gather() {
		if err := writeFamily(w, f); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP makes the registry the /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, _ = io.WriteString(w, b.String())
}

func writeFamily(w io.Writer, f Family) error {
	if !validName(f.Name) {
		return fmt.Errorf("obs: invalid metric name %q", f.Name)
	}
	if f.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
		return err
	}
	for _, s := range f.Samples {
		if err := writeSample(w, f.Name, s); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, name string, s Sample) error {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(s.Suffix)
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range s.Labels {
			if !validName(l.K) {
				return fmt.Errorf("obs: invalid label name %q on %s", l.K, name)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.K)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.V))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(s.Value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a sample value: integral values (the common case —
// uint64 counters) print without an exponent so scrapes diff cleanly.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// validName checks the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// CounterFamily builds a single-sample counter family.
func CounterFamily(name, help string, labels []Label, v float64) Family {
	return Family{Name: name, Help: help, Type: Counter,
		Samples: []Sample{{Labels: labels, Value: v}}}
}

// GaugeFamily builds a single-sample gauge family.
func GaugeFamily(name, help string, labels []Label, v float64) Family {
	return Family{Name: name, Help: help, Type: Gauge,
		Samples: []Sample{{Labels: labels, Value: v}}}
}

// SummaryFamily renders a latency histogram as a Prometheus summary:
// quantile series plus _sum and _count, all sharing the base label set.
func SummaryFamily(name, help string, labels []Label, h *metrics.Histogram, quantiles ...float64) Family {
	if len(quantiles) == 0 {
		quantiles = []float64{0.5, 0.95, 0.99}
	}
	f := Family{Name: name, Help: help, Type: Summary}
	for _, q := range quantiles {
		ls := make([]Label, 0, len(labels)+1)
		ls = append(ls, labels...)
		ls = append(ls, Label{K: "quantile", V: strconv.FormatFloat(q, 'g', -1, 64)})
		f.Samples = append(f.Samples, Sample{Labels: ls, Value: h.Quantile(q)})
	}
	n := float64(h.Count())
	f.Samples = append(f.Samples,
		Sample{Suffix: "_sum", Labels: labels, Value: h.Mean() * n},
		Sample{Suffix: "_count", Labels: labels, Value: n},
	)
	return f
}

// Package experiment contains one runner per table and figure of the
// paper's evaluation (§2 Fig. 2/Table 1, §3.2.2 Fig. 5, §3.5's XDP claim,
// §3.8 Table 2, §4 Figs. 9–12 and Table 5), plus the ablations DESIGN.md
// calls out. Each runner executes the corresponding workload against the
// platform models and renders the same rows/series the paper reports.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/platform"
)

// Report is one experiment's output: a human-readable rendering plus
// structured values that tests and benches assert on.
type Report struct {
	ID    string
	Title string
	Text  string
	// Values holds headline numbers by name (e.g. "kn_rps", "s_p95_ms").
	Values map[string]float64
}

type reportBuilder struct {
	b      strings.Builder
	values map[string]float64
}

func newReport() *reportBuilder {
	return &reportBuilder{values: map[string]float64{}}
}

func (rb *reportBuilder) printf(format string, args ...interface{}) {
	fmt.Fprintf(&rb.b, format, args...)
}

func (rb *reportBuilder) set(name string, v float64) { rb.values[name] = v }

func (rb *reportBuilder) done(id, title string) *Report {
	return &Report{ID: id, Title: title, Text: rb.b.String(), Values: rb.values}
}

// fmtLatRow renders a Table 5 style latency row in milliseconds.
func fmtLatRow(name string, h *metrics.Histogram) string {
	return fmt.Sprintf("  %-11s  p95=%8.1fms  p99=%8.1fms  mean=%8.1fms",
		name, h.Quantile(0.95)*1e3, h.Quantile(0.99)*1e3, h.Mean()*1e3)
}

// cpuSeries renders per-group CPU sparklines (the time-series panels of
// Figs. 10-12).
func cpuSeries(rb *reportBuilder, res *platform.Result, width int) {
	var groups []string
	for g := range res.CPU {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		ts := res.CPU[g]
		rb.printf("  CPU %-7s max=%6.0f%%  %s\n", g, ts.Max()*100, ts.Sparkline(width))
	}
}

// cpuSummary renders mean CPU by group, sorted for determinism.
func cpuSummary(res *platform.Result) string {
	var groups []string
	for g := range res.CPU {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	var parts []string
	for _, g := range groups {
		parts = append(parts, fmt.Sprintf("%s=%.0f%%", g, res.MeanCPU(g)*100))
	}
	return strings.Join(parts, " ")
}

// Runner is the registry entry for the CLI.
type Runner struct {
	ID    string
	Title string
	Run   func() *Report
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Table 1: Knative per-request overhead audit", Table1},
		{"fig2", "Fig. 2: sidecar proxy comparison", Fig2},
		{"fig5", "Fig. 5: shared-memory processing comparison (2-fn chain)", Fig5},
		{"table2", "Table 2: SPRIGHT per-request overhead audit", Table2},
		{"scaling", "§2 claim: overheads grow linearly with chain length", ChainScaling},
		{"fig9", "Fig. 9: online boutique RPS time series", Fig9},
		{"fig10", "Fig. 10: online boutique CDFs and CPU usage", Fig10},
		{"table5", "Table 5: online boutique latency comparison", Table5},
		{"fig11", "Fig. 11: motion detection — cold start vs warm", Fig11},
		{"fig12", "Fig. 12: parking — pre-warm vs event-driven warm", Fig12},
		{"xdp", "§3.5 claim: XDP/TC dataplane acceleration", XDPAblation},
		{"adapter", "§3.6 ablation: consolidated protocol adaptation", AdapterAblation},
	}
}

// ByID looks a runner up.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

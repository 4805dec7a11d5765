package experiment

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := []string{"table1", "fig2", "fig5", "table2", "scaling", "fig9", "fig10", "table5", "fig11", "fig12", "xdp", "adapter"}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id must not resolve")
	}
	if len(All()) != len(ids) {
		t.Errorf("registry has %d entries, want %d", len(All()), len(ids))
	}
}

func TestTable1Report(t *testing.T) {
	r := Table1()
	for k, want := range map[string]float64{
		"kn_copies": 15, "kn_ctx": 15, "kn_intr": 25, "kn_proto": 12, "kn_ser": 8, "kn_deser": 7,
	} {
		if got := r.Values[k]; got != want {
			t.Errorf("%s = %v want %v", k, got, want)
		}
	}
	if !strings.Contains(r.Text, "within-chain share") {
		t.Error("report text incomplete")
	}
}

func TestTable2Report(t *testing.T) {
	r := Table2()
	for k, want := range map[string]float64{
		"sp_copies": 3, "sp_ctx": 7, "sp_intr": 11, "sp_proto": 3, "sp_ser": 2, "sp_deser": 1,
	} {
		if got := r.Values[k]; got != want {
			t.Errorf("%s = %v want %v", k, got, want)
		}
	}
}

func TestChainScalingReport(t *testing.T) {
	r := ChainScaling()
	if r.Values["sp8_copies"] != 0 {
		t.Error("SPRIGHT must stay zero-copy at any chain length")
	}
	if r.Values["kn8_copies"] != 8*8-4 { // 2n-1 steps x 4 copies = 60
		t.Errorf("kn8 copies %v want 60", r.Values["kn8_copies"])
	}
	if r.Values["kn8_cycles"] < 5*r.Values["sp8_cycles"] {
		t.Errorf("cycle gap must widen with chain length: kn=%v sp=%v",
			r.Values["kn8_cycles"], r.Values["sp8_cycles"])
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	null := r.Values["null_rps"]
	if null < 10000 {
		t.Fatalf("Null RPS %v implausibly low", null)
	}
	for _, k := range []string{"qp", "envoy", "ofw"} {
		factor := null / r.Values[k+"_rps"]
		if factor < 2.5 || factor > 8 {
			t.Errorf("%s RPS reduction %.1fx outside the 3-7x band", k, factor)
		}
		latFactor := r.Values[k+"_lat_ms"] / r.Values["null_lat_ms"]
		if latFactor < 2.5 || latFactor > 8 {
			t.Errorf("%s latency increase %.1fx outside the 3-7x band", k, latFactor)
		}
	}
	// ordering: QP < Envoy < OFW in cycles
	if !(r.Values["qp_mcycles"] < r.Values["envoy_mcycles"] && r.Values["envoy_mcycles"] < r.Values["ofw_mcycles"]) {
		t.Error("sidecar cycle ordering broken")
	}
}

func TestXDPAblationShape(t *testing.T) {
	r := XDPAblation()
	if g := r.Values["tput_gain"]; g < 1.15 || g > 1.6 {
		t.Errorf("throughput gain %.2fx, want ~1.3x", g)
	}
	if c := r.Values["lat_cut"]; c < 0.08 || c > 0.45 {
		t.Errorf("latency cut %.0f%%, want ~20%%", c*100)
	}
}

func TestAdapterAblationShape(t *testing.T) {
	r := AdapterAblation()
	if c := r.Values["lat_cut"]; c <= 0 {
		t.Errorf("consolidated adaptation must cut latency, got %.0f%%", c*100)
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11()
	if r.Values["kn_cold_starts"] < 5 {
		t.Errorf("cold starts %v too few for an intermittent hour", r.Values["kn_cold_starts"])
	}
	if r.Values["kn_max_lat_s"] < 2.5 {
		t.Errorf("Knative max latency %.2fs must reflect cold-start cascades", r.Values["kn_max_lat_s"])
	}
	if r.Values["s_max_lat_s"] > 0.1 {
		t.Errorf("warm SPRIGHT max latency %.3fs too high", r.Values["s_max_lat_s"])
	}
	if r.Values["s_cpu"] > r.Values["kn_cpu"] {
		t.Errorf("SPRIGHT CPU %.3f must be below Knative %.3f", r.Values["s_cpu"], r.Values["kn_cpu"])
	}
}

func TestFig12Shape(t *testing.T) {
	r := Fig12()
	if s := r.Values["lat_saving"]; s < 0.05 || s > 0.6 {
		t.Errorf("latency saving %.0f%%, paper ~16%%", s*100)
	}
	if s := r.Values["cpu_saving"]; s < 0.2 || s > 0.8 {
		t.Errorf("CPU saving %.0f%%, paper ~41%%", s*100)
	}
}

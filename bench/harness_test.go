package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSliceMedian(t *testing.T) {
	if got := medianOf([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := medianOf([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of four = %v, want 3", got)
	}
	// Per-slice values first, then one statistic over the slices: a
	// disturbed slice must not leak into the others' percentiles.
	p := phase{{p50: 10}, {p50: 11}, {p50: 500}, {p50: 9}, {p50: 10.5}}
	v := p.values(sliceResult.p50us)
	if !reflect.DeepEqual(v, []float64{10, 11, 500, 9, 10.5}) || medianOf(v) != 10.5 {
		t.Errorf("slice values %v, median %v", v, medianOf(v))
	}
	if got := bestOf(p, sliceResult.p50us); got != 10 {
		t.Errorf("bestOf five latencies = %v, want the second lowest, 10", got)
	}
	r := phase{{n: 10, seconds: 1}, {n: 40, seconds: 1}, {n: 30, seconds: 1}, {n: 20, seconds: 1}}
	if got := bestRate(r); got != 30 {
		t.Errorf("bestRate of four = %v, want the second highest, 30", got)
	}
	q := phase{{n: 100, seconds: 2, cpuUs: 300}, {n: 50, seconds: 1, cpuUs: 200}}
	if q.replies() != 150 || q[0].rps() != 50 || q[0].cpuPerReq() != 3 || q[1].cpuPerReq() != 4 {
		t.Errorf("phase totals: %d replies, %v rps, %v and %v cpu µs per request",
			q.replies(), q[0].rps(), q[0].cpuPerReq(), q[1].cpuPerReq())
	}
}

// checkTiling asserts that spans abut from t0 to t3 with no negative
// duration, so their durations sum to the request's latency.
func checkTiling(t *testing.T, r *record, spans []span) {
	t.Helper()
	at, sum := r.t0, int64(0)
	for _, s := range spans {
		if s.start != at || s.end < s.start {
			t.Fatalf("span %s [%d,%d] does not abut %d", s.name, s.start, s.end, at)
		}
		at = s.end
		sum += s.end - s.start
	}
	if at != r.t3 || sum != r.t3-r.t0 {
		t.Fatalf("spans end at %d and sum to %d; request is [%d,%d]", at, sum, r.t0, r.t3)
	}
}

func rec(t0, t3 int64, evs ...event) *record {
	r := &record{t0: t0, t3: t3}
	for i, e := range evs {
		r.ev[i] = e
	}
	r.next.Store(int32(len(evs)))
	r.done.Store(int32(len(evs)))
	return r
}

func names(spans []span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.name
	}
	return out
}

func TestTileLinear(t *testing.T) {
	r := rec(100, 1000, event{0, 150, 200}, event{1, 260, 300})
	spans := tile(r, shapeLinear, nil)
	checkTiling(t, r, spans)
	want := []string{spToFirst, spHandler, spHop, spHandler, spReply}
	if !reflect.DeepEqual(names(spans), want) {
		t.Errorf("spans %v, want %v", names(spans), want)
	}
	if d := spans[2].end - spans[2].start; d != 60 {
		t.Errorf("hop lasts %d, want 60", d)
	}
}

func TestTileXnodeNamesTheMeshCrossings(t *testing.T) {
	r := rec(0, 900, event{0, 10, 20}, event{1, 400, 450})
	spans := tile(r, shapeXnode, nil)
	checkTiling(t, r, spans)
	want := []string{spToFirst, spHandler, spXFwd, spHandler, spXReply}
	if !reflect.DeepEqual(names(spans), want) {
		t.Errorf("spans %v, want %v", names(spans), want)
	}
}

func TestTileHTTPSplitsIngressFromCore(t *testing.T) {
	r := rec(0, 1000, event{0, 330, 350}, event{1, 370, 390})
	r.s0.Store(300)
	r.bodyEOF.Store(320)
	r.writeStart.Store(420)
	r.s1.Store(450)
	spans := tile(r, shapeLinear, nil)
	checkTiling(t, r, spans)
	want := []string{spClientToServer, spServeSelf, spToFirst, spHandler, spHop, spHandler, spReply, spServeSelf, spServerToClient}
	if !reflect.DeepEqual(names(spans), want) {
		t.Errorf("spans %v, want %v", names(spans), want)
	}
	var self int64
	for _, s := range spans {
		if s.name == spServeSelf {
			self += s.end - s.start
		}
	}
	if self != 20+30 {
		t.Errorf("ingress.serve_self = %d, want 50 (read 20 + write 30)", self)
	}
}

func TestTileFanoutFollowsTheSlowestReader(t *testing.T) {
	readers := map[int32]bool{1: true, 2: true, 3: true}
	r := rec(0, 1000,
		event{0, 100, 110}, // split
		event{1, 150, 300}, // reader a
		event{4, 320, 330}, // collect for a: dropped
		event{2, 160, 420}, // reader b: slowest
		event{3, 200, 310}, // reader c: last in
		event{4, 335, 340}, // collect for c: dropped
		event{4, 450, 470}, // collect for b: replies
	)
	spans := tile(r, shapeFanout, readers)
	checkTiling(t, r, spans)
	want := []string{spToFirst, spHandler, spHop, spFanoutSpread, spHandler, spHop, spHandler, spReply}
	if !reflect.DeepEqual(names(spans), want) {
		t.Fatalf("spans %v, want %v", names(spans), want)
	}
	if d := spans[3].end - spans[3].start; d != 50 {
		t.Errorf("fanout spread = %d, want 50 (first reader in at 150, last at 200)", d)
	}
	if spans[4].end != 420 {
		t.Errorf("reader stage ends at %d, want 420 (the slowest reader's exit)", spans[4].end)
	}
}

func TestTileClampsStampsTakenOutOfOrder(t *testing.T) {
	// A handler's exit stamp after the caller's return stamp, and an HTTP
	// write stamp before the last handler's exit: the cuts are clamped and
	// the sum still holds.
	r := rec(0, 500, event{0, 100, 200}, event{1, 250, 600})
	checkTiling(t, r, tile(r, shapeLinear, nil))
	h := rec(0, 500, event{0, 100, 200})
	h.s0.Store(50)
	h.bodyEOF.Store(60)
	h.writeStart.Store(150)
	h.s1.Store(400)
	checkTiling(t, h, tile(h, shapeLinear, nil))
}

func TestBudgetRowsSumToBandMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]record, 200)
	for i := range recs {
		at := int64(1000 * i)
		r := &recs[i]
		r.t0 = at
		n := 1 + rng.Intn(5)
		for k := 0; k < n; k++ {
			at += 1 + rng.Int63n(50)
			in := at
			at += 1 + rng.Int63n(20)
			r.ev[k] = event{int32(k), in, at}
		}
		r.done.Store(int32(n))
		r.t3 = at + 1 + rng.Int63n(50)
	}
	b := makeBudget(recs, shapeLinear, nil)
	var sum float64
	for _, row := range b.rows {
		sum += row.Us
	}
	if math.Abs(sum-b.bandUs) > 1e-9*b.bandUs {
		t.Errorf("rows sum to %v µs, band mean is %v µs", sum, b.bandUs)
	}
	if b.n != len(recs) || b.p50Us <= 0 {
		t.Errorf("budget over %d requests with p50 %v", b.n, b.p50Us)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloads {
		gen := func(seed int64) []request { return wl.gen(rand.New(rand.NewSource(seed)), new(arena)) }
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d requests from one seed", wl.name, len(a), len(b))
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].payload, b[i].payload) || !bytes.Equal(a[i].want, b[i].want) ||
				a[i].chain != b[i].chain || a[i].sum != b[i].sum {
				t.Fatalf("%s: request %d differs between two runs of seed 7", wl.name, i)
			}
			if !bytes.Equal(a[i].payload, c[i].payload) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same request sequence", wl.name)
		}
	}
}

func TestBoutiqueMixFollowsTheWeights(t *testing.T) {
	reqs := genBoutique(rand.New(rand.NewSource(3)), new(arena), 8192)
	count := map[int]int{}
	for _, r := range reqs {
		count[r.chain]++
	}
	// Locust weights 1:2:10:3:2:1 of 19.
	if got := float64(count[2]) / float64(len(reqs)); math.Abs(got-10.0/19) > 0.03 {
		t.Errorf("browseProduct share %.3f, want about %.3f", got, 10.0/19)
	}
	if len(count) != 6 {
		t.Errorf("%d distinct chains drawn, want 6", len(count))
	}
}

func TestFolderIgnoresSlabBoundaries(t *testing.T) {
	body := make([]byte, 70000)
	rand.New(rand.NewSource(5)).Read(body)
	for k := 0; k < fanReaders; k++ {
		flat := newFolder(k)
		flat.add(body)
		cut := newFolder(k)
		for off := 0; off < len(body); off += 16000 {
			cut.add(body[off:min(off+16000, len(body))])
		}
		if flat.h != cut.h {
			t.Errorf("reader %d: digest depends on where the slabs are cut", k)
		}
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameMetrics(t *testing.T, what string, got []manifestMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", what, len(got), len(want))
	}
	for i, d := range want {
		if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark defines %+v", what, i, g, d)
		}
	}
}

func TestManifestNamesWhatTheBenchmarkEmits(t *testing.T) {
	m := readManifest(t)
	sameMetrics(t, "end_to_end", m.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", m.PerLayer, perLayer)
	for _, e := range m.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(m.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if m.Workloads[i].Name != wl.name || m.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark defines %q", i, m.Workloads[i], wl.name)
		}
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

// TestEveryWorkloadRunsClean runs all five workloads, both passes, at a
// sub-second length: every reply verifies, nothing leaks, and each pass
// emits exactly the metrics its list names.
func TestEveryWorkloadRunsClean(t *testing.T) {
	out := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var log bytes.Buffer
			res := runSpec{wl, traced}.run(&log, 11, planFor(0.6), out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d named", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", wl.name, traced, d.name, v, ok)
				}
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", wl.name, err)
		}
	}
}

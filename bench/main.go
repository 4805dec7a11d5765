// Command bench is the repository's benchmark: five closed-loop workloads
// on the real dataplane, deployed through the public facade with shipped
// defaults. See README.md beside this file.
//
//	go run . -workload boutique-mix -seed 1 -seconds 20 -trace 0   # one run, as the driver makes it
//	go run . -seed 1                                               # every workload, both passes
//
// The last line of a run's standard output is one JSON object with the
// run's verdict and metrics: the end-to-end set with -trace 0, the
// per-layer set with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all, both passes)")
	seed := flag.Int64("seed", 1, "seed for the request sequence, body bytes and chain choice")
	seconds := flag.Float64("seconds", 20, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, stamping off; 1: per-layer metrics from the traced run")
	outDir := flag.String("out", "out", "directory for trace-<workload>.json")
	flag.Parse()

	var runs []runSpec
	if *workloadName == "" {
		for _, wl := range workloads {
			runs = append(runs, runSpec{wl, false}, runSpec{wl, true})
		}
	} else {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		runs = []runSpec{{wl, *trace != 0}}
	}
	printEnv(os.Stdout, *seed)
	ok := true
	for _, r := range runs {
		res := r.run(os.Stdout, *seed, planFor(*seconds), *outDir)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

type runSpec struct {
	wl     *workload
	traced bool
}

// plan is the load shape, scaled from the run's --seconds.
type plan struct {
	warm                  time.Duration
	soloSlices, satSlices int
	soloSlice, satSlice   time.Duration
	// extra set-up/teardown cycles behind setup_s: at most setups of them,
	// fewer if they outlast setupBudget
	setups      int
	setupBudget time.Duration
	// traced run only
	tracedPass time.Duration
	probeScale float64
}

// traceCap is how many traced requests the span table holds (54 MiB).
const traceCap = 1 << 16

// planFor keeps the issue's proportions (2 s warm-up, 7.5 s solo, 15 s sat
// out of 24.5 s) at any run length, cut into slices of just over 1 s and
// 1.5 s at the 24 s the driver asks for: more, shorter slices give a quiet
// one a better chance, and 1.5 s still holds over 10 k sat samples on the
// slowest workload.
func planFor(seconds float64) plan {
	unit := time.Duration(seconds / 24.5 * float64(time.Second))
	return plan{
		warm:       2 * unit,
		soloSlices: 7, soloSlice: unit * 15 / 14,
		satSlices: 10, satSlice: unit * 3 / 2,
		setups: 30, setupBudget: unit * 3 / 2,
		tracedPass: 3 * unit,
		probeScale: min(1, seconds/20),
	}
}

// traced shortens the untraced phases to make room for the traced pass and
// the probes.
func (p plan) traced() plan {
	p.soloSlices, p.satSlices = 3, 4
	p.setups = 0
	return p
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish builds the result from exactly the metrics in defs: a missing or
// an undeclared value is a bug in the benchmark and fails the run.
func finish(w io.Writer, defs []metricDef, values map[string]float64, attempted, failed int, problems []string) result {
	res := result{Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			problems = append(problems, "metric not measured: "+d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			problems = append(problems, "metric not declared: "+name)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(w, "  FAIL:", p)
	}
	res.Correct = failed == 0 && len(problems) == 0
	return res
}

func printEnv(w io.Writer, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, commit, seed)
	fmt.Fprintf(w, "load: closed loop, in-process generator, loopback only; solo=1 caller, sat=%d callers\n", maxCallers)
}

// setUp deploys the workload and drives it to its first verified reply:
// what setup_s times.
func setUp(wl *workload, tr *tracer, c *caller, rq *request) (*target, time.Duration, error) {
	defer keepAwake(maxCallers - 1)()
	start := time.Now()
	tg, err := wl.deploy(tr)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), lostAfter)
	defer cancel()
	reply, err := tg.call(ctx, c, rq)
	if err = wl.check(rq, reply, err); err != nil {
		tg.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return tg, time.Since(start), nil
}

func (r runSpec) run(w io.Writer, seed int64, p plan, outDir string) result {
	wl := r.wl
	defs := endToEnd
	if r.traced {
		defs = perLayer
		p = p.traced()
	}
	fmt.Fprintf(w, "\n== %s (trace %v): %s\n", wl.name, r.traced, wl.why)
	var problems []string
	if maxCallers > runtime.NumCPU() {
		problems = append(problems, fmt.Sprintf("invalid run: %d callers exceed nproc=%d", maxCallers, runtime.NumCPU()))
	}
	values := map[string]float64{}
	abort := func(err error) result {
		return finish(w, defs, values, 1, 1, append(problems, err.Error()))
	}

	// Inputs come from the seed alone, before any clock starts.
	a := new(arena)
	reqs := wl.gen(rand.New(rand.NewSource(seed)), a)

	var tr *tracer
	if r.traced {
		probes, err := runProbes(p.probeScale)
		if err != nil {
			return abort(err)
		}
		values = probes
		tr = newTracer(traceCap)
	}
	first := &caller{dst: a.alloc(wl.replyCap)}
	tg, setup, err := setUp(wl, tr, first, &reqs[0])
	if err != nil {
		return abort(err)
	}
	setups := []float64{setup.Seconds()}

	l := newLoader(wl, tg, reqs, a)
	l.attempted = 1
	l.slice(1, p.warm)
	solo := l.phase(1, p.soloSlices, p.soloSlice)
	var before counters
	var resident func() float64
	if r.traced {
		before = readCounters(tg)
		resident = sampleResident(tg)
	}
	attemptedBefore := l.attempted
	sat := l.phase(maxCallers, p.satSlices, p.satSlice)
	fmt.Fprintf(w, "  solo: %d slices × %v, %d replies; sat: %d slices × %v, %d replies (%d per slice at least)\n",
		len(solo), p.soloSlice, solo.replies(), len(sat), p.satSlice, sat.replies(), minReplies(sat))

	if r.traced {
		for k, v := range counterMetrics(before, readCounters(tg), sat.replies(), l.attempted-attemptedBefore) {
			values[k] = v
		}
		values["objstore.resident_mb"] = resident() / (1 << 20)
		loadMetrics(values, solo, sat)
		recs, plainP50 := tracedPass(l, tr, p.tracedPass)
		readers := tr.ids(wl.readers)
		b := makeBudget(recs, wl.shape, readers)
		spanMetrics(values, b, bestOf(solo, sliceResult.p50us), plainP50)
		printBudget(w, wl, b, plainP50, values)
		if path, err := writeTrace(outDir, wl.name, seed, recs, wl.shape, readers, b); err != nil {
			problems = append(problems, "trace file: "+err.Error())
		} else {
			fmt.Fprintf(w, "  spans written to %s\n", path)
		}
	} else {
		endToEndMetrics(w, values, solo, sat)
	}

	for _, err := range teardown(tg) {
		l.fail("%v", err)
	}
	// Every further set-up starts from a collected heap whose free memory
	// has gone back to the OS, so each zeroes and faults in its pools: the
	// dearest case, and the same one every time. (After a plain GC a set-up
	// finds the last one's spans still resident or not as the background
	// scavenger happens to have reached them: medians of 2.2–8.8 ms against
	// 10.5–11.5 ms this way. The first set-up of a process is cheaper than
	// either, its pool being untouched fresh memory, but happens once.)
	budget := time.Now().Add(p.setupBudget)
	for i := 0; i < p.setups && time.Now().Before(budget); i++ {
		debug.FreeOSMemory()
		tg, d, err := setUp(wl, nil, first, &reqs[0])
		l.attempted++
		if err != nil {
			l.fail("%v", err)
			continue
		}
		setups = append(setups, d.Seconds())
		for _, err := range teardown(tg) {
			l.fail("%v", err)
		}
	}
	if !r.traced {
		values["setup_s"] = medianOf(setups)
		fmt.Fprintf(w, "  set-ups: %d, %.4f..%.4f s\n", len(setups), slices.Min(setups), slices.Max(setups))
	}

	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	return finish(w, defs, values, l.attempted, l.failed, append(problems, l.errs...))
}

// bestOf is a metric's value for a phase: the slice value a quarter of the
// way in from the best (the 3rd best of 10, the 2nd best of 7), the lowest
// being best for everything but a rate. What disturbs a run on a shared
// host only ever slows it, in windows of seconds to tens of seconds, so a
// slice from the quiet end is a steadier estimate of what the code costs
// than the median; the very best slice is now and then a lucky one. The raw
// output gives every slice and the median beside the value.
func bestOf(p phase, f func(sliceResult) float64) float64 {
	v := p.values(f)
	slices.Sort(v)
	return v[len(v)/4]
}

func bestRate(p phase) float64 {
	v := p.values(sliceResult.rps)
	slices.Sort(v)
	return v[len(v)-1-len(v)/4]
}

// endToEndMetrics fills the five metrics the timed phases give; the heap
// is read after a forced collection with the workload still deployed.
func endToEndMetrics(w io.Writer, values map[string]float64, solo, sat phase) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	values["solo_p50_us"] = bestOf(solo, sliceResult.p50us)
	values["sat_rps"] = bestRate(sat)
	values["sat_p50_us"] = bestOf(sat, sliceResult.p50us)
	values["cpu_us_per_req"] = bestOf(sat, sliceResult.cpuPerReq)
	values["heap_live_mb"] = float64(ms.HeapInuse) / (1 << 20)
	printSlices(w, "solo_p50_us", solo.values(sliceResult.p50us))
	printSlices(w, "sat_rps", sat.values(sliceResult.rps))
	printSlices(w, "sat_p50_us", sat.values(sliceResult.p50us))
	printSlices(w, "(sat p99, us)", sat.values(sliceResult.p99us)) // ungated: load.sat_p99_us of the traced run
	printSlices(w, "cpu_us_per_req", sat.values(sliceResult.cpuPerReq))
}

// loadMetrics fills the traced run's informational load.* metrics.
func loadMetrics(values map[string]float64, solo, sat phase) {
	values["load.scale_ratio"] = ratio(bestRate(sat), bestRate(solo))
	values["load.solo_p99_us"] = bestOf(solo, sliceResult.p99us)
	values["load.sat_p99_us"] = bestOf(sat, sliceResult.p99us)
	values["load.sat_p999_us"] = bestOf(sat, sliceResult.p999us)
}

// ratio is a/b, or 0 when b is: a run too short to sample a phase must
// still print a number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printSlices is the raw output behind one metric.
func printSlices(w io.Writer, name string, v []float64) {
	fmt.Fprintf(w, "  %-15s slices %.3f  (median %.3f, %.3f..%.3f)\n", name, v, medianOf(v), slices.Min(v), slices.Max(v))
}

func minReplies(p phase) int {
	n := p[0].n
	for _, s := range p {
		n = min(n, s.n)
	}
	return n
}

// sampleResident reads the object stores' resident bytes every 10 ms until
// the returned function is called, which stops it and yields the mean.
// Only the traced run samples; the reading takes the store's lock.
func sampleResident(tg *target) func() float64 {
	stop := make(chan struct{})
	mean := make(chan float64)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var sum float64
		n := 0
		for {
			select {
			case <-stop:
				mean <- sum / float64(max(n, 1))
				return
			case <-t.C:
				for _, d := range tg.deps {
					if st := d.Chain.ObjectStore(); st != nil {
						sum += float64(st.Stats().ResidentBytes)
					}
				}
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-mean
	}
}

// tracedPass runs one caller for d, stamping every other request, and
// returns the records it filled and the median latency of the unstamped
// requests in between: the two share the same seconds of host weather, so
// their difference is the stamping overhead and little else.
func tracedPass(l *loader, tr *tracer, d time.Duration) ([]record, float64) {
	defer keepAwake(maxCallers - 1)()
	ctx, cancel := context.WithTimeout(context.Background(), d+lostAfter)
	defer cancel()
	start := time.Now()
	n := 0
	plain := l.samples[0][:0]
	for i := 0; n < len(tr.recs) && time.Since(start) < d; i++ {
		rec := &tr.recs[n]
		stamped := i%2 == 0
		if stamped {
			tr.cur.Store(rec)
		}
		rq := &l.reqs[l.next%len(l.reqs)]
		rec.t0 = tr.now()
		reply, err := l.tg.call(ctx, &l.callers[0], rq)
		rec.t3 = tr.now()
		tr.cur.Store(nil)
		err = l.wl.check(rq, reply, err)
		l.attempted++
		l.next++
		switch {
		case err != nil:
			l.fail("traced pass: %v", err)
		case stamped:
			n++
		case len(plain) < cap(plain):
			plain = append(plain, uint32(rec.t3-rec.t0))
		}
	}
	slices.Sort(plain)
	return tr.recs[:n], percentile(plain, 0.50) / 1e3
}

// spanMetrics fills the span-kind per-layer metrics from the budget.
// soloP50 is the untraced solo latency, plainP50 that of the unstamped
// requests inside the traced pass.
func spanMetrics(values map[string]float64, b budget, soloP50, plainP50 float64) {
	for _, name := range []string{
		spClientToServer, spServeSelf, spServerToClient, spToFirst, spReply,
		spFanoutSpread, spXFwd, spXReply, spHandler,
	} {
		values[name+"_us"] = b.row(name).Us
	}
	hop := b.row(spHop)
	values["core.hop_us"] = ratio(hop.Us, hop.Count)
	values["core.hops_per_req"] = hop.Count
	values["trace.p50_us"] = b.p50Us
	values["trace.overhead_share"] = ratio(b.p50Us-plainP50, plainP50)
	// The ingress's share of a request that crossed it; no ingress, no share.
	values["ingress.share"] = 0
	if b.row(spClientToServer).Count > 0 {
		values["ingress.share"] = 1 - ratio(values["core.invoke_256b_us"], soloP50)
	}
}

// printBudget prints the span rows, which sum to the band's mean latency,
// and how much of one hop the layer probes account for.
func printBudget(w io.Writer, wl *workload, b budget, plainP50 float64, values map[string]float64) {
	fmt.Fprintf(w, "  budget over %d traced requests (rows: mean of the 40th–60th percentile band)\n", b.n)
	var sum float64
	for _, r := range b.rows {
		sum += r.Us
		fmt.Fprintf(w, "    %-30s %9.3f us  %5.1f%%  (%.2f spans/req)\n", r.Name, r.Us, 100*ratio(r.Us, b.bandUs), r.Count)
	}
	fmt.Fprintf(w, "    %-30s %9.3f us  = band mean %.3f us; traced p50 %.3f us; unstamped p50 in the same pass %.3f us\n",
		"sum", sum, b.bandUs, b.p50Us, plainP50)
	hop := values["core.hop_us"] * 1e3
	if hop == 0 || wl.hopProbe == "" {
		return
	}
	explained := values[wl.hopProbe]
	fmt.Fprintf(w, "    probes explain %.1f%% of core.hop_us (%.0f ns of %.0f ns: %s, %s); the rest is worker wake and scheduling\n",
		100*explained/hop, explained, hop, wl.hopProbe, wl.hopProbeNote)
}

package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sampleCap is the per-caller latency buffer: the fastest workload
// (echo-polling, ~70 k req/s per caller) fills a fifth of it in a 3-s slice.
const sampleCap = 1 << 20

// lostAfter is how long past a phase's end a request may stay unanswered
// before it fails with the slice's context. One context serves a whole
// slice, so the deadline costs the request path nothing.
const lostAfter = 10 * time.Second

// loader drives one deployed workload in closed loops.
type loader struct {
	wl      *workload
	tg      *target
	reqs    []request
	callers [maxCallers]caller
	samples [maxCallers][]uint32 // ns per request, off-heap, reused per slice
	merged  []uint32
	next    int // request sequence position, carried across slices

	attempted, failed int
	errs              []string // first few failures, for the report
}

func newLoader(wl *workload, tg *target, reqs []request, a *arena) *loader {
	l := &loader{wl: wl, tg: tg, reqs: reqs, merged: a.allocU32(maxCallers * sampleCap)}
	for c := range l.callers {
		l.callers[c].dst = a.alloc(wl.replyCap)
		l.samples[c] = a.allocU32(sampleCap)
	}
	return l
}

func (l *loader) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// once sends request i on caller c and reports whether the reply verified.
func (l *loader) once(ctx context.Context, c, i int) (time.Duration, error) {
	rq := &l.reqs[i%len(l.reqs)]
	start := time.Now()
	reply, err := l.tg.call(ctx, &l.callers[c], rq)
	lat := time.Since(start)
	return lat, l.wl.check(rq, reply, err)
}

// sliceResult is one timed slice.
type sliceResult struct {
	n        int // verified replies
	seconds  float64
	cpuUs    float64 // process user+sys CPU over the slice
	p50, p99 float64 // µs
	p999     float64
}

func (s sliceResult) rps() float64       { return float64(s.n) / s.seconds }
func (s sliceResult) cpuPerReq() float64 { return s.cpuUs / float64(max(s.n, 1)) }
func (s sliceResult) p50us() float64     { return s.p50 }
func (s sliceResult) p99us() float64     { return s.p99 }
func (s sliceResult) p999us() float64    { return s.p999 }

// percentile reads the q-quantile (nearest rank) from sorted samples.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// keepAwake spins n goroutines until the returned function is called.
//
// With fewer callers than cores, a core falls idle at every goroutine
// handoff, and on this kind of host (a microVM whose idle loop is HLT) each
// wake-up of a halted virtual CPU is priced by the hypervisor: measured on
// unchanged code, xnode-chain's one-caller p50 read 39–90 µs across slices
// without a spinner and 33–36 µs with one, large-fanout's 118–165 µs against
// 78–79 µs. The one-caller phases therefore keep maxCallers goroutines
// busy, like the sat phase does, so that what they time is the request
// path and not the price of waking a core.
func keepAwake(n int) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
			}
		}()
	}
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// slice runs `callers` closed loops for d. Each caller walks the request
// sequence with its own stride, so the order is fixed by the seed alone.
func (l *loader) slice(callers int, d time.Duration) sliceResult {
	defer keepAwake(maxCallers - callers)()
	type tally struct {
		n, bad int
		err    error
	}
	tallies := make([]tally, callers)
	ctx, cancel := context.WithTimeout(context.Background(), d+lostAfter)
	defer cancel()
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			buf := l.samples[c]
			for i := l.next + c; ; i += callers {
				lat, err := l.once(ctx, c, i)
				if err != nil {
					t.bad++
					if t.err == nil {
						t.err = err
					}
				} else if t.n < len(buf) {
					buf[t.n] = uint32(min(lat, 1<<32-1))
					t.n++
				}
				if time.Since(start) >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0

	all := l.merged[:0]
	for c := range tallies {
		t := &tallies[c]
		l.attempted += t.n + t.bad
		l.next += t.n + t.bad
		if t.bad > 0 {
			l.failed += t.bad - 1
			l.fail("%v", t.err)
		}
		all = append(all, l.samples[c][:t.n]...)
	}
	slices.Sort(all)
	return sliceResult{
		n:       len(all),
		seconds: elapsed.Seconds(),
		cpuUs:   float64(cpu) / 1e3,
		p50:     percentile(all, 0.50) / 1e3,
		p99:     percentile(all, 0.99) / 1e3,
		p999:    percentile(all, 0.999) / 1e3,
	}
}

// phase is back-to-back slices at one width.
type phase []sliceResult

func (l *loader) phase(callers, slices int, d time.Duration) phase {
	p := make(phase, slices)
	for i := range p {
		p[i] = l.slice(callers, d)
	}
	return p
}

// values lists f over the phase's slices.
func (p phase) values(f func(sliceResult) float64) []float64 {
	v := make([]float64, len(p))
	for i, s := range p {
		v[i] = f(s)
	}
	return v
}

func (p phase) replies() (n int) {
	for _, s := range p {
		n += s.n
	}
	return n
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

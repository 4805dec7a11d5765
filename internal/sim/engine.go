// Package sim is a deterministic discrete-event simulation engine with a
// CPU-contention model. It drives the comparative platform evaluation
// (Knative vs gRPC vs D-/S-SPRIGHT): virtual time advances from event to
// event, and work executes on modeled cores so that CPU saturation, queueing
// delay and the resulting closed-loop overload cycles emerge naturally.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Seconds converts virtual time to float seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

type event struct {
	at  Time
	seq uint64 // tie-break for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event executor. It is not safe for
// concurrent use; all model code runs inside event callbacks.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.events)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a model bug rather than a recoverable condition.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d ticks from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Run executes events in timestamp order until the queue drains or virtual
// time would pass `until` (inclusive). It returns the number of events
// executed.
func (e *Engine) Run(until Time) int {
	n := 0
	for e.events.Len() > 0 {
		next := e.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.events)
		e.now = next.at
		next.fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// core is one CPU core with a FIFO run queue.
type core struct {
	freeAt Time // when the core finishes its current queue
	busy   Time // cumulative busy ticks (for utilization accounting)
}

// CPUSet models a set of identical cores shared by one or more components.
// Work items are placed on the earliest-available core (FIFO per core, work
// never migrates).
type CPUSet struct {
	eng   *Engine
	cores []core

	// usage sampling
	lastSample     Time
	busyAtSample   Time
	sampleInterval Time
	samples        []Sample
	groups         map[string]*groupAccount
}

// Sample is one CPU-usage observation: Busy is in units of cores (e.g. 2.5
// means 250% CPU) over the sampling window ending at At.
type Sample struct {
	At   Time
	Busy float64
}

type groupAccount struct {
	busy    Time
	busyAt  Time
	samples []Sample
}

// NewCPUSet creates a CPU set with n cores managed by eng. sampleInterval
// controls usage time-series granularity (0 disables sampling).
func NewCPUSet(eng *Engine, n int, sampleInterval Time) *CPUSet {
	if n <= 0 {
		panic("sim: CPUSet needs at least one core")
	}
	c := &CPUSet{
		eng:            eng,
		cores:          make([]core, n),
		sampleInterval: sampleInterval,
		groups:         make(map[string]*groupAccount),
	}
	if sampleInterval > 0 {
		eng.After(sampleInterval, c.sample)
	}
	return c
}

// Cores returns the number of cores.
func (c *CPUSet) Cores() int { return len(c.cores) }

func (c *CPUSet) group(name string) *groupAccount {
	g, ok := c.groups[name]
	if !ok {
		g = &groupAccount{}
		c.groups[name] = g
	}
	return g
}

// Exec schedules `cycles`-worth of work (expressed as virtual duration d)
// on the earliest-free shared core and calls done (may be nil) when the
// work completes. group attributes the busy time for per-component usage
// accounting. Exec returns the completion time.
func (c *CPUSet) Exec(group string, d Time, done func()) Time {
	if d < 0 {
		d = 0
	}
	// choose the earliest-free core
	best := -1
	var bestFree Time = math.MaxInt64
	now := c.eng.Now()
	for i := range c.cores {
		f := c.cores[i].freeAt
		if f < now {
			f = now
		}
		if f < bestFree {
			bestFree = f
			best = i
		}
	}
	start := bestFree
	end := start + d
	c.cores[best].freeAt = end
	c.cores[best].busy += d
	c.group(group).busy += d
	if done != nil {
		c.eng.At(end, done)
	}
	return end
}

func (c *CPUSet) sample() {
	now := c.eng.Now()
	window := now - c.lastSample
	if window <= 0 {
		window = c.sampleInterval
	}
	var busy Time
	for i := range c.cores {
		busy += c.coreBusyInWindow(i)
	}
	delta := busy - c.busyAtSample
	c.busyAtSample = busy
	total := float64(delta) / float64(window)
	c.samples = append(c.samples, Sample{At: now, Busy: total})
	for _, g := range c.groups {
		gd := g.busy - g.busyAt
		g.busyAt = g.busy
		gb := float64(gd) / float64(window)
		g.samples = append(g.samples, Sample{At: now, Busy: gb})
	}
	c.lastSample = now
	c.eng.After(c.sampleInterval, c.sample)
}

func (c *CPUSet) coreBusyInWindow(i int) Time { return c.cores[i].busy }

// Samples returns the aggregate usage time series collected so far.
func (c *CPUSet) Samples() []Sample { return c.samples }

// GroupSamples returns the usage time series attributed to one group.
func (c *CPUSet) GroupSamples(group string) []Sample {
	if g, ok := c.groups[group]; ok {
		return g.samples
	}
	return nil
}

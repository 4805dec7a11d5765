package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	if n := e.Run(100); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must run FIFO, got %v", order)
		}
	}
}

func TestEngineRunStopsAtUntil(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(100, func() { ran = true })
	e.Run(50)
	if ran {
		t.Fatal("event past `until` must not run")
	}
	if e.Now() != 50 {
		t.Fatalf("clock should advance to until=50, got %d", e.Now())
	}
	e.Run(200)
	if !ran {
		t.Fatal("event should run on the next window")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	e.Run(1000)
	if count != 5 {
		t.Fatalf("tick ran %d times, want 5", count)
	}
	if e.Now() != 1000 {
		t.Fatalf("now=%d want 1000", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(200)
}

func TestTimeSeconds(t *testing.T) {
	if Time(2e9).Seconds() != 2.0 {
		t.Fatal("2e9 ticks must be 2 seconds")
	}
}

func TestCPUSetSerializesWorkOnOneCore(t *testing.T) {
	e := NewEngine()
	c := NewCPUSet(e, 1, 0)
	var done []Time
	for i := 0; i < 3; i++ {
		c.Exec("g", 100, func() { done = append(done, e.Now()) })
	}
	e.Run(1000)
	want := []Time{100, 200, 300}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d at %d, want %d (FIFO on one core)", i, done[i], w)
		}
	}
}

func TestCPUSetParallelismAcrossCores(t *testing.T) {
	e := NewEngine()
	c := NewCPUSet(e, 4, 0)
	var last Time
	for i := 0; i < 4; i++ {
		c.Exec("g", 100, func() { last = e.Now() })
	}
	e.Run(1000)
	if last != 100 {
		t.Fatalf("4 items on 4 cores should all finish at 100, last=%d", last)
	}
}

// Exec returns the completion time: work queues behind the core's backlog,
// an idle core banks no credit for the time it sat unused, and a negative
// duration is no work at all.
func TestCPUSetQueueDelay(t *testing.T) {
	e := NewEngine()
	c := NewCPUSet(e, 1, 0)
	if c.Cores() != 1 {
		t.Fatalf("cores %d, want 1", c.Cores())
	}
	if end := c.Exec("g", 500, nil); end != 500 {
		t.Fatalf("first item ends at %d, want 500", end)
	}
	if end := c.Exec("g", 200, nil); end != 700 {
		t.Fatalf("queued item ends at %d, want 700 (500 of queue delay)", end)
	}
	e.Run(1000)
	if end := c.Exec("g", 100, nil); end != 1100 {
		t.Fatalf("item on an idle core ends at %d, want 1100", end)
	}
	if end := c.Exec("g", -5, nil); end != 1100 {
		t.Fatalf("negative work ends at %d, want behind the backlog at 1100", end)
	}
}

// After is relative to the current virtual time, and a negative delay runs
// the event now rather than in the past.
func TestEngineAfterIsRelativeToNow(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Run(100)
	e.After(50, func() { at = append(at, e.Now()) })
	e.After(-10, func() { at = append(at, e.Now()) })
	e.Run(1000)
	if len(at) != 2 || at[0] != 100 || at[1] != 150 {
		t.Fatalf("events ran at %v, want [100 150]", at)
	}
}

func TestCPUSetUsageSampling(t *testing.T) {
	e := NewEngine()
	c := NewCPUSet(e, 2, 1000)
	// keep one core 100% busy for 10 windows
	var feed func()
	feed = func() {
		if e.Now() < 10000 {
			c.Exec("busy", 1000, feed)
		}
	}
	feed()
	e.Run(10000)
	s := c.Samples()
	if len(s) == 0 {
		t.Fatal("no samples collected")
	}
	// one of two cores busy -> about 1.0 core busy per window
	mid := s[len(s)/2]
	if mid.Busy < 0.9 || mid.Busy > 1.1 {
		t.Fatalf("expected ~1 core busy, got %v", mid.Busy)
	}
	gs := c.GroupSamples("busy")
	if len(gs) == 0 {
		t.Fatal("no group samples")
	}
}

func TestCPUSetGroupBusyAccounting(t *testing.T) {
	e := NewEngine()
	c := NewCPUSet(e, 2, 0)
	c.Exec("a", 300, nil)
	c.Exec("b", 200, nil)
	e.Run(1000)
	if a, b := c.groups["a"].busy, c.groups["b"].busy; a != 300 || b != 200 {
		t.Fatalf("group accounting wrong: a=%d b=%d", a, b)
	}
	if total := c.cores[0].busy + c.cores[1].busy; total != 500 {
		t.Fatalf("total busy %d want 500", total)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / float64(n)
	if mean < 4.5 || mean > 5.5 {
		t.Fatalf("exponential mean drifted: %v", mean)
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must be remapped to a usable state")
	}
}

// Each sampling window splits the aggregate busy time among the groups that
// ran in it; a group that never ran has no series.
func TestCPUSetGroupSamplesSplitTheAggregate(t *testing.T) {
	e := NewEngine()
	c := NewCPUSet(e, 2, 1000)
	for at := Time(0); at < 5000; at += 1000 {
		e.At(at, func() {
			c.Exec("a", 600, nil)
			c.Exec("b", 300, nil)
		})
	}
	e.Run(5000)
	agg, a, b := c.Samples(), c.GroupSamples("a"), c.GroupSamples("b")
	if len(agg) == 0 || len(a) != len(agg) || len(b) != len(agg) {
		t.Fatalf("sample counts: aggregate %d, a %d, b %d", len(agg), len(a), len(b))
	}
	for i := range agg {
		if a[i].At != agg[i].At || b[i].At != agg[i].At {
			t.Fatalf("window %d: group samples at %v/%v, aggregate at %v", i, a[i].At, b[i].At, agg[i].At)
		}
		if sum := a[i].Busy + b[i].Busy; math.Abs(sum-agg[i].Busy) > 1e-9 {
			t.Fatalf("window %d: groups sum to %v cores, aggregate %v", i, sum, agg[i].Busy)
		}
	}
	if a[0].Busy != 0.6 || b[0].Busy != 0.3 {
		t.Fatalf("first window: a %v b %v cores, want 0.6 and 0.3", a[0].Busy, b[0].Busy)
	}
	if c.GroupSamples("idle") != nil {
		t.Fatal("a group that never ran has samples")
	}
}

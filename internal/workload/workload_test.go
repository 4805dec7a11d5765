package workload

import (
	"testing"

	"github.com/spright-go/spright/internal/sim"
)

func TestClosedLoopZeroThinkKeepsConcurrency(t *testing.T) {
	eng := sim.NewEngine()
	inflight, maxInflight, issued, completed := 0, 0, 0, 0
	cl := &ClosedLoop{
		Eng:         eng,
		Concurrency: 4,
		Issue: func(_ int, done func()) {
			issued++
			inflight++
			if inflight > maxInflight {
				maxInflight = inflight
			}
			eng.After(sim.Time(10e6), func() { // 10ms service
				inflight--
				completed++
				done()
			})
		},
	}
	cl.Start()
	eng.Run(sim.Time(1e9)) // 1 second
	// each user completes ~100 requests/second at 10ms each
	if completed < 350 || completed > 400 {
		t.Fatalf("completed %d, want ~400", completed)
	}
	if issued < completed {
		t.Fatal("issued must be >= completed")
	}
	if maxInflight != 4 {
		t.Fatalf("max inflight %d, want exactly the concurrency", maxInflight)
	}
}

func TestClosedLoopSpawnRateRamps(t *testing.T) {
	eng := sim.NewEngine()
	started := map[int]sim.Time{}
	cl := &ClosedLoop{
		Eng:         eng,
		Concurrency: 10,
		SpawnPerSec: 5, // 10 users over 2 seconds
		Issue: func(u int, done func()) {
			if _, ok := started[u]; !ok {
				started[u] = eng.Now()
			}
			eng.After(sim.Time(1e6), done)
		},
	}
	cl.Start()
	eng.Run(sim.Time(5e9))
	if len(started) != 10 {
		t.Fatalf("only %d users started", len(started))
	}
	if started[9] < sim.Time(1700e6) {
		t.Fatalf("user 9 started at %v — ramp too fast", started[9])
	}
	if started[0] != 0 {
		t.Fatalf("user 0 must start immediately, started %v", started[0])
	}
}

func TestUniformThinkRange(t *testing.T) {
	think := UniformThink(sim.Time(1e9), sim.Time(10e9))
	r := sim.NewRand(3)
	var sum sim.Time
	n := 10000
	for i := 0; i < n; i++ {
		v := think(r)
		if v < sim.Time(1e9) || v > sim.Time(10e9) {
			t.Fatalf("think %v out of range", v)
		}
		sum += v
	}
	mean := float64(sum) / float64(n)
	if mean < 5e9 || mean > 6e9 {
		t.Fatalf("mean think %.2fs, want ~5.5s", mean/1e9)
	}
	// degenerate and swapped ranges
	if UniformThink(5, 5)(r) != 5 {
		t.Fatal("constant range broken")
	}
	if v := UniformThink(10, 1)(r); v < 1 || v > 10 {
		t.Fatal("swapped range broken")
	}
}

func TestWrkMixProportions(t *testing.T) {
	r := sim.NewRand(7)
	big := 0
	n := 100000
	for i := 0; i < n; i++ {
		if WrkMix(r) == 10*1024 {
			big++
		}
	}
	frac := float64(big) / float64(n)
	if frac < 0.015 || frac > 0.025 {
		t.Fatalf("10KB fraction %.4f, want ~0.02", frac)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := sim.NewRand(5)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[WeightedChoice(r, []float64{1, 2, 7})]++
	}
	if counts[2] < 19000 || counts[0] > 5000 {
		t.Fatalf("weights not respected: %v", counts)
	}
	if WeightedChoice(r, []float64{0, 0}) != 0 {
		t.Fatal("degenerate weights must return 0")
	}
}

func TestMotionTraceIntermittency(t *testing.T) {
	cfg := DefaultMotionTrace()
	events := MotionTrace(cfg)
	if len(events) < 50 {
		t.Fatalf("only %d events in an hour", len(events))
	}
	// must contain at least one idle gap > 30s (the Knative grace
	// period) — otherwise Fig. 11 could not show cold starts.
	longGaps := 0
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events must be time ordered")
		}
		if events[i].At-events[i-1].At > sim.Time(30e9) {
			longGaps++
		}
	}
	if longGaps < 5 {
		t.Fatalf("only %d idle gaps > 30s; trace not intermittent enough", longGaps)
	}
	// and bursts: some inter-arrivals of a few seconds
	short := 0
	for i := 1; i < len(events); i++ {
		if d := events[i].At - events[i-1].At; d < sim.Time(10e9) {
			short++
		}
	}
	if short < len(events)/2 {
		t.Fatalf("bursts missing: %d short gaps of %d", short, len(events))
	}
}

func TestMotionTraceDeterministic(t *testing.T) {
	a := MotionTrace(DefaultMotionTrace())
	b := MotionTrace(DefaultMotionTrace())
	if len(a) != len(b) {
		t.Fatal("trace must be deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace must be deterministic")
		}
	}
}

func TestParkingTraceStructure(t *testing.T) {
	cfg := DefaultParkingTrace()
	events := ParkingTrace(cfg)
	// 700s with bursts at 240s and 480s: 2 bursts of 164
	if len(events) != 2*164 {
		t.Fatalf("%d events, want 328", len(events))
	}
	if events[0].At != sim.Time(240e9) {
		t.Fatalf("first burst at %v, want 240s", events[0].At)
	}
	if events[0].Size != 3*1024 {
		t.Fatalf("snapshot size %d", events[0].Size)
	}
	starts := BurstStarts(cfg)
	if len(starts) != 2 || starts[0] != sim.Time(240e9) || starts[1] != sim.Time(480e9) {
		t.Fatalf("burst starts %v", starts)
	}
}

func TestReplayFiresAllEvents(t *testing.T) {
	eng := sim.NewEngine()
	events := []Event{{At: 10, Size: 1}, {At: 20, Size: 2}, {At: 30, Size: 3}}
	var got []Event
	Replay(eng, events, func(e Event) { got = append(got, e) })
	eng.Run(100)
	if len(got) != 3 || got[1].Size != 2 {
		t.Fatalf("replay wrong: %v", got)
	}
}

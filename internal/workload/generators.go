// Package workload implements the paper's load generators and traces:
// ab-style fixed-concurrency closed loops (§3.2.2), Locust-style ramped
// user swarms with think time (§4.2.1), the wrk variable-size HTTP mix of
// §2 (98% 100 B / 2% 10 KB), a MERL-like intermittent motion-event trace
// (§4.2.2), and the periodic parking-camera burst trace (§4.1).
//
// Generators drive a discrete-event simulation: they schedule on a
// sim.Engine and call an Issue function for every request, which must call
// done exactly once when the response arrives (closed-loop semantics).
package workload

import (
	"github.com/spright-go/spright/internal/sim"
)

// IssueFunc submits one request. Implementations call done exactly once
// when the request completes (or fails).
type IssueFunc func(user int, done func())

// ClosedLoop is an Apache-Bench-style generator: Concurrency virtual users
// in a closed loop with zero think time, optionally ramped at SpawnPerSec
// users per second (Locust's spawn rate; 0 = all users start immediately).
type ClosedLoop struct {
	Eng         *sim.Engine
	Concurrency int
	SpawnPerSec float64

	// ThinkTime, if set, returns the per-iteration think time drawn for
	// a user (Locust-style wait between requests). nil = zero think.
	ThinkTime func(r *sim.Rand) sim.Time

	Issue IssueFunc
	Seed  uint64
}

// Start launches the generator; users run until the engine's run window
// ends.
func (c *ClosedLoop) Start() {
	if c.Concurrency <= 0 || c.Issue == nil {
		panic("workload: ClosedLoop needs Concurrency and Issue")
	}
	rng := sim.NewRand(c.Seed)
	if c.SpawnPerSec <= 0 {
		for u := 0; u < c.Concurrency; u++ {
			c.spawnUser(u, rng)
		}
		return
	}
	interval := sim.Time(1e9 / c.SpawnPerSec)
	for u := 0; u < c.Concurrency; u++ {
		u := u
		c.Eng.After(sim.Time(u)*interval, func() { c.spawnUser(u, rng) })
	}
}

func (c *ClosedLoop) spawnUser(u int, rng *sim.Rand) {
	var loop func()
	loop = func() {
		c.Issue(u, func() {
			next := sim.Time(0)
			if c.ThinkTime != nil {
				next = c.ThinkTime(rng)
			}
			c.Eng.After(next, loop)
		})
	}
	loop()
}

// UniformThink returns a Locust-style uniform think-time in [lo, hi].
func UniformThink(lo, hi sim.Time) func(*sim.Rand) sim.Time {
	if hi < lo {
		lo, hi = hi, lo
	}
	span := hi - lo
	return func(r *sim.Rand) sim.Time {
		if span == 0 {
			return lo
		}
		return lo + sim.Time(r.Uint64()%uint64(span+1))
	}
}

// WrkMix draws payload sizes per the §2 experiment: 2% at 10 KB, 98% at
// 100 B.
func WrkMix(r *sim.Rand) int {
	if r.Float64() < 0.02 {
		return 10 * 1024
	}
	return 100
}

// WeightedChoice picks index i with probability weights[i]/sum.
func WeightedChoice(r *sim.Rand, weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		return 0
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

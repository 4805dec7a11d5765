package platform

import (
	"math"
	"testing"

	"github.com/spright-go/spright/internal/sim"
)

// TestComponentConcurrencyLimit: a conc-1 component serializes work even
// with many cores available.
func TestComponentConcurrencyLimit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cpu := sim.NewCPUSet(eng, 8, 0)
	c := NewComponent(eng, cfg, cpu, "g", 1)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		c.Do(2.2e6, func() { done = append(done, eng.Now()) }) // 1ms each
	}
	if c.Inflight() != 3 {
		t.Fatalf("inflight %d want 3 (1 running + 2 queued)", c.Inflight())
	}
	eng.Run(sim.Time(1e10))
	if len(done) != 3 {
		t.Fatalf("completed %d", len(done))
	}
	for i, at := range done {
		want := sim.Time(1e6) * sim.Time(i+1)
		if at != want {
			t.Fatalf("completion %d at %v want %v (serialized)", i, at, want)
		}
	}
}

// TestComponentUnboundedParallel: without a limit, work spreads across
// cores.
func TestComponentUnboundedParallel(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cpu := sim.NewCPUSet(eng, 4, 0)
	c := NewComponent(eng, cfg, cpu, "g", 0)
	var last sim.Time
	for i := 0; i < 4; i++ {
		c.Do(2.2e6, func() { last = eng.Now() })
	}
	eng.Run(sim.Time(1e10))
	if last != sim.Time(1e6) {
		t.Fatalf("4 items on 4 cores should finish together at 1ms, got %v", last)
	}
}

// TestDESMatchesMD1Queueing: validate the discrete-event core against
// queueing theory. For an M/D/1 queue (Poisson arrivals, deterministic
// service, one server) the mean wait is W_q = ρ·S / (2(1−ρ)); the DES
// must land close.
func TestDESMatchesMD1Queueing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cpu := sim.NewCPUSet(eng, 1, 0)
	c := NewComponent(eng, cfg, cpu, "g", 0)

	serviceSec := 0.001                          // 1 ms deterministic service
	lambda := 700.0                              // arrivals/sec → ρ = 0.7
	rho := lambda * serviceSec                   // 0.7
	wantWq := rho * serviceSec / (2 * (1 - rho)) // ≈ 1.1667 ms

	// Poisson arrivals; a request's wait is its response time less its
	// deterministic service.
	var totalWait float64
	var n int
	rng := sim.NewRand(21)
	var arrive func()
	arrive = func() {
		at := eng.Now()
		c.Do(serviceSec*cfg.Model.HzPerCore, func() {
			totalWait += (eng.Now() - at).Seconds() - serviceSec
			n++
		})
		eng.After(sim.Time(rng.Exp(1e9/lambda)), arrive)
	}
	eng.After(sim.Time(rng.Exp(1e9/lambda)), arrive)
	eng.Run(sim.Time(200e9)) // 200 s, ~140k arrivals
	gotWq := totalWait / float64(n)
	if rel := math.Abs(gotWq-wantWq) / wantWq; rel > 0.1 {
		t.Fatalf("M/D/1 mean wait: DES %.4fms vs theory %.4fms (rel err %.2f)",
			gotWq*1e3, wantWq*1e3, rel)
	}
}

package core

import (
	"errors"
	"sync/atomic"
	"time"
)

// HealthPolicy configures the per-instance circuit breaker that makes DFR
// health-aware: instances whose handlers keep crashing or erroring are
// taken out of PickInstance until a cooldown elapses, the way a sidecar
// mesh would eject an unhealthy endpoint. The zero value disables circuit
// breaking (health counters are still tracked).
type HealthPolicy struct {
	// ConsecutiveFailures opens the breaker after this many back-to-back
	// handler failures (errors or panics). 0 disables the breaker.
	ConsecutiveFailures int
	// OpenDuration is how long an open breaker excludes the instance
	// from routing before a half-open trial. Defaults to 100ms.
	OpenDuration time.Duration
}

// ErrAllUnhealthy is returned by PickInstance when every instance of a
// function is circuit-broken: the caller gets a terminal error instead of
// a blackholed descriptor.
var ErrAllUnhealthy = errors.New("core: all instances circuit-broken")

// health is one instance's failure-tracking state. All fields are atomics
// so the hot path (recordSuccess / routable) stays lock-free.
type health struct {
	crashes   atomic.Uint64 // handler panics survived by panic isolation
	consec    atomic.Int32  // consecutive failures since last success
	openUntil atomic.Int64  // unix-nano until which the breaker is open; 0 = closed
}

// Crashes returns how many handler panics this instance has absorbed.
func (in *Instance) Crashes() uint64 { return in.health.crashes.Load() }

// CircuitOpen reports whether the instance is currently ejected from DFR
// routing (the kubelet's probe reports it; the autoscaler restarts the
// instance).
func (in *Instance) CircuitOpen() bool {
	ou := in.health.openUntil.Load()
	return ou != 0 && time.Now().UnixNano() < ou
}

// recordSuccess closes the breaker and resets the failure streak. It loads
// before it stores: a healthy instance's words are already zero, and leaving
// them unwritten keeps the line PickInstance reads from every core shared
// instead of invalidating it on every hop.
func (in *Instance) recordSuccess() {
	if in.health.consec.Load() != 0 {
		in.health.consec.Store(0)
	}
	if in.health.openUntil.Load() != 0 {
		in.health.openUntil.Store(0)
	}
}

// recordFailure tracks a failed invocation and opens the breaker when the
// chain's health policy says the streak is long enough.
func (in *Instance) recordFailure(crash bool) {
	if crash {
		in.health.crashes.Add(1)
	}
	n := in.health.consec.Add(1)
	if in.chain == nil {
		return
	}
	pol := in.chain.health
	if pol.ConsecutiveFailures <= 0 || int(n) < pol.ConsecutiveFailures {
		return
	}
	until := time.Now().Add(pol.OpenDuration).UnixNano()
	if in.health.openUntil.Swap(until) == 0 {
		in.chain.failures.circuitOpens.Add(1)
		in.chain.emitFlight(FlightCircuitOpen, in.fnName, "", until)
	}
}

// routable reports whether DFR may pick this instance at now (unix-nano).
// An expired open breaker admits a half-open trial: the streak counter is
// rewound to one-below-threshold, so a single failure re-opens the breaker
// immediately while a success closes it fully.
func (in *Instance) routable(now int64) bool {
	ou := in.health.openUntil.Load()
	if ou == 0 {
		return true
	}
	if now < ou {
		return false
	}
	if in.health.openUntil.CompareAndSwap(ou, 0) {
		if in.chain != nil && in.chain.health.ConsecutiveFailures > 0 {
			in.health.consec.Store(int32(in.chain.health.ConsecutiveFailures - 1))
		}
	}
	return true
}

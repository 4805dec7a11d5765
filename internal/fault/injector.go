// Package fault is SPRIGHT's deterministic fault-injection subsystem: a
// seedable injector that perturbs the dataplane at two well-defined sites —
// the handler invocation (panic / error / delay / drop) and the descriptor
// send (queue-full) — so the failure-recovery machinery (panic isolation,
// deadlines, retries, circuit breaking) can be driven reproducibly in chaos
// tests. The injector itself is dataplane-agnostic: core consults it, it
// never imports core.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Op is the kind of fault a rule injects.
type Op uint8

// Fault operations. Panic/Error/Delay/Drop fire at the handler site;
// QueueFull fires at the send site (it manifests as a transient
// socket-queue-full transport error, exercising the retry path).
const (
	OpPanic Op = iota
	OpError
	OpDelay
	OpDrop
	OpQueueFull
)

func (o Op) String() string {
	switch o {
	case OpPanic:
		return "panic"
	case OpError:
		return "error"
	case OpDelay:
		return "delay"
	case OpDrop:
		return "drop"
	case OpQueueFull:
		return "queue-full"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ErrInjected is the error returned by handlers hit by an OpError fault.
var ErrInjected = errors.New("fault: injected error")

// Rule scopes one fault. A rule fires when its site matches, its scope
// matches, its count is not exhausted, and a draw from the injector's
// seeded PRNG lands under Probability.
type Rule struct {
	// Op selects the fault kind (and thereby the injection site).
	Op Op
	// Function scopes handler-site faults (and the source of send-site
	// faults) to one function name; "" matches every function.
	Function string
	// Hop scopes send-site faults to one destination function name
	// ("gateway" for replies); "" matches every hop.
	Hop string
	// Probability in (0,1] is the per-evaluation firing chance; values
	// <= 0 or > 1 mean "always fire".
	Probability float64
	// Delay is the injected latency for OpDelay rules.
	Delay time.Duration
	// MaxCount bounds how many times the rule fires; 0 is unlimited.
	MaxCount uint64
}

// Decision is the outcome of a matching handler-site rule.
type Decision struct {
	Op    Op
	Delay time.Duration
}

type ruleState struct {
	Rule
	fired uint64
}

// Injector evaluates fault rules with a deterministic xorshift64* PRNG.
// It is safe for concurrent use; determinism is per-draw (the global
// sequence of draws still depends on goroutine interleaving, but a fixed
// seed bounds and reproduces the fault mix).
type Injector struct {
	mu    sync.Mutex
	state uint64
	rules []*ruleState
}

// New returns an injector seeded with seed (0 is remapped to a fixed
// non-zero seed, as xorshift state must never be zero).
func New(seed uint64) *Injector {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Injector{state: seed}
}

// Add installs a rule and returns the injector for chaining.
func (inj *Injector) Add(r Rule) *Injector {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules = append(inj.rules, &ruleState{Rule: r})
	return inj
}

// draw advances the PRNG; callers hold inj.mu.
func (inj *Injector) draw() float64 {
	inj.state ^= inj.state >> 12
	inj.state ^= inj.state << 25
	inj.state ^= inj.state >> 27
	return float64((inj.state*0x2545f4914f6cdd1d)>>11) / (1 << 53)
}

// fire evaluates one rule; callers hold inj.mu.
func (inj *Injector) fire(rs *ruleState) bool {
	if rs.MaxCount > 0 && rs.fired >= rs.MaxCount {
		return false
	}
	if rs.Probability > 0 && rs.Probability <= 1 && inj.draw() >= rs.Probability {
		return false
	}
	rs.fired++
	return true
}

// Decide evaluates handler-site rules for function fn. The first firing
// rule wins; ok=false means no fault this invocation.
func (inj *Injector) Decide(fn string) (Decision, bool) {
	if inj == nil {
		return Decision{}, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, rs := range inj.rules {
		if rs.Op == OpQueueFull {
			continue
		}
		if rs.Function != "" && rs.Function != fn {
			continue
		}
		if inj.fire(rs) {
			return Decision{Op: rs.Op, Delay: rs.Delay}, true
		}
	}
	return Decision{}, false
}

// DecideSend evaluates send-site (queue-full) rules for the src→dst hop.
// true means the send must fail as if the destination socket queue were
// full — a transient error the retry layer may absorb.
func (inj *Injector) DecideSend(src, dst string) bool {
	if inj == nil {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, rs := range inj.rules {
		if rs.Op != OpQueueFull {
			continue
		}
		if rs.Function != "" && rs.Function != src {
			continue
		}
		if rs.Hop != "" && rs.Hop != dst {
			continue
		}
		if inj.fire(rs) {
			return true
		}
	}
	return false
}

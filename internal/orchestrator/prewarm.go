package orchestrator

import (
	"sync"

	"github.com/spright-go/spright/internal/core"
)

// PrewarmPool keeps pre-wired instances ready per function so that
// resuming a scaled-to-zero function skips the expensive startup steps:
// the instance's socket is already transport-registered, its filter edges
// authorized and its worker pool running. Activation is then a router
// insert — the cold start the parked request observes shrinks to
// roughly a warm dispatch.
//
// This leans on §4.2.2's economics: a warm SPRIGHT instance is an idle
// goroutine set parked on a channel, so keeping a few per function costs
// no CPU.
type PrewarmPool struct {
	dep *Deployment
	per int // warm instances to hold per function

	mu     sync.Mutex
	warm   map[string][]*core.PrewarmedInstance
	hits   uint64
	misses uint64
	closed bool
}

// NewPrewarmPool builds a pool holding per warm instances per function.
func NewPrewarmPool(dep *Deployment, per int) *PrewarmPool {
	if per <= 0 {
		per = 1
	}
	return &PrewarmPool{
		dep:  dep,
		per:  per,
		warm: make(map[string][]*core.PrewarmedInstance),
	}
}

// Fill tops every function up to the pool's per-function size. Errors
// (instance limit, closed chain) stop filling that function but are not
// fatal: a short pool degrades to cold ScaleUp, not failure.
func (p *PrewarmPool) Fill() {
	c := p.dep.Chain
	for _, fn := range c.Functions() {
		for {
			p.mu.Lock()
			if p.closed || len(p.warm[fn]) >= p.per {
				p.mu.Unlock()
				break
			}
			p.mu.Unlock()
			pw, err := c.Prewarm(fn)
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				c.DiscardPrewarmed(pw)
				return
			}
			p.warm[fn] = append(p.warm[fn], pw)
			p.mu.Unlock()
		}
	}
}

// Take activates one prewarmed instance of fn, reporting whether the pool
// could serve the request (false is a miss: the caller falls back to a
// cold ScaleUp).
func (p *PrewarmPool) Take(fn string) (*core.Instance, bool) {
	p.mu.Lock()
	entries := p.warm[fn]
	if len(entries) == 0 {
		p.misses++
		p.mu.Unlock()
		return nil, false
	}
	pw := entries[len(entries)-1]
	p.warm[fn] = entries[:len(entries)-1]
	p.hits++
	p.mu.Unlock()

	inst, err := p.dep.Chain.Activate(pw)
	if err != nil {
		return nil, false
	}
	return inst, true
}

// PrewarmStats summarizes pool activity.
type PrewarmStats struct {
	// Size is the current number of warm instances across functions.
	Size int
	// Hits counts Takes served warm; Misses counts Takes that fell
	// through to cold starts.
	Hits   uint64
	Misses uint64
}

// Stats returns a snapshot.
func (p *PrewarmPool) Stats() PrewarmStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := 0
	for _, entries := range p.warm {
		size += len(entries)
	}
	return PrewarmStats{Size: size, Hits: p.hits, Misses: p.misses}
}

// Close discards every warm instance and stops future fills.
func (p *PrewarmPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	drained := p.warm
	p.warm = make(map[string][]*core.PrewarmedInstance)
	p.mu.Unlock()
	for _, entries := range drained {
		for _, pw := range entries {
			p.dep.Chain.DiscardPrewarmed(pw)
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Direct Function Routing (§3.2.3): a chain-specific userspace routing
// table (conceptually resident in the chain's shared memory) keyed by
// {message topic, current function}, resolving to the next function(s) in
// the chain; the in-kernel sockmap then turns the chosen function's
// instance ID into a socket. Load balancing across instances picks the pod
// with the maximum residual service capacity RC_i = MC_i − r_i.

// RouteKey addresses one routing-table entry.
type RouteKey struct {
	Topic string // "" matches any topic (pure sequential chains)
	From  string // function name of the current hop; "" = gateway ingress
}

// Router is the DFR routing table plus the instance registry used for
// residual-capacity load balancing. In a multi-node deployment routing
// stays {topic, from} → function; a function placed on another node is
// served here by a transport stub instance.
//
// Both tables are read on every hop and written only at deploy, scale and
// restart time, so they are copy-on-write: a writer rebuilds the table under
// mu and publishes it with one atomic store before it returns. Next and
// PickInstance are an atomic load and a map lookup — no lock, no shared
// reader count — and a RemoveInstance or SetRoute that has returned is never
// contradicted by a later hop. Published maps and slices are never mutated.
type Router struct {
	mu        sync.Mutex // serializes writers
	routes    atomic.Pointer[map[RouteKey][]string]
	instances atomic.Pointer[map[string][]*Instance]
}

// ErrNoInstance is the router's error for a function with no routable instance.
var ErrNoInstance = errors.New("core: function has no running instances")

// NewRouter returns an empty router.
func NewRouter() *Router {
	r := &Router{}
	r.routes.Store(&map[RouteKey][]string{})
	r.instances.Store(&map[string][]*Instance{})
	return r
}

// SetRoute installs (or replaces) the next hops for key. The SPRIGHT
// controller configures these from the user's chain definition; dynamic
// updates at runtime are permitted.
func (r *Router) SetRoute(key RouteKey, next ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	routes := maps.Clone(*r.routes.Load())
	if len(next) == 0 {
		delete(routes, key)
	} else {
		routes[key] = append([]string(nil), next...)
	}
	r.routes.Store(&routes)
}

// Next resolves the next-hop function names for a message with the given
// topic leaving function `from`. Exact topic match wins; a ""-topic route
// is the fallback. ok=false means the flow terminates (reply to caller).
func (r *Router) Next(topic, from string) (next []string, ok bool) {
	routes := *r.routes.Load()
	if n, hit := routes[RouteKey{Topic: topic, From: from}]; hit {
		return n, true
	}
	if topic != "" {
		if n, hit := routes[RouteKey{Topic: "", From: from}]; hit {
			return n, true
		}
	}
	return nil, false
}

// setInstances publishes a table in which fn's instance list is list.
// Callers hold mu.
func (r *Router) setInstances(fn string, list []*Instance) {
	instances := maps.Clone(*r.instances.Load())
	instances[fn] = list
	r.instances.Store(&instances)
}

// AddInstance registers a running instance of a function.
func (r *Router) AddInstance(fn string, inst *Instance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := (*r.instances.Load())[fn]
	r.setInstances(fn, append(list[:len(list):len(list)], inst))
}

// RemoveInstance deregisters an instance (scale-down).
func (r *Router) RemoveInstance(fn string, id uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := (*r.instances.Load())[fn]
	for i, in := range list {
		if in.ID() == id {
			replaced := make([]*Instance, 0, len(list)-1)
			replaced = append(replaced, list[:i]...)
			replaced = append(replaced, list[i+1:]...)
			r.setInstances(fn, replaced)
			return
		}
	}
}

// Instances returns the live instances of fn.
func (r *Router) Instances(fn string) []*Instance {
	return append([]*Instance(nil), (*r.instances.Load())[fn]...)
}

// PickInstance selects the routable instance of fn with the maximum
// residual service capacity (footnote 4: RC_i,t = MC_i − r_i,t). Routing
// is health-aware: instances whose circuit breaker is open are skipped;
// if every instance is circuit-broken the caller gets ErrAllUnhealthy — a
// terminal error — rather than a descriptor routed into a dead pod. The
// clock is read only when some candidate's breaker is not closed.
func (r *Router) PickInstance(fn string) (*Instance, error) {
	if in := r.sole(fn); in != nil {
		return in, nil
	}
	list := (*r.instances.Load())[fn]
	if len(list) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoInstance, fn)
	}
	var now int64
	var best *Instance
	bestRC := 0
	for _, in := range list {
		if in.health.openUntil.Load() != 0 {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			if !in.routable(now) {
				continue
			}
		}
		if rc := in.ResidualCapacity(); best == nil || rc > bestRC {
			best, bestRC = in, rc
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %q", ErrAllUnhealthy, fn)
	}
	return best, nil
}

// sole is PickInstance's common case, inlined into a hop: fn's only instance
// if its breaker is closed, else nil. Its load is not read: there is nothing
// to compare it with, and it sits on a line every hop to the instance writes.
func (r *Router) sole(fn string) *Instance {
	if list := (*r.instances.Load())[fn]; len(list) == 1 && list[0].health.openUntil.Load() == 0 {
		return list[0]
	}
	return nil
}

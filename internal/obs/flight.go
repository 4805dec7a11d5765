package obs

// The flight recorder is the node's black box: a bounded ring journal of
// the reason-attributed happenings every subsystem already counts —
// admission sheds, circuit-breaker flips, autoscaler decisions, cold-start
// resumes, mesh reconnects and drops, object-store tier transitions,
// leak-check failures, SLO breaches — so that when a tail-latency incident
// is noticed after the fact, the events *around* it are still addressable
// instead of having scrolled out of per-subsystem counters. Emission is a
// hook: subsystems that cannot import obs (internal/core, internal/shm)
// call a nil-checked function pointer, so a chain without a recorder pays
// one atomic load per event site and allocates nothing.
//
// Memory model: one cluster ring plus one ring per registered chain, each
// a preallocated []Event overwritten in place — steady-state emission
// allocates nothing (Event holds only string headers and integers; the
// emitting sites pass constant strings). A single atomic sequence numbers
// every event across all rings, so /events consumers paginate with a
// cursor exactly like the trace file exporter drains Seq-stamped traces:
// ?after=<seq> returns only newer events, stable across ring wrap.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the flight recorder. Core subsystems emit the
// same strings through their hook (they cannot import obs); keep the two
// lists in sync.
const (
	// EventShed is an admission-control refusal; Reason carries the
	// OverloadError reason (overload, park_full, park_timeout,
	// pool_exhausted, payload_too_large). Core samples emission — the
	// first shed per reason, then every 64th — so Value carries the
	// cumulative per-reason shed count at emit time, not 1.
	EventShed = "shed"
	// EventCircuitOpen is a circuit-breaker flip to open; Subject is the
	// function, Value the reopen deadline in unix nanos.
	EventCircuitOpen = "circuit_open"
	// EventScale is one autoscaler decision; Subject is the function,
	// Reason the decision reason, Value packs from<<32|to replicas.
	EventScale = "scale"
	// EventColdStartResume is a parked request dispatched after capacity
	// resumed; Value is the park-to-dispatch latency in nanos.
	EventColdStartResume = "coldstart_resume"
	// EventMeshReconnect is a peer link re-established after a failure;
	// Subject is the peer name.
	EventMeshReconnect = "mesh_reconnect"
	// EventMeshDrop is a frame batch the mesh gave up on; Subject is the
	// peer, Reason the drop reason (backlog, conn_down, closed), Value the
	// frame count.
	EventMeshDrop = "mesh_drop"
	// EventObjSpill / EventObjReload are object-store tier transitions;
	// Value is the payload byte count.
	EventObjSpill  = "objstore_spill"
	EventObjReload = "objstore_reload"
	// EventLeakCheck is a failed leak heuristic or LeakCheck; Reason holds
	// the failure text.
	EventLeakCheck = "leak_check"
	// EventSLOBreach is a watchdog policy violation; Reason is the breach
	// kind (latency, error_rate), Value the measured quantity in nanos
	// (latency) or error rate in parts per million (error_rate).
	EventSLOBreach = "slo_breach"
	// EventBundleCaptured marks a diagnostic bundle write; Reason is the
	// bundle ID.
	EventBundleCaptured = "bundle_captured"
	// EventBundleFailed marks a diagnostic bundle write that failed;
	// Reason carries the error text.
	EventBundleFailed = "bundle_failed"
)

// Event is one flight-recorder entry. Events are small and self-contained:
// a global sequence number, a wall-clock stamp, the chain it belongs to
// ("" for cluster-scope events), a kind, and kind-specific subject/reason
// strings plus one integer payload.
type Event struct {
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	Chain    string `json:"chain,omitempty"`
	Kind     string `json:"kind"`
	Subject  string `json:"subject,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Value    int64  `json:"value,omitempty"`
}

// EventRing is one bounded journal: a preallocated ring overwritten in
// place. It is safe for concurrent use and never allocates after creation
// (snapshots allocate, appends do not).
type EventRing struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	n     int    // live entries (== len(buf) once wrapped)
	total uint64 // events ever appended
}

// NewEventRing creates a ring retaining up to capacity events.
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Append records one event, evicting the oldest when full.
func (r *EventRing) Append(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many events were ever appended (not bounded by
// capacity) — the exposition consumers reconcile against.
func (r *EventRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns retained events with Seq > afterSeq, oldest first, up
// to limit (<= 0: all retained).
func (r *EventRing) Snapshot(afterSeq uint64, limit int) []Event {
	r.mu.Lock()
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		e := r.buf[(start+i)%len(r.buf)]
		if e.Seq > afterSeq {
			out = append(out, e)
		}
	}
	r.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[:limit] // oldest first: the cursor advances through them
	}
	return out
}

const defaultFlightCapacity = 1024

// FlightRecorder journals events into one cluster-wide ring plus one ring
// per registered chain. Emit is the single entry point, and it is
// zero-alloc.
type FlightRecorder struct {
	seq atomic.Uint64
	cap int

	cluster *EventRing
	mu      sync.RWMutex
	chains  map[string]*EventRing
}

// NewFlightRecorder creates a recorder whose rings retain up to
// capacity events each (<= 0: the 1024 default).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{
		cap:     capacity,
		cluster: NewEventRing(capacity),
		chains:  make(map[string]*EventRing),
	}
}

// RegisterChain creates (or returns) the chain's dedicated ring, so its
// events stay addressable even when a noisy neighbour floods the cluster
// ring. Unregister on chain teardown.
func (r *FlightRecorder) RegisterChain(chain string) *EventRing {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring, ok := r.chains[chain]
	if !ok {
		ring = NewEventRing(r.cap)
		r.chains[chain] = ring
	}
	return ring
}

// UnregisterChain drops the chain's ring (its events stay in the cluster
// ring until evicted).
func (r *FlightRecorder) UnregisterChain(chain string) {
	r.mu.Lock()
	delete(r.chains, chain)
	r.mu.Unlock()
}

// Emit journals one event into the cluster ring and, when chain names a
// registered chain, into that chain's ring. Safe on a nil receiver —
// emitting sites need no guards of their own.
func (r *FlightRecorder) Emit(chain, kind, subject, reason string, value int64) {
	if r == nil {
		return
	}
	e := Event{
		Seq:      r.seq.Add(1),
		UnixNano: time.Now().UnixNano(),
		Chain:    chain,
		Kind:     kind,
		Subject:  subject,
		Reason:   reason,
		Value:    value,
	}
	r.cluster.Append(e)
	if chain == "" {
		return
	}
	r.mu.RLock()
	ring := r.chains[chain]
	r.mu.RUnlock()
	if ring != nil {
		ring.Append(e)
	}
}

// Total returns how many events the recorder ever journaled.
func (r *FlightRecorder) Total() uint64 { return r.cluster.Total() }

// Events returns retained events with Seq > afterSeq, oldest first, up to
// limit. chain "" reads the cluster ring; a chain name reads that chain's
// ring (nil when the chain is not registered).
func (r *FlightRecorder) Events(chain string, afterSeq uint64, limit int) []Event {
	ring := r.cluster
	if chain != "" {
		r.mu.RLock()
		ring = r.chains[chain]
		r.mu.RUnlock()
		if ring == nil {
			return nil
		}
	}
	return ring.Snapshot(afterSeq, limit)
}

// Chains returns the registered chain names, sorted.
func (r *FlightRecorder) Chains() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.chains))
	for n := range r.chains {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

package netstack

import "sync"

// FIB is the kernel Forwarding Information Base: destination address →
// egress interface index, consulted by the kernel's route lookup.
type FIB struct {
	mu     sync.RWMutex
	routes map[uint32]int
}

// NewFIB returns an empty table.
func NewFIB() *FIB {
	return &FIB{routes: make(map[uint32]int)}
}

// AddRoute installs dst → ifindex.
func (f *FIB) AddRoute(dst uint32, ifindex int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routes[dst] = ifindex
}

// Lookup resolves dst to an egress ifindex.
func (f *FIB) Lookup(dst uint32) (int, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ifi, ok := f.routes[dst]
	return ifi, ok
}

package shm

import (
	"errors"
	"fmt"
	"sync"
)

// Manager is the per-node shared-memory manager. It plays the role of the
// DPDK *primary process* of §3.4: it alone may initialize pools
// (rte_mempool_create), each under a unique shared-data file prefix, while
// gateways and functions attach as *secondary processes*
// (rte_memzone_lookup) by presenting the correct prefix.
type Manager struct {
	mu    sync.Mutex
	pools map[string]*Pool
}

// ErrUnknownPrefix is returned when attaching with a prefix that no primary
// has created — the isolation failure mode of the paper's trust model.
var ErrUnknownPrefix = errors.New("shm: unknown shared-data file prefix")

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{pools: make(map[string]*Pool)}
}

// CreatePool initializes a private pool for one function chain. Creating a
// second pool under the same prefix is an error: prefixes are the isolation
// boundary and must be unique.
func (m *Manager) CreatePool(prefix string, n, bufSize int) (*Pool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pools[prefix]; ok {
		return nil, fmt.Errorf("shm: prefix %q already in use", prefix)
	}
	p, err := NewPool(prefix, n, bufSize)
	if err != nil {
		return nil, err
	}
	m.pools[prefix] = p
	return p, nil
}

// Release tears down the pool for prefix (chain deletion).
func (m *Manager) Release(prefix string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pools[prefix]
	if !ok {
		return ErrUnknownPrefix
	}
	p.Close()
	delete(m.pools, prefix)
	return nil
}

package shm

// Unmapped reports whether the pool has returned its slab's mapping, for the
// tests of package shm_test.
func (p *Pool) Unmapped() bool { return p.unmapped.Load() }

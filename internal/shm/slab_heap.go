//go:build !unix || race

package shm

// mapSlab allocates the slab on the Go heap where it cannot be mapped: on
// platforms without syscall.Mmap, and under the race detector, which ignores
// memory outside the Go heap and so would miss every race on payload bytes.
func mapSlab(size int) ([]byte, error) { return make([]byte, size), nil }

// unmapSlab leaves a heap slab to the collector.
func unmapSlab([]byte) {}

//go:build unix && !race

package shm

import "syscall"

// mapSlab maps a pool's slab as shared anonymous memory, outside the Go heap:
// the kernel supplies zeroed pages on first touch, so a pool commits the
// buffers it uses rather than its whole capacity, and the collector neither
// zeroes nor scans it.
func mapSlab(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_SHARED|syscall.MAP_ANON)
}

// unmapSlab returns the slab's mapping. The pool calls it once, when nothing
// can reach the slab any more.
func unmapSlab(slab []byte) {
	_ = syscall.Munmap(slab) // fails only for a range mapSlab did not return
}

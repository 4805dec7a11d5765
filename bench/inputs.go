package main

import (
	"hash/crc32"
	"math/bits"
	"math/rand"
	"syscall"
	"unsafe"

	"github.com/spright-go/spright/internal/boutique"
)

// request is one pre-generated operation: the bytes the dataplane is given
// and what the reply must look like. Everything random about it is drawn
// from the seed before any clock starts.
type request struct {
	payload []byte
	want    []byte // exact expected reply (echo workloads)
	chain   int    // boutique chain index
	sum     uint64 // expected CRC (xnode-chain) or digest (large-fanout)
}

// arena hands out byte slices from anonymous mappings outside the Go heap,
// so the benchmark's own inputs and latency samples never show up in
// heap_live_mb or in the collector's work. Mappings live until exit.
type arena struct{ free []byte }

const arenaChunk = 16 << 20

func (a *arena) alloc(n int) []byte {
	if n > len(a.free) {
		size := arenaChunk
		if n > size {
			size = (n + 4095) &^ 4095
		}
		m, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("bench: mmap: " + err.Error())
		}
		a.free = m
	}
	b := a.free[:n:n]
	a.free = a.free[n:]
	return b
}

// allocU32 returns an off-heap []uint32 of length n.
func (a *arena) allocU32(n int) []uint32 {
	b := a.alloc(n*4 + 4)
	p := unsafe.Pointer(unsafe.SliceData(b))
	if off := uintptr(p) & 3; off != 0 {
		p = unsafe.Add(p, 4-off)
	}
	return unsafe.Slice((*uint32)(p), n)
}

// fillText fills b with seeded printable ASCII, so the echo chain's
// upper-casing changes most bytes.
func fillText(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(0x20 + rng.Intn(0x5f))
	}
}

// echoReply is what the upper→exclaim chain must answer for body.
func echoReply(a *arena, body []byte) []byte {
	out := a.alloc(len(body) + 1)
	for i, c := range body {
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		out[i] = c
	}
	out[len(body)] = '!'
	return out
}

// genEcho makes n echo requests with body sizes uniform in [lo, hi].
func genEcho(rng *rand.Rand, a *arena, n, lo, hi int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		body := a.alloc(lo + rng.Intn(hi-lo+1))
		fillText(rng, body)
		reqs[i] = request{payload: body, want: echoReply(a, body)}
	}
	return reqs
}

const boutiqueBody = 128

// genBoutique draws each request's chain with the Locust weights.
func genBoutique(rng *rand.Rand, a *arena, n int) []request {
	weights := boutique.Weights()
	var total float64
	for _, w := range weights {
		total += w
	}
	reqs := make([]request, n)
	body := make([]byte, boutiqueBody)
	for i := range reqs {
		x := rng.Float64() * total
		ci := 0
		for ci < len(weights)-1 && x >= weights[ci] {
			x -= weights[ci]
			ci++
		}
		fillText(rng, body)
		enc := boutique.EncodeRequest(ci, body)
		p := a.alloc(len(enc))
		copy(p, enc)
		reqs[i] = request{payload: p, chain: ci}
	}
	return reqs
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcTail is the checksum xnode-chain's f1 writes over the payload's last
// four bytes: the CRC of everything before them.
func crcTail(p []byte) uint32 { return crc32.Checksum(p[:len(p)-4], castagnoli) }

const xnodeBody = 16 << 10

func genXnode(rng *rand.Rand, a *arena, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		p := a.alloc(xnodeBody)
		rng.Read(p)
		reqs[i] = request{payload: p, sum: uint64(crcTail(p))}
	}
	return reqs
}

// folder digests every foldStride-th byte of an object as its slabs are
// walked in order, starting at a per-reader offset. It is independent of
// the slab size, so the expected value can be computed from the flat body.
// Sampling keeps the readers cheap: large-fanout exists to time the object
// write and the fan-out, not a checksum loop.
type folder struct {
	h    uint64
	next int // global offset of the next sampled byte
	off  int // global offset of the next slab
}

const (
	foldStride = 512
	fanReaders = 3
)

func newFolder(reader int) folder {
	return folder{h: 0xcbf29ce484222325 ^ uint64(reader), next: reader * 173 % foldStride}
}

func (f *folder) add(slab []byte) {
	end := f.off + len(slab)
	for f.next < end {
		f.h = (f.h ^ uint64(slab[f.next-f.off])) * 0x100000001b3
		f.next += foldStride
	}
	f.off = end
}

// combine folds the three readers' digests into the 8-byte reply.
func combine(d [fanReaders]uint64) uint64 {
	return d[0] ^ bits.RotateLeft64(d[1], 21) ^ bits.RotateLeft64(d[2], 42)
}

const fanoutBody = 1 << 20

func genFanout(rng *rand.Rand, a *arena, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		p := a.alloc(fanoutBody)
		rng.Read(p)
		var d [fanReaders]uint64
		for k := range d {
			f := newFolder(k)
			f.add(p)
			d[k] = f.h
		}
		reqs[i] = request{payload: p, sum: combine(d)}
	}
	return reqs
}

// Package shm implements SPRIGHT's private shared-memory pools and the
// 16-byte packet descriptors used for zero-copy message delivery within a
// function chain (§3.2.1).
//
// A pool is a contiguous slab, a shared anonymous mapping standing in for a
// HugePages-backed DPDK mempool, cut into fixed-size buffers with reference
// counts. Descriptors
// carry {next-function instance ID, buffer handle} so that the payload is
// written once by the gateway and then only *referenced* as it moves down
// the chain. A Manager owns pool creation (the DPDK "primary process") and
// gates attachment by shared-data file prefix (the paper's per-chain
// isolation mechanism, §3.4).
package shm

import (
	"encoding/binary"
	"fmt"
)

// DescriptorSize is the wire size of a packet descriptor. The paper fixes
// this at 16 bytes to minimize per-message overhead.
const DescriptorSize = 16

// Descriptor is SPRIGHT's packet descriptor. It is the only thing that
// travels between functions; the payload stays in shared memory.
//
// NextFn is the instance ID of the destination function (used by SPROXY to
// look up the target socket in the sockmap). Buf and Len locate the payload
// in the chain's pool. Caller carries the caller-ID used to route responses
// in the asynchronous request/response decomposition of §3.8.
type Descriptor struct {
	NextFn uint32
	Buf    uint32
	Len    uint32
	Caller uint32
}

// Marshal encodes the descriptor into its 16-byte wire form (little endian,
// matching the x86 layout the paper's eBPF programs parse).
func (d Descriptor) Marshal() [DescriptorSize]byte {
	var b [DescriptorSize]byte
	binary.LittleEndian.PutUint32(b[0:4], d.NextFn)
	binary.LittleEndian.PutUint32(b[4:8], d.Buf)
	binary.LittleEndian.PutUint32(b[8:12], d.Len)
	binary.LittleEndian.PutUint32(b[12:16], d.Caller)
	return b
}

// UnmarshalDescriptor decodes a 16-byte wire descriptor.
func UnmarshalDescriptor(b []byte) (Descriptor, error) {
	if len(b) < DescriptorSize {
		return Descriptor{}, fmt.Errorf("shm: short descriptor: %d bytes", len(b))
	}
	return Descriptor{
		NextFn: binary.LittleEndian.Uint32(b[0:4]),
		Buf:    binary.LittleEndian.Uint32(b[4:8]),
		Len:    binary.LittleEndian.Uint32(b[8:12]),
		Caller: binary.LittleEndian.Uint32(b[12:16]),
	}, nil
}

func (d Descriptor) String() string {
	return fmt.Sprintf("desc{fn=%d buf=%d len=%d caller=%d}", d.NextFn, d.Buf, d.Len, d.Caller)
}

// Package netstack simulates the kernel networking substrate of one worker
// node: veth pairs, loopback and the kernel FIB. It provides the structural
// per-hop overhead accounting (data copies, context switches, interrupts,
// protocol tasks) from which the paper's Tables 1 and 2 are reproduced:
// each traversal primitive adds its cost.Hop profile to the request's Audit.
package netstack

import (
	"fmt"

	"github.com/spright-go/spright/internal/cost"
)

// Packet is one L3+ message traversing the node, carrying its request's
// audit so overheads accumulate per request across hops.
type Packet struct {
	Src, Dst uint32 // addresses (host byte order)
	Payload  []byte
	Audit    *cost.Audit
}

// NewPacket builds a packet with a fresh audit.
func NewPacket(src, dst uint32, payload []byte) *Packet {
	return &Packet{Src: src, Dst: dst, Payload: payload, Audit: &cost.Audit{}}
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%#x->%#x %dB}", p.Src, p.Dst, len(p.Payload))
}

// note applies one hop profile to the packet's audit, accounting bytes for
// the copies the hop performs.
func (p *Packet) note(h cost.Hop) {
	prof := h.Profile()
	prof.BytesCopied = prof.Copies * len(p.Payload)
	if p.Audit != nil {
		p.Audit.Add(prof)
	}
}

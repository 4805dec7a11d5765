// Package cost defines the per-request overhead accounting used throughout
// the repository: the audit counters of the paper's Tables 1 and 2 (data
// copies, context switches, interrupts, protocol-processing tasks,
// serializations and deserializations), the per-hop profiles those audits
// are composed from, and the cycle model that converts op counts into CPU
// time for the discrete-event simulation.
//
// The package is the single source of truth: the netstack increments Audit
// counters structurally as a request traverses simulated kernel primitives,
// and the platform models derive stage latencies and CPU consumption from
// the very same profiles via Model.
package cost

import "fmt"

// Audit counts the per-request overheads the paper audits in §2 and §3.8.
// The zero value is an empty audit ready for use.
type Audit struct {
	Copies      int // data copies between user and kernel space (or proxies)
	CtxSwitches int // context switches
	Interrupts  int // hardware + software interrupts
	ProtoTasks  int // kernel protocol-stack processing tasks
	Serialize   int // L7 serialization operations
	Deserialize int // L7 deserialization operations
	BytesCopied int // total bytes moved by the counted copies
}

// Add accumulates o into a.
func (a *Audit) Add(o Audit) {
	a.Copies += o.Copies
	a.CtxSwitches += o.CtxSwitches
	a.Interrupts += o.Interrupts
	a.ProtoTasks += o.ProtoTasks
	a.Serialize += o.Serialize
	a.Deserialize += o.Deserialize
	a.BytesCopied += o.BytesCopied
}

func (a Audit) String() string {
	return fmt.Sprintf("copies=%d ctx=%d intr=%d proto=%d ser=%d deser=%d",
		a.Copies, a.CtxSwitches, a.Interrupts, a.ProtoTasks, a.Serialize, a.Deserialize)
}

// Hop is a structural primitive of the simulated node network. Every
// traversal a request makes is one of these primitives; pipeline audits are
// sums of hop profiles (see DESIGN.md §5 for the calibration).
type Hop int

const (
	// HopExternalIn is NIC → pod delivery of an external request: the
	// receive half of a traversal plus NIC interrupt costs.
	HopExternalIn Hop = iota
	// HopExternalOut is pod → NIC transmission of the response.
	HopExternalOut
	// HopCrossPod is a pod → pod traversal over a veth pair with full
	// kernel protocol-stack processing on both ends.
	HopCrossPod
	// HopIntraPod is a sidecar ↔ user-container traversal over loopback
	// within one pod.
	HopIntraPod
	// HopSockmapRedirect is SPROXY's SK_MSG descriptor delivery between
	// sockets: zero-copy, bypasses the protocol stack.
	HopSockmapRedirect
	// HopRingDelivery is D-SPRIGHT's polled RTE-ring descriptor delivery:
	// zero kernel involvement (the poller burns a core instead).
	HopRingDelivery
	// HopXDPRedirect is the eBPF XDP/TC raw-frame redirect used for
	// traffic outside the chain (§3.5): skips iptables and the stack.
	HopXDPRedirect
)

var hopNames = map[Hop]string{
	HopExternalIn:      "external-in",
	HopExternalOut:     "external-out",
	HopCrossPod:        "cross-pod",
	HopIntraPod:        "intra-pod",
	HopSockmapRedirect: "sockmap-redirect",
	HopRingDelivery:    "ring-delivery",
	HopXDPRedirect:     "xdp-redirect",
}

func (h Hop) String() string {
	if s, ok := hopNames[h]; ok {
		return s
	}
	return fmt.Sprintf("hop(%d)", int(h))
}

// Profile returns the op-count profile of one hop, excluding byte-dependent
// fields (BytesCopied is filled by the caller from the actual payload size)
// and excluding endpoint serde (serialization belongs to the component that
// produces the message; see HopSerde).
func (h Hop) Profile() Audit {
	switch h {
	case HopExternalIn:
		// NIC hard IRQ + RX softirq + receiver wake; one kernel→user
		// copy; one protocol-processing task in the receiving stack.
		return Audit{Copies: 1, CtxSwitches: 1, Interrupts: 3, ProtoTasks: 1}
	case HopExternalOut:
		// user→kernel copy, send syscall context switch, TX completion
		// interrupt, sender-stack protocol task.
		return Audit{Copies: 1, CtxSwitches: 1, Interrupts: 1, ProtoTasks: 1}
	case HopCrossPod:
		// send copy + recv copy; send syscall + receiver wake; TX
		// completion + two veth softirqs + wake IPI; both stacks
		// process the packet.
		return Audit{Copies: 2, CtxSwitches: 2, Interrupts: 4, ProtoTasks: 2}
	case HopIntraPod:
		// loopback: no veth softirqs; a single (shared) stack task.
		return Audit{Copies: 2, CtxSwitches: 2, Interrupts: 2, ProtoTasks: 1}
	case HopSockmapRedirect:
		// send syscall + receiver wake; softirq event + wake; the
		// 16-byte descriptor is redirected in-kernel without copies
		// or protocol processing.
		return Audit{CtxSwitches: 2, Interrupts: 2}
	case HopRingDelivery:
		// CAS enqueue observed by a busy-polling consumer.
		return Audit{}
	case HopXDPRedirect:
		// driver-level frame redirect: one softirq, no copies, no
		// stack traversal, no iptables.
		return Audit{Interrupts: 1}
	default:
		return Audit{}
	}
}

// Model converts op counts into CPU cycles. All durations are expressed in
// cycles of a 2.2 GHz core (the paper's c220g5 testbed CPU) so that CPU
// usage and latency share one currency.
type Model struct {
	HzPerCore float64 // core frequency (cycles per second)

	CtxSwitchCycles   float64 // one context switch
	InterruptCycles   float64 // one hard or soft interrupt
	ProtoBaseCycles   float64 // fixed part of one protocol-processing task
	ProtoPerByte      float64 // checksum etc. per payload byte
	CopyPerByte       float64 // memcpy cost per byte
	CopyBaseCycles    float64 // fixed per-copy cost (syscall path)
	SerdePerByte      float64 // serialization or deserialization per byte
	SerdeBaseCycles   float64 // fixed per-serde cost
	DescriptorCycles  float64 // SPROXY/ring descriptor handling (16 B msg)
	EBPFOverheadRatio float64 // extra cycles ratio for running eBPF programs
}

// DefaultModel is calibrated once (DESIGN.md §5) so the absolute scale of
// fig5 approximates the paper; every comparative result then follows from
// the structural op counts.
func DefaultModel() Model {
	return Model{
		HzPerCore:         2.2e9,
		CtxSwitchCycles:   4400, // ~2 µs
		InterruptCycles:   2200, // ~1 µs
		ProtoBaseCycles:   4400, // ~2 µs per stack traversal task
		ProtoPerByte:      1.0,  // software checksum & friends
		CopyPerByte:       0.5,  // ~4.4 GB/s effective copy bandwidth
		CopyBaseCycles:    1100, // ~0.5 µs syscall/copy setup
		SerdePerByte:      3.0,  // HTTP/JSON-ish marshal cost
		SerdeBaseCycles:   2200, // ~1 µs
		DescriptorCycles:  660,  // ~0.3 µs descriptor parse+map lookup
		EBPFOverheadRatio: 0.05,
	}
}

// Cycles returns the total CPU cycles implied by an audit for a payload of
// the audited size. BytesCopied must already be populated; serde bytes are
// approximated by the same payload volume.
func (m Model) Cycles(a Audit) float64 {
	c := float64(a.CtxSwitches)*m.CtxSwitchCycles +
		float64(a.Interrupts)*m.InterruptCycles +
		float64(a.ProtoTasks)*m.ProtoBaseCycles +
		float64(a.Copies)*m.CopyBaseCycles +
		float64(a.BytesCopied)*m.CopyPerByte
	if a.ProtoTasks > 0 && a.Copies > 0 {
		// per-byte protocol work scales with bytes that actually
		// traversed a stack; approximate by copied bytes.
		c += float64(a.BytesCopied) * m.ProtoPerByte
	}
	serdeOps := a.Serialize + a.Deserialize
	if serdeOps > 0 {
		perOpBytes := 0
		if a.Copies > 0 {
			perOpBytes = a.BytesCopied / a.Copies
		}
		c += float64(serdeOps)*m.SerdeBaseCycles + float64(serdeOps*perOpBytes)*m.SerdePerByte
	}
	return c
}

// Seconds converts cycles to seconds under the model's core frequency.
func (m Model) Seconds(cycles float64) float64 { return cycles / m.HzPerCore }

// HopCycles is a convenience: cycles for one hop moving size payload bytes.
func (m Model) HopCycles(h Hop, size int) float64 {
	a := h.Profile()
	a.BytesCopied = a.Copies * size
	c := m.Cycles(a)
	if h == HopSockmapRedirect || h == HopXDPRedirect {
		c += m.DescriptorCycles
		c *= 1 + m.EBPFOverheadRatio
	}
	if h == HopRingDelivery {
		c += m.DescriptorCycles
	}
	return c
}

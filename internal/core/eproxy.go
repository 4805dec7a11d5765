package core

import (
	"sync"
	"time"

	"github.com/spright-go/spright/internal/ebpf"
)

// EProxy is the gateway-side event-driven proxy (§3.3): eBPF monitor
// programs that collect L3 metrics (packet and byte counts) into the
// chain's metrics map — a per-CPU array — plus the gateway's built-in metrics agent that
// periodically exposes them to the metrics server. It is triggered only by
// arriving requests, so idle CPU cost is zero — the property that lets
// SPRIGHT keep functions warm for free (§4.2.2).
type EProxy struct {
	kernel *ebpf.Kernel
	prog   *ebpf.LoadedProgram
	l3map  *ebpf.Map

	mu       sync.Mutex
	lastPkts uint64
	lastTime time.Time
}

// l3 metric slots in the metrics map.
const (
	l3SlotPackets = 0
	l3SlotBytes   = 1
)

// NewEProxy creates the L3 metrics map and loads the monitor program.
func NewEProxy(kernel *ebpf.Kernel, chain string) (*EProxy, error) {
	l3, err := kernel.CreateMap(ebpf.MapSpec{
		Name: chain + "_l3_metrics", Type: ebpf.MapTypePerCPUArray,
		KeySize: 4, ValueSize: 8, MaxEntries: 4,
	})
	if err != nil {
		return nil, err
	}
	prog, err := buildEProxyProgram(chain, l3.FD())
	if err != nil {
		return nil, err
	}
	lp, err := kernel.Load(prog)
	if err != nil {
		return nil, err
	}
	return &EProxy{kernel: kernel, prog: lp, l3map: l3, lastTime: time.Now()}, nil
}

// Close releases the gateway's eBPF state: the monitor program is counted
// out of the kernel's gauges and its map leaves the registry. The counters
// stay readable through the EProxy. Gateway.Close calls it once, after the
// metrics agent has stopped.
func (e *EProxy) Close() {
	e.kernel.Unload(e.prog)
	e.kernel.RemoveMaps(e.l3map)
}

// buildEProxyProgram assembles the XDP-type monitor: packets++ and
// bytes += (data_end - data).
func buildEProxyProgram(chain string, l3FD int) (*ebpf.Program, error) {
	b := ebpf.NewBuilder("eproxy_"+chain, ebpf.ProgTypeXDP)
	// r8 = data_end - data (frame length)
	b.Ins(
		ebpf.LoadMem(ebpf.R6, ebpf.R1, 0, ebpf.DW),
		ebpf.LoadMem(ebpf.R7, ebpf.R1, 8, ebpf.DW),
		ebpf.Mov64Reg(ebpf.R8, ebpf.R7),
		ebpf.Insn{Op: ebpf.OpSubReg, Dst: ebpf.R8, Src: ebpf.R6},
	)
	// packets++
	b.Ins(ebpf.StoreImm(ebpf.R10, -4, l3SlotPackets, ebpf.W))
	b.Ins(
		ebpf.LoadMapFD(ebpf.R1, l3FD),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.Jmp(ebpf.JeqImm(ebpf.R0, 0, 0), "bytes")
	b.Ins(
		ebpf.Mov64Imm(ebpf.R2, 1),
		ebpf.AtomicAdd(ebpf.R0, 0, ebpf.R2, ebpf.DW),
	)
	b.Label("bytes")
	b.Ins(ebpf.StoreImm(ebpf.R10, -4, l3SlotBytes, ebpf.W))
	b.Ins(
		ebpf.LoadMapFD(ebpf.R1, l3FD),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.Jmp(ebpf.JeqImm(ebpf.R0, 0, 0), "out")
	b.Ins(ebpf.AtomicAdd(ebpf.R0, 0, ebpf.R8, ebpf.DW))
	b.Label("out")
	b.Ins(ebpf.Mov64Imm(ebpf.R0, ebpf.XDPPass), ebpf.Exit())
	return b.Program()
}

// OnIngress fires the monitor program for an admitted request of the given
// payload size, on the stripe of callers that have none.
func (e *EProxy) OnIngress(size int) { e.onIngress(size, 0) }

// onIngress is OnIngress on the admitting request's stripe. The monitor only
// reads frame bounds from the ctx, so the program runs over frame metadata
// (RunMeta) — no synthetic frame is allocated per request.
func (e *EProxy) onIngress(size int, stripe uint32) {
	_, _ = e.kernel.RunMeta(e.prog, size, 0, stripe)
}

// L3Stats reads the packet/byte counters maintained in the eBPF map.
func (e *EProxy) L3Stats() (packets, bytes uint64) {
	if v, err := e.l3map.Lookup(ebpf.U32Key(l3SlotPackets)); err == nil {
		packets = ebpf.U64FromValue(v)
	}
	if v, err := e.l3map.Lookup(ebpf.U32Key(l3SlotBytes)); err == nil {
		bytes = ebpf.U64FromValue(v)
	}
	return packets, bytes
}

// ScrapeRate is the metrics agent: it returns the packet rate since the
// previous scrape (what the gateway's built-in agent periodically reports
// to the metrics server for autoscaling, §3.3).
//
// The counter can regress between scrapes — the map is recreated when a
// chain's EPROXY is reloaded, and tests (or an operator) may reset it.
// The delta is computed in unsigned arithmetic, so a regression must be
// clamped to zero rather than reported: uint64(small - large) wraps to
// ~1.8e19, an absurd rate that would instantly trip any autoscaler fed
// from this signal.
func (e *EProxy) ScrapeRate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	pkts, _ := e.L3Stats()
	now := time.Now()
	dt := now.Sub(e.lastTime).Seconds()
	var rate float64
	if dt > 0 && pkts >= e.lastPkts {
		rate = float64(pkts-e.lastPkts) / dt
	}
	e.lastPkts = pkts
	e.lastTime = now
	return rate
}

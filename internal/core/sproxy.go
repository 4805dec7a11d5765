package core

import (
	"errors"
	"fmt"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/shm"
)

// MaxInstances bounds per-chain function instance IDs (sockmap and metrics
// map geometry).
const MaxInstances = 256

// SProxy is the event-driven socket proxy of §3.2.1/§3.4: an SK_MSG eBPF
// program attached to every function socket of one chain, and ModeEvent's
// Transport. On each send it
//
//  1. parses the 16-byte packet descriptor,
//  2. enforces the chain's inter-function filter (security domain),
//  3. bumps the destination's L7 request counter in the metrics map — a
//     per-CPU array, the sender's stripe's copy — and
//  4. redirects the descriptor to the destination socket via the sockmap —
//     all inside the VM, without touching the kernel protocol stack.
type SProxy struct {
	kernel  *ebpf.Kernel
	prog    *ebpf.LoadedProgram
	sockmap *ebpf.Map
	filter  *ebpf.Map
	metrics *ebpf.Map
}

// Send errors.
var (
	ErrFiltered = errors.New("core: descriptor rejected by SPROXY filter")
	ErrNoSuchFn = errors.New("core: destination not in sockmap")
)

// NewSProxy creates the chain's maps and loads the SPROXY program into the
// given kernel.
func NewSProxy(kernel *ebpf.Kernel, chain string) (*SProxy, error) {
	sockmap, err := kernel.CreateMap(ebpf.MapSpec{
		Name: chain + "_sock_map", Type: ebpf.MapTypeSockMap,
		KeySize: 4, ValueSize: 4, MaxEntries: MaxInstances,
	})
	if err != nil {
		return nil, err
	}
	filter, err := kernel.CreateMap(ebpf.MapSpec{
		Name: chain + "_filter_map", Type: ebpf.MapTypeHash,
		KeySize: 8, ValueSize: 1, MaxEntries: MaxInstances * MaxInstances,
	})
	if err != nil {
		return nil, err
	}
	metrics, err := kernel.CreateMap(ebpf.MapSpec{
		Name: chain + "_metrics_map", Type: ebpf.MapTypePerCPUArray,
		KeySize: 4, ValueSize: 8, MaxEntries: MaxInstances,
	})
	if err != nil {
		return nil, err
	}

	prog, err := buildSProxyProgram(chain, sockmap.FD(), filter.FD(), metrics.FD())
	if err != nil {
		return nil, err
	}
	lp, err := kernel.Load(prog)
	if err != nil {
		return nil, err
	}
	return &SProxy{kernel: kernel, prog: lp, sockmap: sockmap, filter: filter, metrics: metrics}, nil
}

// buildSProxyProgram assembles the SK_MSG program. Register plan:
// R6 = saved ctx, R7 = data, R8 = destination instance ID, R9 = source ID.
func buildSProxyProgram(chain string, sockmapFD, filterFD, metricsFD int) (*ebpf.Program, error) {
	b := ebpf.NewBuilder("sproxy_"+chain, ebpf.ProgTypeSKMsg)
	b.Ins(
		ebpf.Mov64Reg(ebpf.R6, ebpf.R1),            // save ctx
		ebpf.LoadMem(ebpf.R7, ebpf.R6, 0, ebpf.DW), // data
		ebpf.LoadMem(ebpf.R2, ebpf.R6, 8, ebpf.DW), // data_end
		ebpf.Mov64Reg(ebpf.R3, ebpf.R7),
		ebpf.Add64Imm(ebpf.R3, shm.DescriptorSize),
	)
	b.Jmp(ebpf.JgtReg(ebpf.R3, ebpf.R2, 0), "drop") // short descriptor
	b.Ins(
		ebpf.LoadMem(ebpf.R8, ebpf.R7, 0, ebpf.W),  // dst = desc.NextFn
		ebpf.LoadMem(ebpf.R9, ebpf.R6, 16, ebpf.W), // src = ctx local id
		// filter key = src<<32 | dst
		ebpf.Mov64Reg(ebpf.R2, ebpf.R9),
		ebpf.Lsh64Imm(ebpf.R2, 32),
		ebpf.Or64Reg(ebpf.R2, ebpf.R8),
		ebpf.StoreMem(ebpf.R10, -8, ebpf.R2, ebpf.DW),
		ebpf.LoadMapFD(ebpf.R1, filterFD),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -8),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.Jmp(ebpf.JeqImm(ebpf.R0, 0, 0), "drop") // not authorized
	// L7 metric: metrics[dst]++
	b.Ins(
		ebpf.StoreMem(ebpf.R10, -12, ebpf.R8, ebpf.W),
		ebpf.LoadMapFD(ebpf.R1, metricsFD),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -12),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	b.Jmp(ebpf.JeqImm(ebpf.R0, 0, 0), "redirect")
	b.Ins(
		ebpf.Mov64Imm(ebpf.R2, 1),
		ebpf.AtomicAdd(ebpf.R0, 0, ebpf.R2, ebpf.DW),
	)
	b.Label("redirect")
	b.Ins(
		ebpf.Mov64Reg(ebpf.R1, ebpf.R6),
		ebpf.LoadMapFD(ebpf.R2, sockmapFD),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R8),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMsgRedirectMap),
		ebpf.Exit(),
	)
	b.Label("drop")
	b.Ins(ebpf.Mov64Imm(ebpf.R0, ebpf.SKDrop), ebpf.Exit())
	return b.Program()
}

// Close releases the chain's eBPF state: the program is counted out of the
// kernel's gauges and the three maps leave its registry. Chain.Close calls
// it once, after the instances have stopped sending.
func (sp *SProxy) Close() {
	sp.kernel.Unload(sp.prog)
	sp.kernel.RemoveMaps(sp.sockmap, sp.filter, sp.metrics)
}

// RegisterSocket installs a function instance's socket in the sockmap —
// the control-plane step the gateway performs when a new instance starts.
func (sp *SProxy) RegisterSocket(s *Socket) error {
	return sp.sockmap.UpdateSock(s.SockID(), s)
}

// UnregisterSocket removes an instance from the sockmap.
func (sp *SProxy) UnregisterSocket(id uint32) error {
	return sp.sockmap.DeleteU32(id)
}

func filterKey(src, dst uint32) [8]byte {
	var k [8]byte
	// little-endian u64 of src<<32|dst
	k[0], k[1], k[2], k[3] = byte(dst), byte(dst>>8), byte(dst>>16), byte(dst>>24)
	k[4], k[5], k[6], k[7] = byte(src), byte(src>>8), byte(src>>16), byte(src>>24)
	return k
}

// filterAllowed is the shared "authorized" filter value.
var filterAllowed = []byte{1}

// Allow authorizes descriptors from src to dst (kubelet-configured filter
// rules; §3.4 supports runtime updates).
func (sp *SProxy) Allow(src, dst uint32) error {
	k := filterKey(src, dst)
	return sp.filter.Update(k[:], filterAllowed)
}

// Revoke removes an authorization at runtime.
func (sp *SProxy) Revoke(src, dst uint32) error {
	k := filterKey(src, dst)
	err := sp.filter.Delete(k[:])
	if errors.Is(err, ebpf.ErrKeyNotFound) {
		return nil
	}
	return err
}

// Send runs the SPROXY program for a descriptor sent by instance src and,
// on a pass verdict, delivers it to the socket the program selected.
//
// The descriptor is marshaled once into the VM's inline staging buffer
// (RunCopy) and the already-parsed value is handed to the destination
// socket directly — one parse per hop, no per-send heap allocation.
func (sp *SProxy) Send(src uint32, d shm.Descriptor) error {
	_, err := sp.sendOrClaim(src, d, sender{})
	return err
}

// sendOrClaim is S-SPRIGHT's Transport.sendOrClaim: the program runs, on the
// sender's stripe, and selects the destination socket exactly as in Send, and
// the socket it selected takes the hop (Socket.handoff).
func (sp *SProxy) sendOrClaim(src uint32, d shm.Descriptor, by sender) (grant, error) {
	wire := d.Marshal()
	res, err := sp.kernel.RunCopy(sp.prog, wire[:], src, nil, by.stripe)
	if err != nil {
		return grant{}, fmt.Errorf("sproxy: %w", err)
	}
	if res.Ret != ebpf.SKPass {
		if _, lookErr := sp.sockmap.LookupSock(d.NextFn); lookErr != nil {
			return grant{}, fmt.Errorf("%w: instance %d", ErrNoSuchFn, d.NextFn)
		}
		return grant{}, fmt.Errorf("%w: %d -> %d", ErrFiltered, src, d.NextFn)
	}
	switch dst := res.RedirectSock.(type) {
	case *Socket:
		return dst.handoff(d, by)
	case nil:
		return grant{}, fmt.Errorf("%w: instance %d", ErrNoSuchFn, d.NextFn)
	default:
		// Foreign SockRef implementations still get the wire form, in a
		// copy of their own: wire must not escape to the heap on every hop.
		w := d.Marshal()
		return grant{}, dst.DeliverDescriptor(w[:])
	}
}

// RequestCount reads the L7 per-instance request counter maintained by the
// in-kernel program (the metric the autoscaler scrapes, §3.3).
func (sp *SProxy) RequestCount(instance uint32) uint64 {
	var v [8]byte
	if err := sp.metrics.LookupU32Into(instance, v[:]); err != nil {
		return 0
	}
	return ebpf.U64FromValue(v[:])
}

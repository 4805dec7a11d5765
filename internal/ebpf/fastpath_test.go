package ebpf

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/spright-go/spright/internal/shm"
)

// Differential testing of the shape-specialized fast paths against the
// interpreter: the interpreter is the oracle. Every comparison covers the
// full observable surface — verdict, error class and text, redirects, packet
// bytes, map contents, and the kernel's run/instruction accounting.

// dumpMap flattens a map into a deterministic key→value form.
func dumpMap(m *Map) map[string]string {
	out := make(map[string]string)
	m.Range(func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	})
	return out
}

// requireSameMap fails the test unless both maps hold the same entries.
func requireSameMap(t *testing.T, name string, fast, oracle *Map) {
	t.Helper()
	df, do := dumpMap(fast), dumpMap(oracle)
	if len(df) != len(do) {
		t.Fatalf("%s map size divergence: %d vs %d", name, len(df), len(do))
	}
	for k, v := range df {
		if do[k] != v {
			t.Fatalf("%s map divergence at key %x: fast %x oracle %x", name, k, v, do[k])
		}
	}
}

// requireSameCopies fails the test unless both array maps hold the same bytes
// copy for copy — for a per-CPU array, what a run on each stripe would see,
// which Range's sums cannot tell apart.
func requireSameCopies(t *testing.T, name string, fast, oracle *Map) {
	t.Helper()
	if !fast.isArray() {
		return
	}
	for stripe := uint32(0); stripe < Stripes; stripe++ {
		for i := 0; i < fast.spec.MaxEntries; i++ {
			if vf, vo := fast.view(stripe, i), oracle.view(stripe, i); !bytes.Equal(vf, vo) {
				t.Fatalf("%s map divergence at entry %d as stripe %d sees it: fast %x oracle %x", name, i, stripe, vf, vo)
			}
		}
	}
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// sameResult compares everything a run reports; redirect sockets live in
// separate kernels, so they compare by id.
func sameResult(a, b Result) bool {
	sa, sb := a.RedirectSock, b.RedirectSock
	if (sa == nil) != (sb == nil) || (sa != nil && sa.SockID() != sb.SockID()) {
		return false
	}
	a.RedirectSock, b.RedirectSock = nil, nil
	return a == b
}

type paritySock struct{ id uint32 }

func (s *paritySock) SockID() uint32 { return s.id }

// sproxyShape is the SK_MSG program core.buildSProxyProgram emits
// (descriptor bounds check → filter → metric → sockmap redirect), so the
// ISA-level suite can exercise the fast path without importing the dataplane.
func sproxyShape(descSize, filterFD, metricsFD, sockmapFD int) *Program {
	b := NewBuilder("sproxy_shape", ProgTypeSKMsg)
	b.Ins(
		Mov64Reg(R6, R1),
		LoadMem(R7, R6, 0, DW),
		LoadMem(R2, R6, 8, DW),
		Mov64Reg(R3, R7),
		Add64Imm(R3, int64(descSize)),
	)
	b.Jmp(JgtReg(R3, R2, 0), "drop")
	b.Ins(
		LoadMem(R8, R7, 0, W),
		LoadMem(R9, R6, 16, W),
		Mov64Reg(R2, R9),
		Lsh64Imm(R2, 32),
		Or64Reg(R2, R8),
		StoreMem(R10, -8, R2, DW),
		LoadMapFD(R1, filterFD),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
	)
	b.Jmp(JeqImm(R0, 0, 0), "drop")
	b.Ins(
		StoreMem(R10, -12, R8, W),
		LoadMapFD(R1, metricsFD),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -12),
		Call(HelperMapLookupElem),
	)
	b.Jmp(JeqImm(R0, 0, 0), "redirect")
	b.Ins(
		Mov64Imm(R2, 1),
		AtomicAdd(R0, 0, R2, DW),
	)
	b.Label("redirect")
	b.Ins(
		Mov64Reg(R1, R6),
		LoadMapFD(R2, sockmapFD),
		Mov64Reg(R3, R8),
		Mov64Imm(R4, 0),
		Call(HelperMsgRedirectMap),
		Exit(),
	)
	b.Label("drop")
	b.Ins(Mov64Imm(R0, SKDrop), Exit())
	return b.MustProgram()
}

// eproxyShape is the XDP monitor core.buildEProxyProgram emits: packets++
// and bytes += frame length in slots of one array map, then pass.
func eproxyShape(mapFD, pktSlot, byteSlot int) *Program {
	b := NewBuilder("eproxy_shape", ProgTypeXDP)
	b.Ins(
		LoadMem(R6, R1, 0, DW),
		LoadMem(R7, R1, 8, DW),
		Mov64Reg(R8, R7),
		Insn{Op: OpSubReg, Dst: R8, Src: R6},
		StoreImm(R10, -4, int64(pktSlot), W),
		LoadMapFD(R1, mapFD),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Call(HelperMapLookupElem),
	)
	b.Jmp(JeqImm(R0, 0, 0), "bytes")
	b.Ins(
		Mov64Imm(R2, 1),
		AtomicAdd(R0, 0, R2, DW),
	)
	b.Label("bytes")
	b.Ins(
		StoreImm(R10, -4, int64(byteSlot), W),
		LoadMapFD(R1, mapFD),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Call(HelperMapLookupElem),
	)
	b.Jmp(JeqImm(R0, 0, 0), "out")
	b.Ins(AtomicAdd(R0, 0, R8, DW))
	b.Label("out")
	b.Ins(Mov64Imm(R0, XDPPass), Exit())
	return b.MustProgram()
}

// sproxyMaps creates the three SPROXY maps; the metrics geometry is the
// caller's, since the fast path's guards depend on it.
func sproxyMaps(t testing.TB, k *Kernel, valueSize, maxEntries int) (sockmap, filter, metrics *Map) {
	return sproxyMapsOf(t, k, MapTypeArray, valueSize, maxEntries)
}

// sproxyMapsOf is sproxyMaps with the metrics map's type — array or per-CPU
// array — the caller's too.
func sproxyMapsOf(t testing.TB, k *Kernel, metricsType MapType, valueSize, maxEntries int) (sockmap, filter, metrics *Map) {
	t.Helper()
	var err error
	if sockmap, err = k.CreateMap(MapSpec{Name: "t_sock", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 8}); err != nil {
		t.Fatal(err)
	}
	if filter, err = k.CreateMap(MapSpec{Name: "t_filter", Type: MapTypeHash, KeySize: 8, ValueSize: 1, MaxEntries: 64}); err != nil {
		t.Fatal(err)
	}
	if metrics, err = k.CreateMap(MapSpec{Name: "t_metrics", Type: metricsType, KeySize: 4, ValueSize: valueSize, MaxEntries: maxEntries}); err != nil {
		t.Fatal(err)
	}
	return sockmap, filter, metrics
}

// buildSProxyShape loads the SPROXY shape over standard-geometry maps.
func buildSProxyShape(t testing.TB, k *Kernel) (*LoadedProgram, *Map, *Map, *Map) {
	t.Helper()
	sockmap, filter, metrics := sproxyMaps(t, k, 8, 4)
	lp, err := k.Load(sproxyShape(16, filter.FD(), metrics.FD(), sockmap.FD()))
	if err != nil {
		t.Fatal(err)
	}
	return lp, sockmap, filter, metrics
}

// sproxyFilterKey is the filter map's key for one authorized edge.
func sproxyFilterKey(src, dst uint32) []byte {
	k8 := make([]byte, 8)
	putLeU32(k8[0:4], dst)
	putLeU32(k8[4:8], src)
	return k8
}

// ---------------------------------------------------------------------------
// Fuzzed parity of the two fast runners.

// fastCase is one decoded fuzz input: which shape, its map geometry and
// contents, an optional single-instruction mutation, and the runs to make.
type fastCase struct {
	eproxy                          bool
	perCPU                          bool // the metrics (or L3) map is a per-CPU array
	valueSize, maxEntries, descSize int
	mutate                          bool
	mutPC, mutField, mutVal         byte
	keyMask, sockMask               byte
	runs                            []fastRun
}

// fastRun is one program run: the entry point, the ctx ifindex, the stripe
// (RunDescriptor and RunMeta take it; Run is on stripe 0) and the frame (for
// RunMeta only its length counts; RunDescriptor is handed the descriptor whose
// wire form is the frame's first 16 bytes, zero-padded).
type fastRun struct {
	entry   byte // 0 Run, 1 RunDescriptor, 2 RunMeta
	ifindex uint32
	stripe  uint32
	frame   []byte
}

const (
	fastCaseHeader = 6  // flags, mutPC, mutField | per-CPU<<7, mutVal, keyMask, sockMask
	fastRunBytes   = 11 // entry (3 is Run too) | stripe<<2, ifindex, length selector, first 8 frame bytes
	fastMaxRuns    = 4
)

// fastFilterEdges are the (src, dst) edges keyMask can authorize; ifindex is
// taken mod 4, so every source here is reachable.
var fastFilterEdges = [8][2]uint32{{1, 2}, {1, 5}, {0, 0}, {2, 1}, {1, 0}, {3, 3}, {0, 7}, {1, 9}}

// decodeFastCase maps fuzz bytes onto a fastCase. Geometry selectors put
// every guard on both sides: a metrics ValueSize below 8, a MaxEntries that
// excludes the slot, a descriptor shorter than the dst-id load.
func decodeFastCase(data []byte) fastCase {
	var hdr [fastCaseHeader]byte
	copy(hdr[:], data)
	flags := hdr[0]
	c := fastCase{
		eproxy:     flags&1 != 0,
		valueSize:  []int{8, 4, 16, 12}[flags>>1&3],
		maxEntries: []int{4, 1, 2, 8}[flags>>3&3],
		descSize:   []int{16, 2, 4, 24}[flags>>5&3],
		mutate:     flags&0x80 != 0,
		perCPU:     hdr[2]&0x80 != 0,
		mutPC:      hdr[1], mutField: hdr[2] & 0x7f, mutVal: hdr[3],
		keyMask: hdr[4], sockMask: hdr[5],
	}
	for at := fastCaseHeader; at+fastRunBytes <= len(data) && len(c.runs) < fastMaxRuns; at += fastRunBytes {
		r := data[at : at+fastRunBytes]
		n := []int{0, 3, c.descSize - 1, c.descSize, c.descSize + 5, 64, 65, 200}[r[2]%8]
		frame := make([]byte, n)
		for i := range frame {
			frame[i] = byte(i * 7)
		}
		copy(frame, r[3:])
		c.runs = append(c.runs, fastRun{entry: r[0] & 3 % 3, ifindex: uint32(r[1] % 4), stripe: uint32(r[0] >> 2), frame: frame})
	}
	return c
}

// fastSide is one kernel's half of a differential run.
type fastSide struct {
	k    *Kernel
	lp   *LoadedProgram
	maps []*Map // every map a program can write
	// nearMiss is set when the mutation changed something the shape's
	// pattern pins: the program must not get the fast path.
	nearMiss bool
}

// build assembles the case on a fresh kernel: maps, contents, the (possibly
// mutated) program. A nil side with a non-nil error means the verifier
// rejected the mutation.
func (c *fastCase) build(t *testing.T, fast bool) (*fastSide, error) {
	t.Helper()
	k := NewKernel()
	k.SetJIT(fast)
	s := &fastSide{k: k}
	var p *Program
	var pats []insnPat
	counters := MapTypeArray
	if c.perCPU {
		counters = MapTypePerCPUArray
	}
	if c.eproxy {
		l3, err := k.CreateMap(MapSpec{Name: "t_l3", Type: counters, KeySize: 4, ValueSize: c.valueSize, MaxEntries: c.maxEntries})
		if err != nil {
			t.Fatal(err)
		}
		// A second map, so an fd mutation can land on a real one.
		spare, err := k.CreateMap(MapSpec{Name: "t_spare", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.maps = []*Map{l3, spare}
		p, pats = eproxyShape(l3.FD(), int(c.keyMask&3), int(c.keyMask>>2&3)), eproxyPats()
	} else {
		sockmap, filter, metrics := sproxyMapsOf(t, k, counters, c.valueSize, c.maxEntries)
		for i, e := range fastFilterEdges {
			if c.keyMask&(1<<i) != 0 {
				if err := filter.Update(sproxyFilterKey(e[0], e[1]), []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := uint32(0); i < 8; i++ {
			if c.sockMask&(1<<i) != 0 {
				if err := sockmap.UpdateSock(i, &paritySock{id: i}); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.maps = []*Map{filter, metrics}
		p, pats = sproxyShape(c.descSize, filter.FD(), metrics.FD(), sockmap.FD()), sproxyPats()
	}
	if c.mutate {
		pc := int(c.mutPC) % len(p.Insns)
		in, orig := &p.Insns[pc], p.Insns[pc]
		switch c.mutField % 6 {
		case 0:
			in.Op = Op(1 + int(c.mutVal)%int(OpExit))
		case 1:
			in.Dst = Register(c.mutVal) % numRegisters
		case 2:
			in.Src = Register(c.mutVal) % numRegisters
		case 3:
			in.Off = int16(int8(c.mutVal))
		case 4:
			in.Imm = int64(int8(c.mutVal))
		case 5:
			in.Size = fuzzSizes[int(c.mutVal)%len(fuzzSizes)]
		}
		if pats[pc].wildImm {
			orig.Imm = in.Imm // a wildcard immediate may change and still match
		}
		s.nearMiss = *in != orig
	}
	lp, err := k.Load(p)
	if err != nil {
		return nil, err
	}
	s.lp = lp
	return s, nil
}

// runOutcome is what one run leaves for the caller to see.
type runOutcome struct {
	res Result
	err error
	pkt []byte
}

// run makes one run through the entry point r names, over a private copy of
// the frame.
func (s *fastSide) run(r fastRun) runOutcome {
	pkt := append([]byte(nil), r.frame...)
	var res Result
	var err error
	switch r.entry {
	case 0:
		res, err = s.k.Run(s.lp, pkt, r.ifindex, nil)
	case 1:
		res, err = runDescriptor(s.k, s.lp, descOf(pkt), r.ifindex, r.stripe)
	default:
		res.Ret, err = s.k.RunMeta(s.lp, len(pkt), r.ifindex, r.stripe)
	}
	return runOutcome{res, err, pkt}
}

// descOf is the descriptor whose wire form is frame's first 16 bytes,
// zero-padded.
func descOf(frame []byte) shm.Descriptor {
	var wire [shm.DescriptorSize]byte
	copy(wire[:], frame)
	d, _ := shm.UnmarshalDescriptor(wire[:])
	return d
}

// runDescriptor is Kernel.RunDescriptor with what it returns as a Result; the
// instruction count it does not return is compared through EngineStats.
func runDescriptor(k *Kernel, lp *LoadedProgram, d shm.Descriptor, ifindex, stripe uint32) (Result, error) {
	ret, sock, err := k.RunDescriptor(lp, d, ifindex, stripe)
	return Result{Ret: ret, RedirectSock: sock}, err
}

// FuzzFastPathParity: the two hand-written runners production executes must
// be indistinguishable from the interpreter over the same program — for any
// frame, length, source, entry point, filter and sockmap contents, and map
// geometry on either side of each guard — and a program one instruction
// away from a shape must decline the fast path rather than mis-match.
func FuzzFastPathParity(f *testing.F) {
	seed := func(hdr [fastCaseHeader]byte, runs ...[fastRunBytes]byte) {
		b := hdr[:]
		for _, r := range runs {
			b = append(b, r[:]...)
		}
		f.Add(b)
	}
	// run bytes: entry, ifindex, length selector (3 = exactly a descriptor),
	// then the frame's first bytes — the little-endian dst id leads.
	// RunDescriptor's length selector is unused: its short-frame outcome is a
	// 24-byte descriptor's.
	var (
		redirect   = [fastRunBytes]byte{1, 1, 3, 2}        // RunDescriptor 1→2
		denied     = [fastRunBytes]byte{0, 3, 3, 2}        // Run 3→2: no such edge
		noSlot     = [fastRunBytes]byte{1, 1, 3, 5}        // RunDescriptor 1→5: past a 4-entry metrics map
		noSocket   = [fastRunBytes]byte{1, 1, 3, 9}        // RunDescriptor 1→9: authorized, no socket
		short      = [fastRunBytes]byte{0, 1, 2, 2}        // Run, one byte short
		empty      = [fastRunBytes]byte{0, 1, 0}           // Run over no bytes
		long       = [fastRunBytes]byte{0, 1, 7, 2}        // Run 1→2, 200-byte frame
		metaFault  = [fastRunBytes]byte{2, 1, 3}           // RunMeta: bounds pass, bytes fault
		metaShort  = [fastRunBytes]byte{2, 1, 1}           // RunMeta, 3-byte frame
		wideDst    = [fastRunBytes]byte{0, 1, 4, 2, 1}     // Run, dst 0x102
		copyExact  = [fastRunBytes]byte{1, 1, 3, 2, 0, 1}  // RunDescriptor 1→2, a second buffer
		redirectS3 = [fastRunBytes]byte{1 | 3<<2, 1, 3, 2} // RunDescriptor 1→2 on stripe 3
		redirectS9 = [fastRunBytes]byte{1 | 9<<2, 1, 3, 2} // on stripe 9: stripe 1's copy
		deniedS6   = [fastRunBytes]byte{1 | 6<<2, 3, 3, 2} // RunDescriptor 3→2 on stripe 6
		metaS5     = [fastRunBytes]byte{2 | 5<<2, 1, 3}    // RunMeta on stripe 5
	)
	const (
		allEdges = 0xff
		socks    = 1<<2 | 1<<5
		perCPU   = 0x80 // in the mutField byte: the counters are a per-CPU array
	)
	seed([fastCaseHeader]byte{0, 0, 0, 0, allEdges, socks}, redirect, denied, noSlot, noSocket)
	seed([fastCaseHeader]byte{0, 0, 0, 0, allEdges, socks}, short, empty, metaFault, metaShort)
	seed([fastCaseHeader]byte{0, 0, 0, 0, allEdges, socks}, long, wideDst, copyExact, redirect)
	seed([fastCaseHeader]byte{1 << 1, 0, 0, 0, allEdges, socks}, redirect, noSlot)                         // 4-byte metrics: declined
	seed([fastCaseHeader]byte{3<<1 | 3<<3, 0, 0, 0, allEdges, socks}, redirect, noSlot)                    // 12-byte metrics, 8 entries
	seed([fastCaseHeader]byte{1 << 3, 0, 0, 0, allEdges, socks}, redirect)                                 // 1-entry metrics: dst 2 has no slot
	seed([fastCaseHeader]byte{1 << 5, 0, 0, 0, allEdges, socks}, redirect, short, empty)                   // 2-byte descriptor: declined
	seed([fastCaseHeader]byte{2 << 5, 0, 0, 0, allEdges, socks}, redirect, metaFault)                      // 4-byte descriptor
	seed([fastCaseHeader]byte{0x80, 16, 0, byte(OpJneImm) - 1, allEdges, socks}, redirect)                 // filter jeq → jne
	seed([fastCaseHeader]byte{0x80, 23, 4, 2, allEdges, socks}, redirect)                                  // metrics += 2
	seed([fastCaseHeader]byte{0x80, 18, 4, 4, allEdges, socks}, redirect)                                  // metrics fd → the filter's
	seed([fastCaseHeader]byte{1, 0, 0, 0, 1 << 2, 0}, redirect, empty, long, metaFault)                    // EPROXY, slots 0 and 1
	seed([fastCaseHeader]byte{1 | 1<<3, 0, 0, 0, 1 << 2, 0}, redirect, metaFault)                          // 1 entry: bytes slot declined
	seed([fastCaseHeader]byte{1 | 1<<1, 0, 0, 0, 1 << 2, 0}, redirect)                                     // 4-byte values: declined
	seed([fastCaseHeader]byte{1 | 0x80, 19, 4, 1, 1 << 2, 0}, metaFault)                                   // verdict wildcard → drop
	seed([fastCaseHeader]byte{1 | 0x80, 18, 2, byte(R7), 1 << 2, 0}, metaFault, copyExact)                 // bytes += data_end
	seed([fastCaseHeader]byte{0, 0, perCPU, 0, allEdges, socks}, redirect, redirectS3, redirectS9, noSlot) // per-CPU metrics, stripes named
	seed([fastCaseHeader]byte{0, 0, perCPU, 0, allEdges, socks}, redirectS3, long, copyExact, metaFault)   // and Run's stripe 0
	seed([fastCaseHeader]byte{1 << 1, 0, perCPU, 0, allEdges, socks}, redirectS3)                          // 4-byte per-CPU metrics: declined
	seed([fastCaseHeader]byte{0x80, 23, perCPU | 4, 2, allEdges, socks}, redirectS3, redirect)             // per-CPU metrics += 2
	seed([fastCaseHeader]byte{1, 0, perCPU, 0, 1 << 2, 0}, metaS5, metaFault, redirectS3, long)            // EPROXY over a per-CPU L3 map
	seed([fastCaseHeader]byte{1, 0, perCPU, 0, 1 << 2, 0}, metaS5, copyExact, empty)
	seed([fastCaseHeader]byte{3 << 5, 0, 0, 0, allEdges, socks}, redirect, noSlot, long)                   // 24-byte descriptor: the wire form is short
	seed([fastCaseHeader]byte{0, 0, perCPU, 0, allEdges, socks}, redirect, deniedS6, noSlot, redirectS3)   // per-CPU metrics
	seed([fastCaseHeader]byte{0x80, 16, 0, byte(OpJneImm) - 1, allEdges, socks}, redirect, deniedS6, long) // near-miss: the interpreter

	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFastCase(data)
		fast, errF := c.build(t, true)
		oracle, errO := c.build(t, false)
		if (errF == nil) != (errO == nil) {
			t.Fatalf("load divergence: fast=%v oracle=%v", errF, errO)
		}
		if errF != nil {
			return // rejected identically; nothing to run
		}
		if fast.nearMiss && fallbackOf(fast.lp) == "" {
			t.Fatalf("near-miss of the shape (insn %d, field %d) took the fast path", int(c.mutPC)%len(fast.lp.prog.Insns), c.mutField%6)
		}

		for i, r := range c.runs {
			of, oo := fast.run(r), oracle.run(r)
			if !sameError(of.err, oo.err) {
				t.Fatalf("run %d: error divergence: fast=%v oracle=%v", i, of.err, oo.err)
			}
			if !sameResult(of.res, oo.res) {
				t.Fatalf("run %d: result divergence:\n fast   %+v\n oracle %+v", i, of.res, oo.res)
			}
			if !bytes.Equal(of.pkt, oo.pkt) {
				t.Fatalf("run %d: packet divergence:\n fast   %x\n oracle %x", i, of.pkt, oo.pkt)
			}
		}
		for i := range fast.maps {
			requireSameMap(t, fast.maps[i].Spec().Name, fast.maps[i], oracle.maps[i])
			requireSameCopies(t, fast.maps[i].Spec().Name, fast.maps[i], oracle.maps[i])
		}
		// The oracle kernel loads the same program, fast path and all; the
		// switch keeps every run off it. The fast kernel runs on the fast path
		// exactly when the program has one, and both run the same instructions.
		total := uint64(len(c.runs))
		esF, esO := fast.k.EngineStats(), oracle.k.EngineStats()
		wantO := EngineStats{InterpRuns: total, Insns: esO.Insns, Loaded: 1}
		wantF := wantO
		if fallbackOf(fast.lp) == "" {
			wantO.Compiled = 1
			wantF = EngineStats{JITRuns: total, Insns: esO.Insns, Loaded: 1, Compiled: 1}
		}
		if esF != wantF || esO != wantO {
			t.Fatalf("engine stats over %d runs: fast kernel %+v, want %+v; oracle kernel %+v, want %+v", total, esF, wantF, esO, wantO)
		}
	})
}

// ---------------------------------------------------------------------------
// Deterministic suites.

// TestJITSProxyShapeParity drives the recognized SPROXY shape through every
// outcome — short frame, unauthorized, missing metrics slot, full redirect,
// missing socket, metadata-only fault — through Run, RunMeta and
// RunDescriptor on both engines and compares the complete observable state.
func TestJITSProxyShapeParity(t *testing.T) {
	type env struct {
		k       *Kernel
		lp      *LoadedProgram
		metrics *Map
	}
	mk := func(jit bool) env {
		k := NewKernel()
		k.SetJIT(jit)
		lp, sockmap, filter, metrics := buildSProxyShape(t, k)
		if why := fallbackOf(lp); why != "" {
			t.Fatalf("SPROXY shape not recognized: %s", why)
		}
		// src 1 → dst 2 authorized; dst 2 has a socket; dst 5 is
		// authorized from src 1 but has no metrics slot and no socket.
		if err := filter.Update(sproxyFilterKey(1, 2), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := filter.Update(sproxyFilterKey(1, 5), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := sockmap.UpdateSock(2, &paritySock{id: 2}); err != nil {
			t.Fatal(err)
		}
		return env{k: k, lp: lp, metrics: metrics}
	}

	desc := func(dst uint32) []byte {
		d := make([]byte, 16)
		putLeU32(d[0:4], dst)
		return d
	}
	runs := []struct {
		name string
		pkt  []byte
		meta int  // when >0, RunMeta with this frame length instead
		desc bool // RunDescriptor with descOf(pkt) instead
		src  uint32
	}{
		{name: "short frame", pkt: desc(2)[:8], src: 1},
		{name: "unauthorized", pkt: desc(2), src: 3},
		{name: "full redirect", pkt: desc(2), src: 1},
		{name: "no metrics slot, no socket", pkt: desc(5), src: 1},
		{name: "metadata-only fault", meta: 16, src: 1},
		{name: "metadata-only short", meta: 8, src: 1},
		{name: "descriptor: full redirect", pkt: desc(2), desc: true, src: 1},
		{name: "descriptor: unauthorized", pkt: desc(2), desc: true, src: 3},
		{name: "descriptor: no metrics slot, no socket", pkt: desc(5), desc: true, src: 1},
	}
	ej, ei := mk(true), mk(false)
	for _, r := range runs {
		var resJ, resI Result
		var errJ, errI error
		switch {
		case r.meta > 0:
			resJ.Ret, errJ = ej.k.RunMeta(ej.lp, r.meta, r.src, 0)
			resI.Ret, errI = ei.k.RunMeta(ei.lp, r.meta, r.src, 0)
		case r.desc:
			resJ, errJ = runDescriptor(ej.k, ej.lp, descOf(r.pkt), r.src, 0)
			resI, errI = runDescriptor(ei.k, ei.lp, descOf(r.pkt), r.src, 0)
		default:
			resJ, errJ = ej.k.Run(ej.lp, r.pkt, r.src, nil)
			resI, errI = ei.k.Run(ei.lp, r.pkt, r.src, nil)
		}
		if !sameError(errJ, errI) {
			t.Fatalf("%s: error divergence jit=%v interp=%v", r.name, errJ, errI)
		}
		if !sameResult(resJ, resI) {
			t.Fatalf("%s: result divergence jit=%+v interp=%+v", r.name, resJ, resI)
		}
	}
	requireSameMap(t, "metrics", ej.metrics, ei.metrics)
	requireSameCopies(t, "metrics", ej.metrics, ei.metrics)
	n := uint64(len(runs))
	esJ, esI := ej.k.EngineStats(), ei.k.EngineStats()
	if want := (EngineStats{JITRuns: n, Insns: esI.Insns, Loaded: 1, Compiled: 1}); esJ != want {
		t.Fatalf("jit kernel %+v, want %+v", esJ, want)
	}
	if want := (EngineStats{InterpRuns: n, Insns: esJ.Insns, Loaded: 1, Compiled: 1}); esI != want {
		t.Fatalf("interp kernel %+v, want %+v", esI, want)
	}
}

// TestJITFallbackFibLookup: a program that matches no shape — here a
// forwarding program's bpf_fib_lookup call — must load fine, say why it has
// no fast path, and execute on the interpreter with the fast paths enabled.
func TestJITFallbackFibLookup(t *testing.T) {
	p := &Program{Name: "fib", Type: ProgTypeXDP, Insns: []Insn{
		StoreImm(R10, -12, 1, W),         // ifindex_in
		StoreImm(R10, -8, 0x0a000001, W), // daddr
		StoreImm(R10, -4, 0, W),          // out slot
		Mov64Reg(R2, R10),
		Add64Imm(R2, -12),
		Mov64Imm(R3, FibParamsSize),
		Mov64Imm(R4, 0),
		Call(HelperFibLookup),
		Exit(),
	}}
	k := NewKernel()
	lp, err := k.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if fallbackOf(lp) == "" {
		t.Fatal("want interpreter fallback, with a reason")
	}
	res, err := k.Run(lp, make([]byte, 16), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 2 { // BPF_FIB_LKUP_RET_NOT_FWDED on the null env
		t.Fatalf("want ret 2, got %d", res.Ret)
	}
	es := k.EngineStats()
	if es.InterpRuns != 1 || es.JITRuns != 0 {
		t.Fatalf("fallback run not attributed to the interpreter: %+v", es)
	}
	if es.Loaded != 1 || es.Compiled != 0 {
		t.Fatalf("program gauges wrong: %+v", es)
	}
}

// TestJITEngineStats: a plain program runs on the interpreter whatever the
// switch says; the SPROXY shape's runs follow the SetJIT switch, which is on
// in a new kernel; the compiled-programs gauge counts programs with a fast
// path, and Unload counts them back out.
func TestJITEngineStats(t *testing.T) {
	k := NewKernel()
	alu, err := k.Load(&Program{Name: "alu", Type: ProgTypeXDP, Insns: []Insn{
		Mov64Imm(R0, 41),
		Add64Imm(R0, 1),
		Exit(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fallbackOf(alu) == "" {
		t.Fatal("plain ALU program has a fast path; want the interpreter and a reason")
	}
	sp, _, _, _ := buildSProxyShape(t, k)
	if why := fallbackOf(sp); why != "" {
		t.Fatalf("SPROXY shape declined: %s", why)
	}
	for i, on := range []bool{true, false, true} {
		if i > 0 {
			k.SetJIT(on)
		}
		if _, err := k.Run(alu, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.RunDescriptor(sp, shm.Descriptor{}, 1, 3); err != nil {
			t.Fatal(err)
		}
	}
	// Three instructions per ALU run, 19 per denied SPROXY run.
	if es, want := k.EngineStats(), (EngineStats{JITRuns: 2, InterpRuns: 4, Insns: 3*3 + 3*19, Loaded: 2, Compiled: 1}); es != want {
		t.Fatalf("engine stats %+v, want %+v", es, want)
	}
	k.Unload(sp)
	k.Unload(alu)
	if es := k.EngineStats(); es.Loaded != 0 || es.Compiled != 0 {
		t.Fatalf("program gauges after unload: %+v", es)
	}
}

// fallbackOf is why lp has no fast path: empty when it has one, else the shape
// it matches none of or the geometry guard of the one it matches that declined.
func fallbackOf(lp *LoadedProgram) string {
	_, _, why := matchFast(lp)
	return why
}

// TestFallbackReasonNamesTheGuard: a program that matches a shape
// instruction for instruction but fails one of its geometry guards says
// which guard.
func TestFallbackReasonNamesTheGuard(t *testing.T) {
	k := NewKernel()
	sockmap, filter, metrics := sproxyMaps(t, k, 4, 4) // 4-byte counters
	lp, err := k.Load(sproxyShape(16, filter.FD(), metrics.FD(), sockmap.FD()))
	if err != nil {
		t.Fatal(err)
	}
	if why := fallbackOf(lp); !strings.Contains(why, "metrics map") {
		t.Fatalf("reason %q; want the interpreter and the metrics guard named", why)
	}
	_, _, l3 := sproxyMaps(t, k, 8, 4)
	lp, err = k.Load(eproxyShape(l3.FD(), 0, 4)) // bytes slot past a 4-entry map
	if err != nil {
		t.Fatal(err)
	}
	if why := fallbackOf(lp); !strings.Contains(why, "bytes slot") {
		t.Fatalf("reason %q; want the interpreter and the bytes-slot guard named", why)
	}
}

// TestJITConcurrentLoadRun races program loads, runs on both engines, map
// mutations, and SetJIT toggles on one kernel — the race-detector gate for
// the fast-path dispatch (make race).
func TestJITConcurrentLoadRun(t *testing.T) {
	k := NewKernel()
	lp, sockmap, filter, _ := buildSProxyShape(t, k)
	if err := filter.Update(sproxyFilterKey(1, 2), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := sockmap.UpdateSock(2, &paritySock{id: 2}); err != nil {
		t.Fatal(err)
	}

	const iters = 300
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // loader: new programs (and maps) while others run
		defer wg.Done()
		for i := 0; i < iters; i++ {
			p := &Program{Name: fmt.Sprintf("gen%d", i), Type: ProgTypeXDP, Insns: []Insn{
				Mov64Imm(R0, int64(i)),
				Exit(),
			}}
			nlp, err := k.Load(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := k.Run(nlp, nil, 0, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // sender: fast-path runs
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, _, err := k.RunDescriptor(lp, shm.Descriptor{NextFn: 2}, 1, uint32(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // control plane: sockmap churn
		defer wg.Done()
		for i := 0; i < iters; i++ {
			id := uint32(3 + i%4)
			if err := sockmap.UpdateSock(id, &paritySock{id: id}); err != nil {
				t.Error(err)
				return
			}
			_ = sockmap.DeleteU32(id)
		}
	}()
	go func() { // engine toggling mid-flight
		defer wg.Done()
		for i := 0; i < iters; i++ {
			k.SetJIT(i%2 == 0)
		}
	}()
	wg.Wait()
	k.SetJIT(true)

	if es := k.EngineStats(); es.JITRuns+es.InterpRuns != 2*iters {
		t.Fatalf("engine accounting lost updates: %+v", es)
	}
}

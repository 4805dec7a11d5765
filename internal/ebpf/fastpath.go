package ebpf

// Shape-specialized fast paths.
//
// The interpreter in vm.go is the reference engine and runs any verified
// program, paying a fetch/decode/dispatch cycle per dynamic instruction. The
// two programs the dataplane runs per descriptor — SPROXY and EPROXY — are
// instead recognized structurally at Load (instruction-by-instruction match,
// map fds and the descriptor size extracted as wildcards) and collapsed into
// a handful of direct map operations with no exec state at all.
//
// A fast path preserves exact interpreter semantics: identical verdicts, map
// state, atomic-counter behavior, fault classes, and — load-bearing for
// EngineStats().Insns — identical dynamic instruction counts, derived from the
// matched bytecode by countPath. A program that matches no shape, or whose
// maps fail a shape's geometry guards, runs on the interpreter, which is also
// the differential-test oracle (Kernel.SetJIT(false)).

import "sync/atomic"

// insnPat matches one instruction. All fields are compared except Imm when
// wildImm is set; wildcard Imms are extracted in program order.
type insnPat struct {
	op       Op
	dst, src Register
	off      int16
	imm      int64
	size     Size
	wildImm  bool
}

func pat(in Insn) insnPat {
	return insnPat{op: in.Op, dst: in.Dst, src: in.Src, off: in.Off, imm: in.Imm, size: in.Size}
}

func wild(in Insn) insnPat {
	p := pat(in)
	p.wildImm, p.imm = true, 0
	return p
}

// matchInsns compares a program against a pattern, returning the wildcard
// immediates in order on a full match.
func matchInsns(insns []Insn, pats []insnPat) ([]int64, bool) {
	if len(insns) != len(pats) {
		return nil, false
	}
	var wilds []int64
	for i, p := range pats {
		in := insns[i]
		if in.Op != p.op || in.Dst != p.dst || in.Src != p.src || in.Off != p.off || in.Size != p.size {
			return nil, false
		}
		if p.wildImm {
			wilds = append(wilds, in.Imm)
		} else if in.Imm != p.imm {
			return nil, false
		}
	}
	return wilds, true
}

// countPath counts the dynamic instructions the interpreter executes along
// one control-flow path, selected by the taken map (conditional pc → branch
// outcome; absent means fall through). Used by the matchers to pre-compute
// exact Result.Insns values per fast-path outcome instead of hard-coding
// them.
func countPath(insns []Insn, taken map[int]bool) int {
	pc, n := 0, 0
	for n <= 2*len(insns) { // matched shapes are loop-free; bound defensively
		in := insns[pc]
		n++
		switch {
		case in.Op == OpExit:
			return n
		case in.Op == OpJa:
			pc += 1 + int(in.Off)
		case in.Op.isConditional() && taken[pc]:
			pc += 1 + int(in.Off)
		default:
			pc++
		}
	}
	return n
}

// matchFast tries the known program shapes against a freshly verified
// program. Matching happens after the map table is built, so the extracted
// fds resolve through the program's own references. When neither fast path
// comes back the string says why: no shape matched,
// or a shape matched instruction for instruction and one of its geometry
// guards declined. Load drops the reason; it is a constant, so keeping it
// costs nothing, and it is how the tests tell a declining guard from a
// shape that stopped matching.
func matchFast(lp *LoadedProgram) (*sproxyFast, *eproxyFast, string) {
	if sp, why := matchSProxy(lp); sp != nil || why != "" {
		return sp, nil, why
	}
	if ep, why := matchEProxy(lp); ep != nil || why != "" {
		return nil, ep, why
	}
	return nil, nil, "matches no recognized program shape (SPROXY, EPROXY)"
}

// mapRef resolves a map fd through the program's load-time map table.
func (lp *LoadedProgram) mapRef(fd int) *Map {
	for i := range lp.maps {
		if lp.maps[i].fd == fd {
			return lp.maps[i].m
		}
	}
	return nil
}

// sproxyPats is the SPROXY descriptor-redirect shape (core.buildSProxyProgram):
// bounds-check the descriptor, look up src<<32|dst in the filter hash, bump
// metrics[dst], msg_redirect_map to sockmap[dst]. Wildcards: descriptor
// size, filter fd, metrics fd, sockmap fd.
func sproxyPats() []insnPat {
	return []insnPat{
		pat(Mov64Reg(R6, R1)),
		pat(LoadMem(R7, R6, 0, DW)), // data
		pat(LoadMem(R2, R6, 8, DW)), // data_end
		pat(Mov64Reg(R3, R7)),
		wild(Add64Imm(R3, 0)),       // + descriptor size
		pat(JgtReg(R3, R2, 25)),     // short frame → drop
		pat(LoadMem(R8, R7, 0, W)),  // dst instance id from the descriptor
		pat(LoadMem(R9, R6, 16, W)), // src instance id from ctx ifindex
		pat(Mov64Reg(R2, R9)),
		pat(Lsh64Imm(R2, 32)),
		pat(Or64Reg(R2, R8)),
		pat(StoreMem(R10, -8, R2, DW)),
		wild(LoadMapFD(R1, 0)), // filter map
		pat(Mov64Reg(R2, R10)),
		pat(Add64Imm(R2, -8)),
		pat(Call(HelperMapLookupElem)),
		pat(JeqImm(R0, 0, 14)), // unauthorized → drop
		pat(StoreMem(R10, -12, R8, W)),
		wild(LoadMapFD(R1, 0)), // metrics map
		pat(Mov64Reg(R2, R10)),
		pat(Add64Imm(R2, -12)),
		pat(Call(HelperMapLookupElem)),
		pat(JeqImm(R0, 0, 2)), // no metrics slot → skip the bump
		pat(Mov64Imm(R2, 1)),
		pat(AtomicAdd(R0, 0, R2, DW)),
		pat(Mov64Reg(R1, R6)),
		wild(LoadMapFD(R2, 0)), // sockmap
		pat(Mov64Reg(R3, R8)),
		pat(Mov64Imm(R4, 0)),
		pat(Call(HelperMsgRedirectMap)),
		pat(Exit()),
		pat(Mov64Imm(R0, SKDrop)),
		pat(Exit()),
	}
}

// sproxyPktLoadPC is the pattern index of the first packet dereference (the
// dst-id load): a metadata-only run whose claimed frame passes the bounds
// check faults there, exactly as the interpreter does.
const sproxyPktLoadPC = 6

// matchSProxy recognizes the SPROXY shape and returns its fast path, or
// the geometry guard that declined it (both empty: not this shape).
func matchSProxy(lp *LoadedProgram) (*sproxyFast, string) {
	insns := lp.prog.Insns
	wilds, ok := matchInsns(insns, sproxyPats())
	if !ok {
		return nil, ""
	}
	descSize := int(wilds[0])
	filter := lp.mapRef(int(uint32(wilds[1])))
	metrics := lp.mapRef(int(uint32(wilds[2])))
	sockmap := lp.mapRef(int(uint32(wilds[3])))
	// Geometry guards: everything the bytecode path relies on implicitly.
	// A shape that matched but whose maps disagree (or whose descriptor is
	// shorter than the 4-byte dst-id load) falls back to the interpreter,
	// which handles every case by construction.
	if descSize < 4 {
		return nil, "sproxy shape: descriptor shorter than the 4-byte dst-id load"
	}
	if filter == nil || filter.spec.Type != MapTypeHash || filter.spec.KeySize != 8 {
		return nil, "sproxy shape: filter map is not a hash with 8-byte keys"
	}
	if metrics == nil || !metrics.isArray() || metrics.spec.ValueSize < 8 {
		return nil, "sproxy shape: metrics map is not an array of 8-byte counters"
	}
	if sockmap == nil || sockmap.spec.Type != MapTypeSockMap {
		return nil, "sproxy shape: redirect map is not a sockmap"
	}

	// Exact per-outcome instruction counts, derived from the matched
	// bytecode rather than hard-coded.
	return &sproxyFast{
		filter: filter, metrics: metrics, sockmap: sockmap, descSize: descSize,
		nShort:  countPath(insns, map[int]bool{5: true}),
		nDenied: countPath(insns, map[int]bool{16: true}),
		nNoSlot: countPath(insns, map[int]bool{22: true}),
		nFull:   countPath(insns, nil),
	}, ""
}

// sproxyFast is the SPROXY shape's fast path: the program's three maps, its
// descriptor size and the instructions each outcome counts.
type sproxyFast struct {
	filter, metrics, sockmap                  *Map
	descSize, nShort, nDenied, nNoSlot, nFull int
}

// run is the program's three map operations on the maps' own tables: the
// filter probe on src<<32|dst (the word of the key the bytecode builds), the
// interpreter's atomic add on metrics[dst]'s slab word, and the sockmap load.
// Of the frame it gets dst, its first word, if readable (not in RunMeta), and
// its length; src is the ctx ifindex. It reproduces the interpreter exactly:
// verdict, socket, map mutations, fault class and instruction count.
func (p *sproxyFast) run(dst uint32, readable bool, frameLen int, src, stripe uint32) (int64, SockRef, int, error) {
	if frameLen < p.descSize {
		return SKDrop, nil, p.nShort, nil
	}
	if !readable {
		// Frame bounds claim a descriptor but the bytes aren't accessible
		// (RunMeta): the packet load faults.
		return 0, nil, sproxyPktLoadPC + 1, ErrOutOfBounds
	}
	if _, ok := (*p.filter.hash.Load())[uint64(src)<<32|uint64(dst)]; !ok {
		return SKDrop, nil, p.nDenied, nil
	}
	insns := p.nFull
	if int(dst) < p.metrics.spec.MaxEntries {
		atomic.AddUint64(p.metrics.word(stripe, int(dst)), 1)
	} else {
		insns = p.nNoSlot
	}
	if s, ok := (*p.sockmap.socks.Load())[dst]; ok {
		return SKPass, s, insns, nil
	}
	return SKDrop, nil, insns, nil
}

// eproxyPats is the EPROXY L3-monitor shape (core.buildEProxyProgram):
// packets++ and bytes += frame length in an array map, then pass. The
// program touches only ctx bounds, never packet bytes, so it runs over
// metadata-only frames. Wildcards: packets slot, packets-map fd, bytes
// slot, bytes-map fd, pass verdict.
func eproxyPats() []insnPat {
	return []insnPat{
		pat(LoadMem(R6, R1, 0, DW)), // data
		pat(LoadMem(R7, R1, 8, DW)), // data_end
		pat(Mov64Reg(R8, R7)),
		pat(Insn{Op: OpSubReg, Dst: R8, Src: R6}), // r8 = frame length
		wild(StoreImm(R10, -4, 0, W)),             // packets slot
		wild(LoadMapFD(R1, 0)),
		pat(Mov64Reg(R2, R10)),
		pat(Add64Imm(R2, -4)),
		pat(Call(HelperMapLookupElem)),
		pat(JeqImm(R0, 0, 2)),
		pat(Mov64Imm(R2, 1)),
		pat(AtomicAdd(R0, 0, R2, DW)),
		wild(StoreImm(R10, -4, 0, W)), // bytes slot
		wild(LoadMapFD(R1, 0)),
		pat(Mov64Reg(R2, R10)),
		pat(Add64Imm(R2, -4)),
		pat(Call(HelperMapLookupElem)),
		pat(JeqImm(R0, 0, 1)),
		pat(AtomicAdd(R0, 0, R8, DW)),
		wild(Mov64Imm(R0, 0)), // pass verdict
		pat(Exit()),
	}
}

// matchEProxy recognizes the EPROXY shape and returns its fast path, or
// the geometry guard that declined it (both empty: not this shape).
func matchEProxy(lp *LoadedProgram) (*eproxyFast, string) {
	insns := lp.prog.Insns
	wilds, ok := matchInsns(insns, eproxyPats())
	if !ok {
		return nil, ""
	}
	pktSlot, byteSlot := int(wilds[0]), int(wilds[2])
	pktMap := lp.mapRef(int(uint32(wilds[1])))
	byteMap := lp.mapRef(int(uint32(wilds[3])))
	ret := wilds[4]
	// Both slots must be valid array entries wide enough for the DW adds —
	// then both lookups hit and the full path always executes, so one
	// instruction count covers every run.
	okSlot := func(m *Map, slot int) bool {
		return m != nil && m.isArray() && m.spec.ValueSize >= 8 &&
			slot >= 0 && slot < m.spec.MaxEntries
	}
	if !okSlot(pktMap, pktSlot) {
		return nil, "eproxy shape: packets slot is not an 8-byte entry of an array map"
	}
	if !okSlot(byteMap, byteSlot) {
		return nil, "eproxy shape: bytes slot is not an 8-byte entry of an array map"
	}
	return &eproxyFast{pktMap, byteMap, pktSlot, byteSlot, countPath(insns, nil), ret}, ""
}

// eproxyFast is the EPROXY shape's fast path: both counters' maps and slots,
// the verdict, and the one instruction count every run has.
type eproxyFast struct {
	pktMap, byteMap          *Map
	pktSlot, byteSlot, insns int
	ret                      int64
}

// run counts a frame of frameLen bytes, whose bytes it never reads, on stripe.
func (p *eproxyFast) run(frameLen int, stripe uint32) (int64, int) {
	atomic.AddUint64(p.pktMap.word(stripe, p.pktSlot), 1)
	atomic.AddUint64(p.byteMap.word(stripe, p.byteSlot), uint64(frameLen))
	return p.ret, p.insns
}

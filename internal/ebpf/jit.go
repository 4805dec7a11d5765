package ebpf

// JIT: translation of verified bytecode into native Go.
//
// The interpreter in vm.go pays a fetch/decode/dispatch cycle per dynamic
// instruction. Loading is rare and execution is per-descriptor, so Load
// trades compile time for run time in two tiers:
//
//  1. A general closure-chain backend. Each instruction becomes one
//     pre-bound Go closure (operands resolved at compile time, no decode at
//     run time), and the closures of a basic block are threaded together so
//     straight-line code runs as direct calls. Blocks end at jumps/exits
//     and return the next block's index to a small trampoline, which keeps
//     the call depth bounded by the block length rather than the dynamic
//     instruction count.
//
//  2. Shape-specialized fast paths. The SPROXY and EPROXY programs the
//     dataplane actually runs per descriptor are recognized structurally
//     (instruction-by-instruction match, map fds and the descriptor size
//     extracted as wildcards) and collapsed into a handful of direct map
//     operations with no exec state at all.
//
// Both tiers preserve exact interpreter semantics: identical verdicts, map
// state, atomic-counter behavior, fault classes, and — load-bearing for
// Kernel.Stats and the budget limit — identical dynamic instruction counts.
// The closure chain accounts instructions per block (amortized, not
// per-step); a fault inside a block rewinds Result.Insns to the faulting
// instruction's exact position, and a run within one block of the
// MaxRuntimeInsns budget bails out to the interpreter (execState.runFrom),
// which finishes with the canonical per-instruction accounting. The
// interpreter therefore stays fully exercised: it is the budget-boundary
// continuation, the backend for programs the compiler rejects, and the
// differential-test oracle (Kernel.SetJIT(false)).
//
// Compilation is total over the ISA except helpers with by-reference
// parameter blocks (bpf_fib_lookup writes results through a program-visible
// pointer): those stay interpreter-only, which keeps a real production
// program (the netstack forwarding program) on the fallback path at all
// times rather than only in tests.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// fastBufPool stages RunCopy frames for the fast runners. A runner is an
// indirect call, so a caller's stack-backed frame handed to it directly
// would escape to the heap; copying into a pooled buffer first keeps the
// descriptor send path allocation-free. The buffer also says which stripe of
// the kernel's run counters its holder counts on (runStripe).
type fastBuf struct {
	b      [pktCopySize]byte
	stripe uint32
}

var fastBufPool = sync.Pool{New: func() any { return &fastBuf{stripe: nextStripe()} }}

// EngineKind identifies which execution backend runs a loaded program.
type EngineKind int

// Engine kinds, from slowest to fastest.
const (
	// EngineInterp: the per-instruction interpreter (vm.go).
	EngineInterp EngineKind = iota
	// EngineJIT: the general closure-chain backend.
	EngineJIT
	// EngineFast: a shape-specialized fast path (SPROXY/EPROXY).
	EngineFast
)

func (e EngineKind) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EngineJIT:
		return "jit"
	case EngineFast:
		return "fast"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// step executes from one instruction through the end of its basic block and
// returns the index of the successor block, or a terminal code.
type step func(st *execState) int

// Terminal codes returned by a block's step chain.
const (
	jitNextExit  = -1 // program exited; verdict is in R0
	jitNextFault = -2 // a fault occurred; error is in st.jitErr
)

// jitBlock is one compiled basic block.
type jitBlock struct {
	start int  // pc of the block's first instruction
	n     int  // static instruction count (every instruction executes)
	step  step // the block's threaded closure chain
}

// jitProg is a program compiled to closure chains.
type jitProg struct {
	blocks []jitBlock
}

// jitFault records a fault from inside a compiled block. idx is the faulting
// instruction's index within its block; Result.Insns was bulk-charged at
// block entry, so it is rewound here to exactly the count the interpreter
// would report (instructions before the fault, plus the faulting one).
func (st *execState) jitFault(err error, idx int) int {
	st.res.Insns = st.blockBase + idx + 1
	st.jitErr = err
	return jitNextFault
}

// run drives a compiled program: charge the block's instructions, execute
// its closure chain, follow the returned successor. When the remaining
// budget is smaller than the next block, the machine state is handed to the
// interpreter (runFrom), which finishes the run with canonical
// per-instruction budget semantics — so ErrBudget fires at exactly the same
// dynamic instruction on both engines.
func (jp *jitProg) run(st *execState) (Result, error) {
	bi := 0
	for {
		blk := &jp.blocks[bi]
		if st.res.Insns+blk.n > MaxRuntimeInsns {
			return st.runFrom(blk.start)
		}
		st.blockBase = st.res.Insns
		st.res.Insns += blk.n
		switch next := blk.step(st); next {
		case jitNextExit:
			st.res.Ret = int64(st.reg[R0])
			return st.res, nil
		case jitNextFault:
			err := st.jitErr
			st.jitErr = nil
			return st.res, err
		default:
			bi = next
		}
	}
}

// compile translates a verified program into closure chains, using the
// verifier's block-leader analysis. A verified program has in-range jump
// targets and sane operands everywhere, so compilation cannot fail on
// structure — only on instructions designated interpreter-only, in which
// case it returns a nil program and the reason (surfaced via
// LoadedProgram.FallbackReason and the obs engine counters).
func compile(p *Program, an *progAnalysis) (*jitProg, string) {
	insns := p.Insns
	for pc, in := range insns {
		if in.Op == OpCall && HelperID(in.Imm) == HelperFibLookup {
			return nil, fmt.Sprintf("insn %d: helper %v has by-reference parameters and is interpreter-only", pc, HelperFibLookup)
		}
	}

	// Block extents from the leaders. Every instruction after a jump or
	// exit is a leader, so a block is simply [leader, next leader).
	var starts []int
	for pc, l := range an.leaders {
		if l {
			starts = append(starts, pc)
		}
	}
	blockIdx := make([]int, len(insns))
	for i, s := range starts {
		blockIdx[s] = i
	}

	jp := &jitProg{blocks: make([]jitBlock, len(starts))}
	for bi, s := range starts {
		end := len(insns)
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		n := end - s
		last := insns[end-1]
		lastIdx := n - 1

		// The block's final step decides the successor. Control flow that
		// would run off the program end (only reachable in unreachable
		// trailing code the verifier's DFS never visits) compiles to the
		// same errPCOutOfRange fault the interpreter raises.
		var tail step
		switch {
		case last.Op == OpExit:
			tail = func(st *execState) int { return jitNextExit }
		case last.Op == OpJa:
			tgt := blockIdx[end+int(last.Off)]
			tail = func(st *execState) int { return tgt }
		case last.Op.isConditional():
			pred := emitPred(last)
			tgt := blockIdx[end+int(last.Off)]
			if end < len(insns) {
				fall := blockIdx[end]
				tail = func(st *execState) int {
					if pred(st) {
						return tgt
					}
					return fall
				}
			} else {
				idx := lastIdx
				tail = func(st *execState) int {
					if pred(st) {
						return tgt
					}
					return st.jitFault(errPCOutOfRange, idx)
				}
			}
		default:
			// Straight-line final instruction: execute it, then fall
			// through into the next block.
			var fall step
			if end < len(insns) {
				fi := blockIdx[end]
				fall = func(st *execState) int { return fi }
			} else {
				idx := lastIdx
				fall = func(st *execState) int { return st.jitFault(errPCOutOfRange, idx) }
			}
			var ok bool
			if tail, ok = emitStep(last, lastIdx, fall); !ok {
				return nil, fmt.Sprintf("insn %d: op %d not compilable", end-1, last.Op)
			}
		}

		// Thread the remaining instructions in reverse so each closure
		// calls the next directly — fallthrough costs one call, not a
		// dispatch.
		chain := tail
		for j := n - 2; j >= 0; j-- {
			var ok bool
			if chain, ok = emitStep(insns[s+j], j, chain); !ok {
				return nil, fmt.Sprintf("insn %d: op %d not compilable", s+j, insns[s+j].Op)
			}
		}
		jp.blocks[bi] = jitBlock{start: s, n: n, step: chain}
	}
	return jp, ""
}

// emitStep compiles one non-control-flow instruction into a closure with
// its operands pre-bound, threaded onto next. idx is the instruction's
// index within its block, captured by faulting closures so jitFault can
// rewind the bulk-charged instruction count.
func emitStep(in Insn, idx int, next step) (step, bool) {
	dst, src := in.Dst, in.Src
	imm := uint64(in.Imm)
	switch in.Op {
	case OpMovImm:
		return func(st *execState) int { st.reg[dst] = imm; return next(st) }, true
	case OpMovReg:
		return func(st *execState) int { st.reg[dst] = st.reg[src]; return next(st) }, true
	case OpAddImm:
		return func(st *execState) int { st.reg[dst] += imm; return next(st) }, true
	case OpAddReg:
		return func(st *execState) int { st.reg[dst] += st.reg[src]; return next(st) }, true
	case OpSubImm:
		return func(st *execState) int { st.reg[dst] -= imm; return next(st) }, true
	case OpSubReg:
		return func(st *execState) int { st.reg[dst] -= st.reg[src]; return next(st) }, true
	case OpMulImm:
		return func(st *execState) int { st.reg[dst] *= imm; return next(st) }, true
	case OpMulReg:
		return func(st *execState) int { st.reg[dst] *= st.reg[src]; return next(st) }, true
	case OpDivImm:
		return func(st *execState) int { st.reg[dst] /= imm; return next(st) }, true // imm==0 rejected by verifier
	case OpDivReg:
		return func(st *execState) int {
			if st.reg[src] == 0 {
				return st.jitFault(ErrDivByZero, idx)
			}
			st.reg[dst] /= st.reg[src]
			return next(st)
		}, true
	case OpModImm:
		return func(st *execState) int { st.reg[dst] %= imm; return next(st) }, true
	case OpModReg:
		return func(st *execState) int {
			if st.reg[src] == 0 {
				return st.jitFault(ErrDivByZero, idx)
			}
			st.reg[dst] %= st.reg[src]
			return next(st)
		}, true
	case OpAndImm:
		return func(st *execState) int { st.reg[dst] &= imm; return next(st) }, true
	case OpAndReg:
		return func(st *execState) int { st.reg[dst] &= st.reg[src]; return next(st) }, true
	case OpOrImm:
		return func(st *execState) int { st.reg[dst] |= imm; return next(st) }, true
	case OpOrReg:
		return func(st *execState) int { st.reg[dst] |= st.reg[src]; return next(st) }, true
	case OpXorImm:
		return func(st *execState) int { st.reg[dst] ^= imm; return next(st) }, true
	case OpXorReg:
		return func(st *execState) int { st.reg[dst] ^= st.reg[src]; return next(st) }, true
	case OpLshImm:
		sh := imm & 63
		return func(st *execState) int { st.reg[dst] <<= sh; return next(st) }, true
	case OpLshReg:
		return func(st *execState) int { st.reg[dst] <<= st.reg[src] & 63; return next(st) }, true
	case OpRshImm:
		sh := imm & 63
		return func(st *execState) int { st.reg[dst] >>= sh; return next(st) }, true
	case OpRshReg:
		return func(st *execState) int { st.reg[dst] >>= st.reg[src] & 63; return next(st) }, true
	case OpArshImm:
		sh := imm & 63
		return func(st *execState) int {
			st.reg[dst] = uint64(int64(st.reg[dst]) >> sh)
			return next(st)
		}, true
	case OpArshReg:
		return func(st *execState) int {
			st.reg[dst] = uint64(int64(st.reg[dst]) >> (st.reg[src] & 63))
			return next(st)
		}, true
	case OpNeg:
		return func(st *execState) int { st.reg[dst] = uint64(-int64(st.reg[dst])); return next(st) }, true

	case OpLoad:
		off, size := uint64(int64(in.Off)), in.Size
		return func(st *execState) int {
			b, err := st.access(st.reg[src]+off, int(size), false)
			if err != nil {
				return st.jitFault(err, idx)
			}
			st.reg[dst] = loadUint(b, size)
			return next(st)
		}, true
	case OpStore:
		off, size := uint64(int64(in.Off)), in.Size
		return func(st *execState) int {
			b, err := st.access(st.reg[dst]+off, int(size), true)
			if err != nil {
				return st.jitFault(err, idx)
			}
			storeUint(b, size, st.reg[src])
			return next(st)
		}, true
	case OpStoreImm:
		off, size := uint64(int64(in.Off)), in.Size
		return func(st *execState) int {
			b, err := st.access(st.reg[dst]+off, int(size), true)
			if err != nil {
				return st.jitFault(err, idx)
			}
			storeUint(b, size, imm)
			return next(st)
		}, true
	case OpAtomicAdd:
		off, size := uint64(int64(in.Off)), in.Size
		return func(st *execState) int {
			b, err := st.access(st.reg[dst]+off, int(size), true)
			if err != nil {
				return st.jitFault(err, idx)
			}
			atomicAddBytes(b, size, st.reg[src])
			return next(st)
		}, true

	case OpLoadMapFD:
		handle := mapHandleTag | uint64(uint32(in.Imm))
		return func(st *execState) int { st.reg[dst] = handle; return next(st) }, true

	case OpCall:
		id := HelperID(in.Imm)
		return func(st *execState) int {
			if err := st.call(id); err != nil {
				return st.jitFault(err, idx)
			}
			return next(st)
		}, true
	}
	// Jumps and exits only terminate blocks (handled in compile); anything
	// else here is a compiler gap — fall back rather than miscompile.
	return nil, false
}

// emitPred compiles a conditional jump's predicate with operands pre-bound.
func emitPred(in Insn) func(st *execState) bool {
	dst, src := in.Dst, in.Src
	uimm, simm := uint64(in.Imm), in.Imm
	switch in.Op {
	case OpJeqImm:
		return func(st *execState) bool { return st.reg[dst] == uimm }
	case OpJeqReg:
		return func(st *execState) bool { return st.reg[dst] == st.reg[src] }
	case OpJneImm:
		return func(st *execState) bool { return st.reg[dst] != uimm }
	case OpJneReg:
		return func(st *execState) bool { return st.reg[dst] != st.reg[src] }
	case OpJgtImm:
		return func(st *execState) bool { return st.reg[dst] > uimm }
	case OpJgtReg:
		return func(st *execState) bool { return st.reg[dst] > st.reg[src] }
	case OpJgeImm:
		return func(st *execState) bool { return st.reg[dst] >= uimm }
	case OpJgeReg:
		return func(st *execState) bool { return st.reg[dst] >= st.reg[src] }
	case OpJltImm:
		return func(st *execState) bool { return st.reg[dst] < uimm }
	case OpJltReg:
		return func(st *execState) bool { return st.reg[dst] < st.reg[src] }
	case OpJleImm:
		return func(st *execState) bool { return st.reg[dst] <= uimm }
	case OpJleReg:
		return func(st *execState) bool { return st.reg[dst] <= st.reg[src] }
	case OpJsgtImm:
		return func(st *execState) bool { return int64(st.reg[dst]) > simm }
	case OpJsgtReg:
		return func(st *execState) bool { return int64(st.reg[dst]) > int64(st.reg[src]) }
	default:
		// Unreachable: compile only calls emitPred for conditional ops.
		return func(st *execState) bool { return false }
	}
}

// ---------------------------------------------------------------------------
// Shape-specialized fast paths.

// fastRunner executes a recognized program shape directly over the frame:
// pkt is the accessible packet bytes (nil/short for metadata-only runs),
// frameLen the ctx data_end-data distance, ifindex the ctx ifindex field.
// It must reproduce the interpreter's observable behavior exactly: verdict,
// redirect, map mutations, fault class, and dynamic instruction count.
type fastRunner func(pkt []byte, frameLen int, ifindex uint32) (Result, error)

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

// matchFast tries the known program shapes against a freshly compiled
// program. Matching happens after the map table is built, so the extracted
// fds resolve through the program's own references.
func matchFast(lp *LoadedProgram) fastRunner {
	if f := matchSProxy(lp); f != nil {
		return f
	}
	if f := matchEProxy(lp); f != nil {
		return f
	}
	return nil
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

// matchSProxy recognizes the SPROXY shape and returns its fast runner.
func matchSProxy(lp *LoadedProgram) fastRunner {
	insns := lp.prog.Insns
	wilds, ok := matchInsns(insns, sproxyPats())
	if !ok {
		return nil
	}
	descSize := int(wilds[0])
	filter := lp.mapRef(int(uint32(wilds[1])))
	metrics := lp.mapRef(int(uint32(wilds[2])))
	sockmap := lp.mapRef(int(uint32(wilds[3])))
	// Geometry guards: everything the bytecode path relies on implicitly.
	// A shape that matched but whose maps disagree (or whose descriptor is
	// shorter than the 4-byte dst-id load) falls back to the closure chain,
	// which handles every case by construction.
	if descSize < 4 {
		return nil
	}
	if filter == nil || filter.spec.Type != MapTypeHash || filter.spec.KeySize != 8 {
		return nil
	}
	if metrics == nil || metrics.spec.Type != MapTypeArray || metrics.spec.ValueSize < 8 || metrics.valWords == 0 {
		return nil
	}
	if sockmap == nil || sockmap.spec.Type != MapTypeSockMap {
		return nil
	}

	// Exact per-outcome instruction counts, derived from the matched
	// bytecode rather than hard-coded.
	nShort := countPath(insns, map[int]bool{5: true})
	nDenied := countPath(insns, map[int]bool{16: true})
	nNoSlot := countPath(insns, map[int]bool{22: true})
	nFull := countPath(insns, nil)
	nPktFault := sproxyPktLoadPC + 1

	slab, valWords, maxEntries := metrics.slab, metrics.valWords, metrics.spec.MaxEntries
	return func(pkt []byte, frameLen int, ifindex uint32) (Result, error) {
		if frameLen < descSize {
			return Result{Ret: SKDrop, Insns: nShort}, nil
		}
		if len(pkt) < 4 {
			// Frame bounds claim a descriptor but the bytes aren't
			// accessible (RunMeta): the packet load faults.
			return Result{Insns: nPktFault}, ErrOutOfBounds
		}
		dst := leU32(pkt)
		var key [8]byte // filter key: little-endian src<<32 | dst
		putLeU32(key[0:4], dst)
		putLeU32(key[4:8], ifindex)
		if _, err := filter.LookupRef(key[:]); err != nil {
			return Result{Ret: SKDrop, Insns: nDenied}, nil
		}
		res := Result{Insns: nFull}
		if int(dst) < maxEntries {
			// metrics[dst]++ on the aligned slab word, the same atomic
			// the interpreter's OpAtomicAdd fast path issues.
			atomic.AddUint64(&slab[int(dst)*valWords], 1)
		} else {
			res.Insns = nNoSlot
		}
		if s, err := sockmap.LookupSock(dst); err == nil {
			res.RedirectSock = s
			res.Ret = SKPass
		} else {
			res.Ret = SKDrop
		}
		return res, nil
	}
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

// matchEProxy recognizes the EPROXY shape and returns its fast runner.
func matchEProxy(lp *LoadedProgram) fastRunner {
	insns := lp.prog.Insns
	wilds, ok := matchInsns(insns, eproxyPats())
	if !ok {
		return nil
	}
	pktSlot, byteSlot := int(wilds[0]), int(wilds[2])
	pktMap := lp.mapRef(int(uint32(wilds[1])))
	byteMap := lp.mapRef(int(uint32(wilds[3])))
	ret := wilds[4]
	// Both slots must be valid array entries wide enough for the DW adds —
	// then both lookups hit and the full path always executes, so one
	// instruction count covers every run.
	okSlot := func(m *Map, slot int) bool {
		return m != nil && m.spec.Type == MapTypeArray && m.spec.ValueSize >= 8 &&
			m.valWords > 0 && slot >= 0 && slot < m.spec.MaxEntries
	}
	if !okSlot(pktMap, pktSlot) || !okSlot(byteMap, byteSlot) {
		return nil
	}
	nAll := countPath(insns, nil)

	pktWord := &pktMap.slab[pktSlot*pktMap.valWords]
	byteWord := &byteMap.slab[byteSlot*byteMap.valWords]
	return func(_ []byte, frameLen int, _ uint32) (Result, error) {
		atomic.AddUint64(pktWord, 1)
		atomic.AddUint64(byteWord, uint64(frameLen))
		return Result{Ret: ret, Insns: nAll}, nil
	}
}

package ebpf

import (
	"errors"
	"fmt"
)

// MaxProgInsns is the static program size limit (the classic 4096-insn
// kernel limit).
const MaxProgInsns = 4096

// ErrVerifier wraps all verification failures.
var ErrVerifier = errors.New("ebpf: verifier")

func verr(pc int, format string, args ...interface{}) error {
	return fmt.Errorf("%w: insn %d: %s", ErrVerifier, pc, fmt.Sprintf(format, args...))
}

// verify performs the static checks the kernel verifier would: structural
// validity, jump targets, guaranteed termination paths, register
// initialization before use, R10 immutability, known helpers, and valid map
// references. Dynamic properties (pointer bounds, division by a zero
// register) are enforced at runtime by the interpreter's checked address
// space and budget — the standard trade-off for an interpreter-based clone.
func (k *Kernel) verify(p *Program) error {
	insns := p.Insns
	if len(insns) == 0 {
		return fmt.Errorf("%w: empty program", ErrVerifier)
	}
	if len(insns) > MaxProgInsns {
		return fmt.Errorf("%w: program too large: %d insns", ErrVerifier, len(insns))
	}

	// Pass 1: structural checks.
	for pc, in := range insns {
		if in.Dst >= numRegisters || in.Src >= numRegisters {
			return verr(pc, "bad register (dst=%d src=%d)", in.Dst, in.Src)
		}
		if in.Op == OpInvalid || in.Op > OpExit {
			return verr(pc, "invalid opcode %d", in.Op)
		}
		if in.Op.writesDst() && in.Dst == R10 {
			return verr(pc, "write to frame pointer r10")
		}
		switch in.Op {
		case OpLoad, OpStore, OpStoreImm, OpAtomicAdd:
			switch in.Size {
			case B, H, W, DW:
			default:
				return verr(pc, "bad access size %d", in.Size)
			}
		case OpDivImm, OpModImm:
			if in.Imm == 0 {
				return verr(pc, "division by zero immediate")
			}
		case OpCall:
			if !knownHelper(HelperID(in.Imm)) {
				return verr(pc, "unknown helper %d", in.Imm)
			}
		case OpLoadMapFD:
			if k.mapByFD(int(in.Imm)) == nil {
				return verr(pc, "reference to unknown map fd %d", in.Imm)
			}
		}
		if in.Op.isJump() {
			t := pc + 1 + int(in.Off)
			if t < 0 || t >= len(insns) {
				return verr(pc, "jump target %d out of range", t)
			}
		}
	}

	// Pass 2: every path from the entry must be able to reach an exit, and
	// fall-through past the last instruction is forbidden.
	if err := checkTermination(insns); err != nil {
		return err
	}

	// Pass 3: registers must be initialized before use. Worklist dataflow
	// over a bitmask of initialized registers; entry has R1 (context) and
	// R10 (frame pointer) live.
	return checkInit(insns)
}

// checkTermination verifies no control flow can run off the end of the
// program and at least one exit is reachable.
func checkTermination(insns []Insn) error {
	n := len(insns)
	visited := make([]bool, n)
	stack := []int{0}
	sawExit := false
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[pc] {
			continue
		}
		visited[pc] = true
		in := insns[pc]
		if in.Op == OpExit {
			sawExit = true
			continue
		}
		var succs []int
		if in.Op == OpJa {
			succs = []int{pc + 1 + int(in.Off)}
		} else if in.Op.isConditional() {
			succs = []int{pc + 1, pc + 1 + int(in.Off)}
		} else {
			succs = []int{pc + 1}
		}
		for _, s := range succs {
			if s >= n {
				return verr(pc, "control flow falls off the program end")
			}
			if !visited[s] {
				stack = append(stack, s)
			}
		}
	}
	if !sawExit {
		return fmt.Errorf("%w: no reachable exit", ErrVerifier)
	}
	return nil
}

// regMask tracks which registers are definitely initialized.
type regMask uint16

func (m regMask) has(r Register) bool    { return m&(1<<r) != 0 }
func (m regMask) set(r Register) regMask { return m | (1 << r) }

// checkInit runs a forward may-analysis: at a join point a register is
// initialized only if it is initialized on every incoming edge.
func checkInit(insns []Insn) error {
	n := len(insns)
	const unseen = regMask(0xFFFF) // lattice top: all-initialized until first visit
	in := make([]regMask, n)
	seen := make([]bool, n)
	entry := regMask(0).set(R1).set(R10)

	type edge struct {
		to   int
		mask regMask
	}
	work := []edge{{0, entry}}
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		m := e.mask
		if seen[e.to] {
			merged := in[e.to] & m
			if merged == in[e.to] {
				continue // no change
			}
			in[e.to] = merged
			m = merged
		} else {
			seen[e.to] = true
			in[e.to] = m
		}
		pc := e.to
		insn := insns[pc]

		if insn.Op.readsSrc() && !m.has(insn.Src) {
			return verr(pc, "read of uninitialized register r%d", insn.Src)
		}
		if insn.Op.readsDst() && !m.has(insn.Dst) {
			return verr(pc, "read of uninitialized register r%d", insn.Dst)
		}
		out := m
		switch insn.Op {
		case OpCall:
			// helper args must be initialized per helper signature;
			// conservatively require R1 for all, and R2.. as used is
			// checked at runtime. Calls clobber R1-R5 and set R0.
			nargs := helperArgCount(HelperID(insn.Imm))
			for r := R1; r < R1+Register(nargs); r++ {
				if !m.has(r) {
					return verr(pc, "helper %v needs initialized r%d", HelperID(insn.Imm), r)
				}
			}
			out = out.set(R0)
			for r := R1; r <= R5; r++ {
				out &^= 1 << r
			}
		case OpExit:
			if !m.has(R0) {
				return verr(pc, "exit with uninitialized r0")
			}
			continue
		default:
			if insn.Op.writesDst() {
				out = out.set(insn.Dst)
			}
		}

		if insn.Op == OpJa {
			work = append(work, edge{pc + 1 + int(insn.Off), out})
		} else if insn.Op.isConditional() {
			work = append(work, edge{pc + 1, out}, edge{pc + 1 + int(insn.Off), out})
		} else {
			work = append(work, edge{pc + 1, out})
		}
	}
	_ = unseen
	return nil
}

// helperArgCount returns how many argument registers a helper consumes.
func helperArgCount(h HelperID) int {
	switch h {
	case HelperKtimeGetNs, HelperGetSmpProcessorID:
		return 0
	case HelperMapLookupElem, HelperMapDeleteElem:
		return 2
	case HelperRedirect:
		return 2
	case HelperMapUpdateElem:
		return 4
	case HelperMsgRedirectMap, HelperFibLookup:
		return 4
	default:
		return 5
	}
}

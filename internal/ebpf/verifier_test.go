package ebpf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func mustReject(t *testing.T, k *Kernel, p *Program, substr string) {
	t.Helper()
	_, err := k.Load(p)
	if err == nil {
		t.Fatalf("verifier accepted bad program %q", p.Name)
	}
	if !errors.Is(err, ErrVerifier) {
		t.Fatalf("want ErrVerifier, got %v", err)
	}
	if substr != "" && !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestVerifierRejectsEmptyProgram(t *testing.T) {
	mustReject(t, NewKernel(), retProg(), "empty")
}

func TestVerifierRejectsOversizedProgram(t *testing.T) {
	insns := make([]Insn, MaxProgInsns+1)
	for i := range insns {
		insns[i] = Mov64Imm(R0, 0)
	}
	insns[len(insns)-1] = Exit()
	mustReject(t, NewKernel(), retProg(insns...), "too large")
}

func TestVerifierRejectsMissingExit(t *testing.T) {
	mustReject(t, NewKernel(), retProg(Mov64Imm(R0, 1)), "falls off")
}

func TestVerifierRejectsJumpOutOfRange(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Mov64Imm(R0, 0),
		Insn{Op: OpJa, Off: 100},
		Exit(),
	), "jump target")
	mustReject(t, NewKernel(), retProg(
		Mov64Imm(R0, 0),
		Insn{Op: OpJa, Off: -100},
		Exit(),
	), "jump target")
}

func TestVerifierRejectsUninitializedRead(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Mov64Reg(R0, R5), // r5 never written
		Exit(),
	), "uninitialized register r5")
}

func TestVerifierRejectsUninitializedR0AtExit(t *testing.T) {
	mustReject(t, NewKernel(), retProg(Exit()), "uninitialized r0")
}

func TestVerifierRejectsWriteToR10(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Mov64Imm(R10, 0),
		Mov64Imm(R0, 0),
		Exit(),
	), "frame pointer")
}

func TestVerifierRejectsDivByZeroImmediate(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Mov64Imm(R0, 1),
		Insn{Op: OpDivImm, Dst: R0, Imm: 0},
		Exit(),
	), "division by zero")
}

func TestVerifierRejectsUnknownHelper(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Call(HelperID(9999)),
		Exit(),
	), "unknown helper")
}

func TestVerifierRejectsUnknownMapFD(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		LoadMapFD(R1, 77),
		Mov64Imm(R0, 0),
		Exit(),
	), "unknown map")
}

func TestVerifierRejectsBadRegister(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Insn{Op: OpMovImm, Dst: Register(14)},
		Exit(),
	), "bad register")
}

func TestVerifierRejectsBadAccessSize(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Mov64Imm(R0, 0),
		Insn{Op: OpLoad, Dst: R0, Src: R10, Off: -8, Size: 3},
		Exit(),
	), "bad access size")
}

func TestVerifierRejectsClobberedHelperArgs(t *testing.T) {
	// R1-R5 are dead after a call; reading R3 afterwards must fail.
	k := NewKernel()
	mustReject(t, k, retProg(
		Call(HelperKtimeGetNs),
		Mov64Reg(R0, R3),
		Exit(),
	), "uninitialized register r3")
}

func TestVerifierRejectsUninitializedHelperArg(t *testing.T) {
	k := NewKernel()
	m, err := k.CreateMap(MapSpec{Name: "m", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	// map_lookup_elem needs r1 (map) and r2 (key ptr); r2 missing.
	mustReject(t, k, retProg(
		LoadMapFD(R1, m.FD()),
		Call(HelperMapLookupElem),
		Exit(),
	), "needs initialized r2")
}

func TestVerifierAcceptsBranchJoinBothInitialized(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R2, 1),
		JeqImm(R2, 1, 2),
		Mov64Imm(R3, 10), // path A inits r3
		Insn{Op: OpJa, Off: 1},
		Mov64Imm(R3, 20), // path B inits r3
		Mov64Reg(R0, R3), // join: r3 initialized on both paths
		Exit(),
	)
	if _, err := k.Load(p); err != nil {
		t.Fatalf("join-point program should verify: %v", err)
	}
}

func TestVerifierRejectsBranchJoinPartialInit(t *testing.T) {
	mustReject(t, NewKernel(), retProg(
		Mov64Imm(R2, 1),
		JeqImm(R2, 1, 1), // branch may skip the init
		Mov64Imm(R3, 10), // only fall-through inits r3
		Mov64Reg(R0, R3), // join: r3 not initialized on the branch path
		Exit(),
	), "uninitialized register r3")
}

func TestVerifierAcceptsR1AndR10AtEntry(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Reg(R0, R1), // ctx pointer is live at entry
		Mov64Reg(R2, R10),
		Insn{Op: OpAddReg, Dst: R0, Src: R2},
		Exit(),
	)
	if _, err := k.Load(p); err != nil {
		t.Fatalf("entry registers must be live: %v", err)
	}
}

func TestVerifierAcceptsBackwardJumpWithExitPath(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R0, 0),
		Mov64Imm(R2, 10),
		Add64Imm(R0, 1),
		Insn{Op: OpSubImm, Dst: R2, Imm: 1},
		Insn{Op: OpJneImm, Dst: R2, Imm: 0, Off: -3},
		Exit(),
	)
	if _, err := k.Load(p); err != nil {
		t.Fatalf("bounded loop should verify: %v", err)
	}
}

func TestVerifierDeadCodeAfterExitIgnored(t *testing.T) {
	// Unreachable garbage after exit must not block loading (it is never
	// reached, mirroring kernel behaviour for pruned paths)... except the
	// structural pass still validates registers. Use valid-but-dead code.
	k := NewKernel()
	p := retProg(
		Mov64Imm(R0, 1),
		Exit(),
		Mov64Imm(R0, 2),
		Exit(),
	)
	if _, err := k.Load(p); err != nil {
		t.Fatalf("dead code should not block load: %v", err)
	}
}

func TestCreateMapAssignsDistinctFDs(t *testing.T) {
	k := NewKernel()
	spec := MapSpec{Name: "a", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 1}
	a, err := k.CreateMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.CreateMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.FD() == b.FD() {
		t.Fatal("maps must get distinct fds")
	}
	if a.FD() < 3 {
		t.Fatal("fds 0-2 are reserved")
	}
}

// ---------------------------------------------------------------------------
// Fuzzing: whatever the verifier accepts must run to an outcome.

const (
	fuzzArrayFD = 3
	fuzzHashFD  = 4
)

// newFuzzKernel returns a kernel with the standard fuzz maps: an array map
// at fuzzArrayFD and a hash map at fuzzHashFD, both pre-populated.
func newFuzzKernel(t testing.TB) *Kernel {
	t.Helper()
	k := NewKernel()
	array, err := k.CreateMap(MapSpec{Name: "fuzz_array", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := k.CreateMap(MapSpec{Name: "fuzz_hash", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if array.FD() != fuzzArrayFD || hash.FD() != fuzzHashFD {
		t.Fatalf("fuzz map fds %d,%d; want %d,%d", array.FD(), hash.FD(), fuzzArrayFD, fuzzHashFD)
	}
	for i := 0; i < 8; i++ {
		if err := array.Update(U32Key(uint32(i)), u64Value(uint64(i)*0x0101)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := hash.Update(U32Key(uint32(i)), u64Value(uint64(i)+7)); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

var fuzzALUOps = []Op{
	OpAddReg, OpAddImm, OpSubReg, OpSubImm, OpMulReg, OpMulImm,
	OpDivReg, OpDivImm, OpModReg, OpModImm,
	OpAndReg, OpAndImm, OpOrReg, OpOrImm, OpXorReg, OpXorImm,
	OpLshReg, OpLshImm, OpRshReg, OpRshImm, OpArshReg, OpArshImm,
	OpNeg, OpMovReg, OpMovImm,
}

var fuzzJumpOps = []Op{
	OpJa, OpJeqReg, OpJeqImm, OpJneReg, OpJneImm, OpJgtReg, OpJgtImm,
	OpJgeReg, OpJgeImm, OpJltReg, OpJltImm, OpJleReg, OpJleImm,
	OpJsgtReg, OpJsgtImm,
}

var fuzzSizes = []Size{B, H, W, DW}

// genParityProgram turns fuzz bytes into a structured program: a prologue
// saving the ctx and packet bounds and initializing r0–r5, then a sequence
// of "units" (ALU ops, stack and packet accesses, map helper blocks,
// jumps), then exit. Jumps land only on unit boundaries, where the
// register-init state is uniform, so generated programs pass the verifier
// instead of being rejected for reading a helper-clobbered register.
func genParityProgram(seed []byte) *Program {
	var insns []Insn
	var units []int     // start pc of each unit
	var jumps []int     // insn index of each jump needing fixup
	var jumpUnit []int  // unit ordinal of each jump
	var jumpAhead []int // how many units forward each jump wants to go

	// Prologue: R6=ctx, R7=data, R8=data_end, r0..r5 = deterministic values.
	insns = append(insns,
		Mov64Reg(R6, R1),
		LoadMem(R7, R6, 0, DW),
		LoadMem(R8, R6, 8, DW),
	)
	for r := Register(0); r <= R5; r++ {
		insns = append(insns, Mov64Imm(r, int64(r)*0x9E37+1))
	}

	at := 0
	nextByte := func() byte {
		if at >= len(seed) {
			return 0
		}
		b := seed[at]
		at++
		return b
	}
	reinit := func() {
		for r := R1; r <= R5; r++ {
			insns = append(insns, Mov64Imm(r, int64(r)*31))
		}
	}

	nUnits := len(seed) / 3
	if nUnits > 80 {
		nUnits = 80
	}
	for u := 0; u < nUnits; u++ {
		units = append(units, len(insns))
		sel, a, b := nextByte(), nextByte(), nextByte()
		dst := Register(a) % 6
		src := Register(a>>4) % 6
		switch sel % 8 {
		case 0, 1, 2: // ALU
			op := fuzzALUOps[int(b)%len(fuzzALUOps)]
			imm := int64(int8(b)) | 1 // nonzero: keep div/mod-by-imm verifiable
			insns = append(insns, Insn{Op: op, Dst: dst, Src: src, Imm: imm})
		case 3: // stack store + load back
			size := fuzzSizes[int(b)%len(fuzzSizes)]
			off := int16(-(int(b)%500 + int(size)))
			insns = append(insns,
				StoreMem(R10, off, dst, size),
				LoadMem(src, R10, off, size),
			)
		case 4: // packet access; may fault out of bounds (parity either way)
			size := fuzzSizes[int(b)%len(fuzzSizes)]
			off := int16(int(b) % 40)
			if b&0x80 != 0 {
				insns = append(insns, StoreMem(R7, off, dst, size))
			} else {
				insns = append(insns, LoadMem(dst, R7, off, size))
			}
		case 5: // jump to a later unit boundary
			op := fuzzJumpOps[int(b)%len(fuzzJumpOps)]
			in := Insn{Op: op, Dst: dst, Src: src, Imm: int64(int8(b))}
			jumps = append(jumps, len(insns))
			jumpUnit = append(jumpUnit, u)
			jumpAhead = append(jumpAhead, 1+int(b>>5))
			insns = append(insns, in)
		case 6: // array map lookup + atomic add
			insns = append(insns,
				StoreImm(R10, -4, int64(b%10), W), // sometimes out of range → null
				LoadMapFD(R1, fuzzArrayFD),
				Mov64Reg(R2, R10),
				Add64Imm(R2, -4),
				Call(HelperMapLookupElem),
				JeqImm(R0, 0, 2),
				Mov64Imm(R2, int64(a)+1),
				AtomicAdd(R0, 0, R2, DW),
			)
			reinit()
		case 7: // hash map update or delete
			if b&1 == 0 {
				insns = append(insns,
					StoreImm(R10, -4, int64(b%6), W),
					StoreImm(R10, -16, int64(a)<<8|int64(b), DW),
					LoadMapFD(R1, fuzzHashFD),
					Mov64Reg(R2, R10),
					Add64Imm(R2, -4),
					Mov64Reg(R3, R10),
					Add64Imm(R3, -16),
					Mov64Imm(R4, 0),
					Call(HelperMapUpdateElem),
				)
			} else {
				insns = append(insns,
					StoreImm(R10, -4, int64(b%6), W),
					LoadMapFD(R1, fuzzHashFD),
					Mov64Reg(R2, R10),
					Add64Imm(R2, -4),
					Call(HelperMapDeleteElem),
				)
			}
			reinit()
		}
	}

	// Final unit: exit (R0 is always initialized after the prologue).
	units = append(units, len(insns))
	insns = append(insns, Exit())

	// Fix up jumps: forward-only, onto unit boundaries, clamped at the
	// exit. Forward-only control flow guarantees termination.
	for i, pc := range jumps {
		tu := jumpUnit[i] + jumpAhead[i]
		if tu >= len(units) {
			tu = len(units) - 1
		}
		insns[pc].Off = int16(units[tu] - pc - 1)
	}
	return &Program{Name: "fuzz_parity", Type: ProgTypeSKMsg, Insns: insns}
}

// FuzzVerifiedProgramsTerminate: arbitrary wire bytes that decode and pass
// the verifier must run to a verdict or a classified fault within the
// instruction budget — never panic, never overrun MaxRuntimeInsns, never
// resize the packet. The corpus starts from the structured generator's
// programs, so the fuzzer mutates from programs the verifier accepts.
func FuzzVerifiedProgramsTerminate(f *testing.F) {
	var progs [][]Insn
	for _, seed := range [][]byte{
		bytes.Repeat([]byte{0, 0x12, 0x34}, 30), // ALU
		bytes.Repeat([]byte{3, 0x21, 0x47}, 30), // stack traffic
		bytes.Repeat([]byte{4, 0x05, 0x83}, 30), // packet loads/stores
		bytes.Repeat([]byte{4, 0x05, 0xBF}, 30), // packet faults
		bytes.Repeat([]byte{5, 0x31, 0x62}, 30), // jump-heavy
		bytes.Repeat([]byte{6, 0x44, 0x09}, 30), // array map + atomics
		bytes.Repeat([]byte{7, 0x52, 0x06}, 30), // hash updates/deletes
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
			13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}, // mixed
		bytes.Repeat([]byte{2, 0x06, 0x07}, 30), // div/mod by register (may fault)
	} {
		progs = append(progs, genParityProgram(seed).Insns)
	}
	// Two helper faults the generator cannot reach: a fib_lookup params block
	// declared shorter than the helper reads, and a map handle forged by
	// arithmetic that names no map.
	progs = append(progs,
		[]Insn{Mov64Reg(R2, R10), Add64Imm(R2, -12), Mov64Imm(R3, 4), Mov64Imm(R4, 0), Call(HelperFibLookup), Exit()},
		[]Insn{Mov64Imm(R1, 0xEB9F), Lsh64Imm(R1, 48), {Op: OpOrImm, Dst: R1, Imm: 9},
			Mov64Reg(R2, R10), Add64Imm(R2, -4), Call(HelperMapLookupElem), Exit()})
	for _, insns := range progs {
		f.Add(fuzzWire(insns))
	}

	faults := []error{ErrOutOfBounds, ErrBudget, ErrDivByZero, ErrBadMapHandle, errPCOutOfRange}
	f.Fuzz(func(t *testing.T, wire []byte) {
		insns := fuzzInsns(wire)
		k := newFuzzKernel(t)
		lp, err := k.Load(&Program{Name: "fuzz_wire", Type: ProgTypeSKMsg, Insns: insns})
		if err != nil {
			if !errors.Is(err, ErrVerifier) {
				t.Fatalf("load failed outside the verifier: %v", err)
			}
			return
		}
		pkt := make([]byte, 32)
		for i := range pkt {
			pkt[i] = byte(i * 7)
		}
		res, err := k.Run(lp, pkt, 1, nil)
		if len(pkt) != 32 {
			t.Fatalf("packet resized to %d bytes", len(pkt))
		}
		if res.Insns < 1 || res.Insns > MaxRuntimeInsns {
			t.Fatalf("ran %d instructions, budget %d", res.Insns, MaxRuntimeInsns)
		}
		if err == nil {
			return
		}
		for _, f := range faults {
			if errors.Is(err, f) {
				if f == ErrBudget && res.Insns != MaxRuntimeInsns {
					t.Fatalf("ErrBudget after %d instructions, want %d", res.Insns, MaxRuntimeInsns)
				}
				return
			}
		}
		t.Fatalf("unclassified run error: %v", err)
	})
}

// fuzzWire encodes insns as FuzzVerifiedProgramsTerminate's input: an 8-byte
// slot per instruction holding the op and size index, the registers, the
// offset and the immediate's low 32 bits.
func fuzzWire(insns []Insn) []byte {
	wire := make([]byte, 0, 8*len(insns))
	for _, in := range insns {
		size := 0
		for i, s := range fuzzSizes {
			if s == in.Size {
				size = i
			}
		}
		wire = append(wire, byte(in.Op)|byte(size)<<6, byte(in.Dst)|byte(in.Src)<<4)
		wire = binary.LittleEndian.AppendUint16(wire, uint16(in.Off))
		wire = binary.LittleEndian.AppendUint32(wire, uint32(int32(in.Imm)))
	}
	return wire
}

// fuzzInsns decodes fuzzWire's slots, whatever their bytes, ignoring a
// trailing partial slot; unknown ops and registers are the verifier's to refuse.
func fuzzInsns(wire []byte) []Insn {
	insns := make([]Insn, 0, len(wire)/8)
	for ; len(wire) >= 8; wire = wire[8:] {
		insns = append(insns, Insn{
			Op:   Op(wire[0] & 0x3f),
			Size: fuzzSizes[wire[0]>>6],
			Dst:  Register(wire[1] & 0xf),
			Src:  Register(wire[1] >> 4),
			Off:  int16(binary.LittleEndian.Uint16(wire[2:])),
			Imm:  int64(int32(binary.LittleEndian.Uint32(wire[4:]))),
		})
	}
	return insns
}

// TestVerifierNamesEachHelperArity: each helper's arguments are the kernel
// prototype's. A call with every argument register but the last initialized
// is refused naming the helper and that register; the zero-argument helpers
// load with nothing set.
func TestVerifierNamesEachHelperArity(t *testing.T) {
	for _, c := range []struct {
		h    HelperID
		name string
		args Register
	}{
		{HelperMapLookupElem, "bpf_map_lookup_elem", 2},
		{HelperMapUpdateElem, "bpf_map_update_elem", 4},
		{HelperMapDeleteElem, "bpf_map_delete_elem", 2},
		{HelperRedirect, "bpf_redirect", 2},
		{HelperMsgRedirectMap, "bpf_msg_redirect_map", 4},
		{HelperFibLookup, "bpf_fib_lookup", 4},
		{HelperKtimeGetNs, "bpf_ktime_get_ns", 0},
		{HelperGetSmpProcessorID, "bpf_get_smp_processor_id", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var insns []Insn
			for r := R2; r < c.args; r++ { // R1 holds the context at entry
				insns = append(insns, Mov64Imm(r, 0))
			}
			insns = append(insns, Call(c.h), Exit())
			k := NewKernel()
			if c.args == 0 {
				if _, err := k.Load(retProg(insns...)); err != nil {
					t.Fatalf("zero-argument helper refused: %v", err)
				}
				return
			}
			mustReject(t, k, retProg(insns...), fmt.Sprintf("helper %s needs initialized r%d", c.name, c.args))
		})
	}
}

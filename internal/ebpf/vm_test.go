package ebpf

import (
	"errors"
	"testing"
	"unsafe"
)

// loadAndRun is a test convenience: load prog in k and run over data.
func loadAndRun(t *testing.T, k *Kernel, p *Program, data []byte) (Result, error) {
	t.Helper()
	lp, err := k.Load(p)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return k.Run(lp, data, 0, nil)
}

func retProg(insns ...Insn) *Program {
	return &Program{Name: "test", Type: ProgTypeXDP, Insns: insns}
}

func TestVMMovAndExit(t *testing.T) {
	k := NewKernel()
	res, err := loadAndRun(t, k, retProg(Mov64Imm(R0, 42), Exit()), nil)
	if err != nil || res.Ret != 42 {
		t.Fatalf("got %d, %v; want 42", res.Ret, err)
	}
}

func TestVMArithmetic(t *testing.T) {
	cases := []struct {
		name string
		body []Insn
		want int64
	}{
		{"add", []Insn{Mov64Imm(R0, 40), Add64Imm(R0, 2)}, 42},
		{"add-reg", []Insn{Mov64Imm(R0, 40), Mov64Imm(R1, 2), Insn{Op: OpAddReg, Dst: R0, Src: R1}}, 42},
		{"sub", []Insn{Mov64Imm(R0, 50), Insn{Op: OpSubImm, Dst: R0, Imm: 8}}, 42},
		{"mul", []Insn{Mov64Imm(R0, 21), Insn{Op: OpMulImm, Dst: R0, Imm: 2}}, 42},
		{"div", []Insn{Mov64Imm(R0, 84), {Op: OpDivImm, Dst: R0, Imm: 2}}, 42},
		{"mod", []Insn{Mov64Imm(R0, 142), {Op: OpModImm, Dst: R0, Imm: 100}}, 42},
		{"and", []Insn{Mov64Imm(R0, 0xff), Insn{Op: OpAndImm, Dst: R0, Imm: 0x2a}}, 42},
		{"or", []Insn{Mov64Imm(R0, 0x20), {Op: OpOrImm, Dst: R0, Imm: 0x0a}}, 42},
		{"xor", []Insn{Mov64Imm(R0, 0x6b), {Op: OpXorImm, Dst: R0, Imm: 0x41}}, 42},
		{"lsh", []Insn{Mov64Imm(R0, 21), Lsh64Imm(R0, 1)}, 42},
		{"rsh", []Insn{Mov64Imm(R0, 84), Insn{Op: OpRshImm, Dst: R0, Imm: 1}}, 42},
		{"arsh", []Insn{Mov64Imm(R0, -84), {Op: OpArshImm, Dst: R0, Imm: 1}}, -42},
		{"neg", []Insn{Mov64Imm(R0, -42), {Op: OpNeg, Dst: R0}}, 42},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			res, err := loadAndRun(t, k, retProg(append(c.body, Exit())...), nil)
			if err != nil || res.Ret != c.want {
				t.Fatalf("got %d, %v; want %d", res.Ret, err, c.want)
			}
		})
	}
}

func TestVMConditionalJumps(t *testing.T) {
	// if r1(ctx ptr) != 0 then 1 else 2 — via a jump over an assignment.
	k := NewKernel()
	p := retProg(
		Mov64Imm(R0, 1),
		Mov64Imm(R2, 10),
		Insn{Op: OpJgtImm, Dst: R2, Imm: 5, Off: 1}, // skip next insn
		Mov64Imm(R0, 2),
		Exit(),
	)
	res, err := loadAndRun(t, k, p, nil)
	if err != nil || res.Ret != 1 {
		t.Fatalf("taken branch: got %d, %v", res.Ret, err)
	}

	p2 := retProg(
		Mov64Imm(R0, 1),
		Mov64Imm(R2, 3),
		Insn{Op: OpJgtImm, Dst: R2, Imm: 5, Off: 1},
		Mov64Imm(R0, 2),
		Exit(),
	)
	res, err = loadAndRun(t, NewKernel(), p2, nil)
	if err != nil || res.Ret != 2 {
		t.Fatalf("fall-through branch: got %d, %v", res.Ret, err)
	}
}

func TestVMBoundedLoop(t *testing.T) {
	// r0 = sum(1..10) using a backward jump (verifier allows; runtime
	// budget bounds it).
	k := NewKernel()
	p := retProg(
		Mov64Imm(R0, 0),
		Mov64Imm(R2, 10),
		// loop: r0 += r2; r2 -= 1; if r2 != 0 goto loop
		Insn{Op: OpAddReg, Dst: R0, Src: R2},
		Insn{Op: OpSubImm, Dst: R2, Imm: 1},
		Insn{Op: OpJneImm, Dst: R2, Imm: 0, Off: -3},
		Exit(),
	)
	res, err := loadAndRun(t, k, p, nil)
	if err != nil || res.Ret != 55 {
		t.Fatalf("got %d, %v; want 55", res.Ret, err)
	}
}

func TestVMInfiniteLoopHitsBudget(t *testing.T) {
	k := NewKernel()
	// JeqImm always takes the backward branch at runtime, but the
	// verifier sees a reachable exit on the fall-through path.
	p := retProg(
		Mov64Imm(R0, 0),
		JeqImm(R0, 0, -2), // target = pc+1-2 = 0: spins forever
		Exit(),
	)
	_, err := loadAndRun(t, k, p, nil)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestVMBudgetAndFaultCounts pins where a run stops and what it reports,
// as numbers: the budget fires at exactly MaxRuntimeInsns — a loop one
// instruction under it completes — and every fault class carries its
// sentinel and the count of instructions up to and including the faulting
// one. EngineStats().Insns, the fast paths' countPath and the parity fuzz
// all rest on these counts.
func TestVMBudgetAndFaultCounts(t *testing.T) {
	loop := func(n int64) *Program { // 2n+3 instructions when it completes
		return retProg(
			Mov64Imm(R1, n),
			Insn{Op: OpSubImm, Dst: R1, Imm: 1},
			Insn{Op: OpJneImm, Dst: R1, Imm: 0, Off: -2},
			Mov64Imm(R0, 7),
			Exit(),
		)
	}
	cases := []struct {
		name      string
		p         *Program
		wantErr   error
		wantInsns int
		wantRet   int64
	}{
		{"loop of 4", loop(4), nil, 11, 7},
		{"loop one instruction under the budget", loop(524286), nil, 1048575, 7},
		{"loop one instruction over the budget", loop(524287), ErrBudget, 1048576, 0},
		{"loop far over the budget", loop(1 << 20), ErrBudget, 1048576, 0},
		{"stack load out of bounds", retProg(
			LoadMem(R0, R10, -(StackSize+8), DW),
			Exit(),
		), ErrOutOfBounds, 1, 0},
		{"packet store beyond the frame", retProg(
			LoadMem(R2, R1, 0, DW),
			StoreImm(R2, 100, 1, B),
			Mov64Imm(R0, 0),
			Exit(),
		), ErrOutOfBounds, 2, 0},
		{"divide by a zero register", retProg(
			Mov64Imm(R1, 0),
			Mov64Imm(R0, 9),
			Insn{Op: OpDivReg, Dst: R0, Src: R1},
			Exit(),
		), ErrDivByZero, 3, 0},
		{"helper on a non-handle register", retProg(
			Mov64Imm(R1, 5),
			Mov64Reg(R2, R10),
			Add64Imm(R2, -4),
			StoreImm(R10, -4, 0, W),
			Call(HelperMapLookupElem),
			Exit(),
		), ErrBadMapHandle, 5, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			res, err := loadAndRun(t, k, c.p, make([]byte, 16))
			if !errors.Is(err, c.wantErr) || res.Insns != c.wantInsns || res.Ret != c.wantRet {
				t.Fatalf("got ret %d after %d insns, %v; want ret %d after %d insns, %v",
					res.Ret, res.Insns, err, c.wantRet, c.wantInsns, c.wantErr)
			}
			if es, want := k.EngineStats(), (EngineStats{InterpRuns: 1, Insns: uint64(c.wantInsns), Loaded: 1}); es != want {
				t.Fatalf("engine stats %+v, want %+v", es, want)
			}
		})
	}
}

func TestVMDivByZeroRegister(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R0, 10),
		Mov64Imm(R2, 0),
		Insn{Op: OpDivReg, Dst: R0, Src: R2},
		Exit(),
	)
	_, err := loadAndRun(t, k, p, nil)
	if !errors.Is(err, ErrDivByZero) {
		t.Fatalf("want ErrDivByZero, got %v", err)
	}
}

func TestVMStackReadWrite(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R2, 0x1234),
		StoreMem(R10, -8, R2, DW),
		LoadMem(R0, R10, -8, DW),
		Exit(),
	)
	res, err := loadAndRun(t, k, p, nil)
	if err != nil || res.Ret != 0x1234 {
		t.Fatalf("got %#x, %v", res.Ret, err)
	}
}

func TestVMStackOverflowCaught(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R2, 1),
		StoreMem(R10, -(StackSize+8), R2, DW),
		Mov64Imm(R0, 0),
		Exit(),
	)
	_, err := loadAndRun(t, k, p, nil)
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
}

func TestVMStackOverrunAboveFP(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R2, 1),
		StoreMem(R10, 0, R2, DW), // at/above fp is out of the stack region
		Mov64Imm(R0, 0),
		Exit(),
	)
	if _, err := loadAndRun(t, k, p, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
}

func TestVMPacketAccessViaCtx(t *testing.T) {
	// Read first byte of the packet through the ctx data pointer, with a
	// proper bounds check against data_end.
	k := NewKernel()
	p := retProg(
		LoadMem(R2, R1, ctxOffData, DW),    // r2 = data
		LoadMem(R3, R1, ctxOffDataEnd, DW), // r3 = data_end
		Mov64Reg(R4, R2),
		Add64Imm(R4, 1),
		JgtReg(R4, R3, 2), // if data+1 > data_end: out of bounds -> ret 0
		LoadMem(R0, R2, 0, B),
		Exit(),
		Mov64Imm(R0, 0),
		Exit(),
	)
	res, err := loadAndRun(t, k, p, []byte{0x7f, 0x02})
	if err != nil || res.Ret != 0x7f {
		t.Fatalf("got %#x, %v; want 0x7f", res.Ret, err)
	}
	// empty packet takes the bounds-check branch
	res, err = loadAndRun(t, NewKernel(), p, nil)
	if err != nil || res.Ret != 0 {
		t.Fatalf("empty packet: got %d, %v; want 0", res.Ret, err)
	}
}

func TestVMPacketOutOfBoundsRead(t *testing.T) {
	k := NewKernel()
	p := retProg(
		LoadMem(R2, R1, ctxOffData, DW),
		LoadMem(R0, R2, 100, DW), // way past a 2-byte packet
		Exit(),
	)
	if _, err := loadAndRun(t, k, p, []byte{1, 2}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
}

func TestVMCtxWritable(t *testing.T) {
	// TC programs may write the mark field.
	k := NewKernel()
	p := &Program{Name: "mark", Type: ProgTypeTC, Insns: []Insn{
		StoreImm(R1, ctxOffMark, 7, W),
		LoadMem(R0, R1, ctxOffMark, W),
		Exit(),
	}}
	lp, err := k.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(lp, nil, 0, nil)
	if err != nil || res.Ret != 7 {
		t.Fatalf("got %d, %v", res.Ret, err)
	}
}

func TestVMIfindexInCtx(t *testing.T) {
	k := NewKernel()
	p := retProg(
		LoadMem(R0, R1, ctxOffIfindex, W),
		Exit(),
	)
	lp, err := k.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(lp, nil, 17, nil)
	if err != nil || res.Ret != 17 {
		t.Fatalf("ifindex: got %d, %v; want 17", res.Ret, err)
	}
}

func TestVMAtomicAdd(t *testing.T) {
	k := NewKernel()
	p := retProg(
		Mov64Imm(R2, 5),
		StoreMem(R10, -8, R2, DW),
		Mov64Imm(R3, 37),
		AtomicAdd(R10, -8, R3, DW),
		LoadMem(R0, R10, -8, DW),
		Exit(),
	)
	res, err := loadAndRun(t, k, p, nil)
	if err != nil || res.Ret != 42 {
		t.Fatalf("got %d, %v; want 42", res.Ret, err)
	}
}

func TestKernelStatsAccumulate(t *testing.T) {
	k := NewKernel()
	lp, err := k.Load(retProg(Mov64Imm(R0, 0), Exit()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := k.Run(lp, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if es, want := k.EngineStats(), (EngineStats{InterpRuns: 3, Insns: 6, Loaded: 1}); es != want {
		t.Fatalf("engine stats %+v, want %+v", es, want)
	}
}

// atomicAddBytes adds in place at every operand size and alignment: aligned
// words and double words take the CPU atomic, the rest the striped lock, and
// both truncate the sum to the operand's width.
func TestAtomicAddBytesSizesAndAlignments(t *testing.T) {
	cases := []struct {
		name       string
		off        int
		size       Size
		start, add uint64
		want       uint64
	}{
		{"dword-aligned", 8, DW, 1 << 40, 2, 1<<40 + 2},
		{"word-aligned", 4, W, 0xffffffff, 3, 2},
		{"dword-unaligned", 1, DW, 5, 1 << 33, 1<<33 + 5},
		{"word-unaligned", 3, W, 0xfffffffe, 1, 0xffffffff},
		{"half", 2, H, 0xffff, 2, 1},
		{"byte", 5, B, 0xff, 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var words [3]uint64 // 8-byte aligned backing
			b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
			operand := b[c.off : c.off+int(c.size)]
			storeUint(operand, c.size, c.start)
			atomicAddBytes(operand, c.size, c.add)
			if got := loadUint(operand, c.size); got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
			for i := range b {
				if (i < c.off || i >= c.off+int(c.size)) && b[i] != 0 {
					t.Fatalf("byte %d outside the operand changed to %#x", i, b[i])
				}
			}
		})
	}
}

// With no per-run environment, helpers read the null one; a per-run
// environment is the one helpers see.
func TestRunEnv(t *testing.T) {
	k := NewKernel()
	lp, err := k.Load(retProg(Call(HelperKtimeGetNs), Exit()))
	if err != nil {
		t.Fatal(err)
	}
	now := func() int64 {
		t.Helper()
		res, err := k.Run(lp, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Ret
	}
	if got := now(); got != 0 {
		t.Fatalf("null environment ktime %d, want 0", got)
	}
	if res, err := k.Run(lp, nil, 0, &testEnv{now: 5}); err != nil || res.Ret != 5 {
		t.Fatalf("per-run environment ktime %d, %v; want 5", res.Ret, err)
	}
	if got := now(); got != 0 {
		t.Fatalf("a per-run environment leaked into the next run: ktime %d", got)
	}
}

// NextStripe deals every stripe but Run's stripe 0, round robin.
func TestNextStripeSkipsRunStripe(t *testing.T) {
	seen := make(map[uint32]int)
	for i := 0; i < 4*(Stripes-1); i++ {
		s := NextStripe()
		if s == 0 || s >= Stripes {
			t.Fatalf("dealt stripe %d, want 1..%d", s, Stripes-1)
		}
		seen[s]++
	}
	if len(seen) != Stripes-1 {
		t.Fatalf("dealt %d distinct stripes, want %d", len(seen), Stripes-1)
	}
	for s, n := range seen {
		if n != 4 {
			t.Fatalf("stripe %d dealt %d times in 4 rounds, want 4", s, n)
		}
	}
}

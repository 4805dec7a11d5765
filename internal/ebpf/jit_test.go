package ebpf

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Differential testing of the compiled engines against the interpreter: the
// interpreter is the oracle. Every comparison covers the full observable
// surface — verdict, error class and text, redirects, packet bytes, map
// contents, and the kernel's run/instruction accounting.

// parityEnv is one engine's half of a differential run: a kernel with the
// standard fuzz maps (an array map at fd 3, a hash map at fd 4), identically
// pre-populated.
type parityEnv struct {
	k     *Kernel
	array *Map
	hash  *Map
}

func newParityEnv(t testing.TB, jit bool) *parityEnv {
	t.Helper()
	k := NewKernel()
	k.SetJIT(jit)
	array, err := k.CreateMap(MapSpec{Name: "fuzz_array", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := k.CreateMap(MapSpec{Name: "fuzz_hash", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := array.Update(U32Key(uint32(i)), U64Value(uint64(i)*0x0101)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := hash.Update(U32Key(uint32(i)), U64Value(uint64(i)+7)); err != nil {
			t.Fatal(err)
		}
	}
	return &parityEnv{k: k, array: array, hash: hash}
}

const (
	fuzzArrayFD = 3
	fuzzHashFD  = 4
)

// dumpMap flattens a map into a deterministic key→value form.
func dumpMap(m *Map) map[string]string {
	out := make(map[string]string)
	m.Range(func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	})
	return out
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// compareRuns executes one program+input on both engines and fails the test
// on any observable divergence.
func compareRuns(t *testing.T, p *Program, pkt []byte, ifindex uint32) {
	t.Helper()
	ej := newParityEnv(t, true)
	ei := newParityEnv(t, false)

	lpJ, errJ := ej.k.Load(p)
	lpI, errI := ei.k.Load(p)
	if (errJ == nil) != (errI == nil) {
		t.Fatalf("load divergence: jit=%v interp=%v", errJ, errI)
	}
	if errJ != nil {
		return // rejected identically; nothing to run
	}
	if lpJ.Engine() == EngineInterp && lpJ.FallbackReason() == "" {
		t.Fatalf("program fell back to the interpreter with no reason")
	}

	pktJ := append([]byte(nil), pkt...)
	pktI := append([]byte(nil), pkt...)
	resJ, runErrJ := ej.k.Run(lpJ, pktJ, ifindex, nil)
	resI, runErrI := ei.k.Run(lpI, pktI, ifindex, nil)

	if !sameError(runErrJ, runErrI) {
		t.Fatalf("error divergence: jit=%v interp=%v", runErrJ, runErrI)
	}
	if resJ.Ret != resI.Ret || resJ.Insns != resI.Insns ||
		resJ.RedirectIf != resI.RedirectIf || resJ.HasIfRedir != resI.HasIfRedir ||
		resJ.FIBHit != resI.FIBHit {
		t.Fatalf("result divergence:\n jit    %+v\n interp %+v", resJ, resI)
	}
	if !bytes.Equal(pktJ, pktI) {
		t.Fatalf("packet divergence:\n jit    %x\n interp %x", pktJ, pktI)
	}
	for name, pair := range map[string][2]*Map{
		"array": {ej.array, ei.array},
		"hash":  {ej.hash, ei.hash},
	} {
		dj, di := dumpMap(pair[0]), dumpMap(pair[1])
		if len(dj) != len(di) {
			t.Fatalf("%s map size divergence: %d vs %d", name, len(dj), len(di))
		}
		for k, v := range dj {
			if di[k] != v {
				t.Fatalf("%s map divergence at key %x: jit %x interp %x", name, k, v, di[k])
			}
		}
	}
	runsJ, insnsJ := ej.k.Stats()
	runsI, insnsI := ei.k.Stats()
	if runsJ != runsI || insnsJ != insnsI {
		t.Fatalf("stats divergence: jit(%d,%d) interp(%d,%d)", runsJ, insnsJ, runsI, insnsI)
	}
	esJ, esI := ej.k.EngineStats(), ei.k.EngineStats()
	if lpJ.Engine() != EngineInterp && esJ.JITRuns != 1 {
		t.Fatalf("jit kernel did not attribute the run to the jit engine: %+v", esJ)
	}
	if esI.InterpRuns != 1 {
		t.Fatalf("interp kernel did not attribute the run to the interpreter: %+v", esI)
	}
}

// ---------------------------------------------------------------------------
// Fuzzed program generation.

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

// FuzzJITParity: generated programs must behave identically on the
// compiled engines and the interpreter — verdict, faults, packet bytes, map
// state, and instruction accounting.
func FuzzJITParity(f *testing.F) {
	// Seeds biased toward each unit kind (the selector is byte%8), plus
	// mixtures; the fuzzer mutates from here.
	f.Add(bytes.Repeat([]byte{0, 0x12, 0x34}, 30)) // ALU
	f.Add(bytes.Repeat([]byte{3, 0x21, 0x47}, 30)) // stack traffic
	f.Add(bytes.Repeat([]byte{4, 0x05, 0x83}, 30)) // packet loads/stores
	f.Add(bytes.Repeat([]byte{4, 0x05, 0xBF}, 30)) // packet faults
	f.Add(bytes.Repeat([]byte{5, 0x31, 0x62}, 30)) // jump-heavy
	f.Add(bytes.Repeat([]byte{6, 0x44, 0x09}, 30)) // array map + atomics
	f.Add(bytes.Repeat([]byte{7, 0x52, 0x06}, 30)) // hash updates/deletes
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
		13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}) // mixed
	f.Add(bytes.Repeat([]byte{2, 0x06, 0x07}, 30)) // div/mod by register (may fault)

	f.Fuzz(func(t *testing.T, seed []byte) {
		p := genParityProgram(seed)
		var pkt [32]byte
		for i := range pkt {
			pkt[i] = byte(i * 7)
			if i < len(seed) {
				pkt[i] ^= seed[i]
			}
		}
		ifindex := uint32(1)
		if len(seed) > 0 {
			ifindex = uint32(seed[0])
		}
		compareRuns(t, p, pkt[:], ifindex)
	})
}

// ---------------------------------------------------------------------------
// Deterministic parity suites.

// TestJITBudgetParity: the closure-chain backend charges instructions per
// block and must hand off to the interpreter near the budget so ErrBudget
// fires at exactly the same dynamic instruction. Loop totals are chosen to
// land under, at, and over MaxRuntimeInsns.
func TestJITBudgetParity(t *testing.T) {
	mkLoop := func(n int64) *Program {
		return &Program{Name: "loop", Type: ProgTypeXDP, Insns: []Insn{
			Mov64Imm(R1, n),
			Sub64Imm(R1, 1),
			JneImm(R1, 0, -2),
			Mov64Imm(R0, 7),
			Exit(),
		}}
	}
	for _, n := range []int64{
		4,
		(MaxRuntimeInsns - 3) / 2, // completes just under the budget
		(MaxRuntimeInsns-3)/2 + 1, // first total over the budget
		MaxRuntimeInsns,           // deep overrun
	} {
		p := mkLoop(n)
		kJ, kI := NewKernel(), NewKernel()
		kI.SetJIT(false)
		lpJ, err := kJ.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		lpI, err := kI.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		resJ, errJ := kJ.Run(lpJ, nil, 0, nil)
		resI, errI := kI.Run(lpI, nil, 0, nil)
		if !sameError(errJ, errI) || resJ.Insns != resI.Insns || resJ.Ret != resI.Ret {
			t.Fatalf("n=%d: jit (%+v, %v) vs interp (%+v, %v)", n, resJ, errJ, resI, errI)
		}
		if 2*n+3 > MaxRuntimeInsns {
			if !errors.Is(errJ, ErrBudget) || resJ.Insns != MaxRuntimeInsns {
				t.Fatalf("n=%d: want ErrBudget at %d insns, got %v at %d", n, MaxRuntimeInsns, errJ, resJ.Insns)
			}
		} else if errJ != nil {
			t.Fatalf("n=%d: unexpected error %v", n, errJ)
		}
	}
}

// TestJITFaultParity: every fault class must carry the same error and the
// same instruction count on both engines.
func TestJITFaultParity(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want error
	}{
		{
			name: "stack out of bounds",
			p: &Program{Name: "oob", Type: ProgTypeXDP, Insns: []Insn{
				LoadMem(R0, R10, -(StackSize + 8), DW),
				Exit(),
			}},
			want: ErrOutOfBounds,
		},
		{
			name: "packet store beyond frame",
			p: &Program{Name: "pkstore", Type: ProgTypeXDP, Insns: []Insn{
				LoadMem(R2, R1, 0, DW),
				StoreImm(R2, 100, 1, B),
				Mov64Imm(R0, 0),
				Exit(),
			}},
			want: ErrOutOfBounds,
		},
		{
			name: "divide by zero register",
			p: &Program{Name: "div0", Type: ProgTypeXDP, Insns: []Insn{
				Mov64Imm(R1, 0),
				Mov64Imm(R0, 9),
				{Op: OpDivReg, Dst: R0, Src: R1},
				Exit(),
			}},
			want: ErrDivByZero,
		},
		{
			name: "helper on a non-handle register",
			p: &Program{Name: "badmap", Type: ProgTypeXDP, Insns: []Insn{
				Mov64Imm(R1, 5),
				Mov64Reg(R2, R10),
				Add64Imm(R2, -4),
				StoreImm(R10, -4, 0, W),
				Call(HelperMapLookupElem),
				Exit(),
			}},
			want: ErrBadMapHandle,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kJ, kI := NewKernel(), NewKernel()
			kI.SetJIT(false)
			lpJ, err := kJ.Load(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			lpI, err := kI.Load(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			pktJ, pktI := make([]byte, 16), make([]byte, 16)
			resJ, errJ := kJ.Run(lpJ, pktJ, 0, nil)
			resI, errI := kI.Run(lpI, pktI, 0, nil)
			if !sameError(errJ, errI) || resJ.Insns != resI.Insns {
				t.Fatalf("jit (%d insns, %v) vs interp (%d insns, %v)", resJ.Insns, errJ, resI.Insns, errI)
			}
			if !errors.Is(errJ, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, errJ)
			}
		})
	}
}

// buildSProxyShape assembles the same SK_MSG program core.buildSProxyProgram
// emits (descriptor bounds check → filter → metric → sockmap redirect) so
// the ISA-level suite can exercise the shape-specialized fast path without
// importing the dataplane.
func buildSProxyShape(t testing.TB, k *Kernel) (*LoadedProgram, *Map, *Map, *Map) {
	t.Helper()
	sockmap, err := k.CreateMap(MapSpec{Name: "t_sock", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	filter, err := k.CreateMap(MapSpec{Name: "t_filter", Type: MapTypeHash, KeySize: 8, ValueSize: 1, MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := k.CreateMap(MapSpec{Name: "t_metrics", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("sproxy_shape", ProgTypeSKMsg)
	b.Ins(
		Mov64Reg(R6, R1),
		LoadMem(R7, R6, 0, DW),
		LoadMem(R2, R6, 8, DW),
		Mov64Reg(R3, R7),
		Add64Imm(R3, 16),
	)
	b.Jmp(JgtReg(R3, R2, 0), "drop")
	b.Ins(
		LoadMem(R8, R7, 0, W),
		LoadMem(R9, R6, 16, W),
		Mov64Reg(R2, R9),
		Lsh64Imm(R2, 32),
		Or64Reg(R2, R8),
		StoreMem(R10, -8, R2, DW),
		LoadMapFD(R1, filter.FD()),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -8),
		Call(HelperMapLookupElem),
	)
	b.Jmp(JeqImm(R0, 0, 0), "drop")
	b.Ins(
		StoreMem(R10, -12, R8, W),
		LoadMapFD(R1, metrics.FD()),
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
		LoadMapFD(R2, sockmap.FD()),
		Mov64Reg(R3, R8),
		Mov64Imm(R4, 0),
		Call(HelperMsgRedirectMap),
		Exit(),
	)
	b.Label("drop")
	b.Ins(Mov64Imm(R0, SKDrop), Exit())
	lp, err := k.Load(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	return lp, sockmap, filter, metrics
}

type paritySock struct{ id uint32 }

func (s *paritySock) DeliverDescriptor([]byte) error { return nil }
func (s *paritySock) SockID() uint32                 { return s.id }

// TestJITSProxyShapeParity drives the recognized SPROXY shape through every
// outcome — short frame, unauthorized, missing metrics slot, full redirect,
// missing socket, metadata-only fault — on both engines and compares the
// complete observable state.
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
		if jit && lp.Engine() != EngineFast {
			t.Fatalf("SPROXY shape not recognized: engine=%v reason=%q", lp.Engine(), lp.FallbackReason())
		}
		// src 1 → dst 2 authorized; dst 2 has a socket; dst 5 is
		// authorized from src 1 but has no metrics slot and no socket.
		key := func(src, dst uint32) []byte {
			k8 := make([]byte, 8)
			putLeU32(k8[0:4], dst)
			putLeU32(k8[4:8], src)
			return k8
		}
		if err := filter.Update(key(1, 2), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := filter.Update(key(1, 5), []byte{1}); err != nil {
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
		meta int // when >0, RunMeta with this frame length instead
		src  uint32
	}{
		{name: "short frame", pkt: desc(2)[:8], src: 1},
		{name: "unauthorized", pkt: desc(2), src: 3},
		{name: "full redirect", pkt: desc(2), src: 1},
		{name: "no metrics slot, no socket", pkt: desc(5), src: 1},
		{name: "metadata-only fault", meta: 16, src: 1},
		{name: "metadata-only short", meta: 8, src: 1},
	}
	ej, ei := mk(true), mk(false)
	for _, r := range runs {
		var resJ, resI Result
		var errJ, errI error
		if r.meta > 0 {
			resJ, errJ = ej.k.RunMeta(ej.lp, r.meta, r.src, nil)
			resI, errI = ei.k.RunMeta(ei.lp, r.meta, r.src, nil)
		} else {
			resJ, errJ = ej.k.RunCopy(ej.lp, r.pkt, r.src, nil)
			resI, errI = ei.k.RunCopy(ei.lp, r.pkt, r.src, nil)
		}
		if !sameError(errJ, errI) {
			t.Fatalf("%s: error divergence jit=%v interp=%v", r.name, errJ, errI)
		}
		if resJ.Ret != resI.Ret || resJ.Insns != resI.Insns {
			t.Fatalf("%s: result divergence jit=%+v interp=%+v", r.name, resJ, resI)
		}
		sj, si := resJ.RedirectSock, resI.RedirectSock
		if (sj == nil) != (si == nil) {
			t.Fatalf("%s: redirect divergence jit=%v interp=%v", r.name, sj, si)
		}
		if sj != nil && sj.SockID() != si.SockID() {
			t.Fatalf("%s: redirect socket divergence %d vs %d", r.name, sj.SockID(), si.SockID())
		}
	}
	dj, di := dumpMap(ej.metrics), dumpMap(ei.metrics)
	for k, v := range dj {
		if di[k] != v {
			t.Fatalf("metrics divergence at %x: jit %x interp %x", k, v, di[k])
		}
	}
	runsJ, insnsJ := ej.k.Stats()
	runsI, insnsI := ei.k.Stats()
	if runsJ != runsI || insnsJ != insnsI {
		t.Fatalf("stats divergence: jit(%d,%d) interp(%d,%d)", runsJ, insnsJ, runsI, insnsI)
	}
}

// TestJITFallbackFibLookup: bpf_fib_lookup is interpreter-only, so a
// program using it must load fine, report the fallback, and execute on the
// interpreter even with the JIT enabled — the production fallback path.
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
	if lp.Engine() != EngineInterp {
		t.Fatalf("want interpreter fallback, got %v", lp.Engine())
	}
	if lp.FallbackReason() == "" {
		t.Fatal("fallback without a reason")
	}
	if !k.JITEnabled() {
		t.Fatal("JIT should be enabled by default")
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

// TestJITEngineStats: engine attribution follows the SetJIT switch, and the
// compiled-programs gauge counts compiled loads.
func TestJITEngineStats(t *testing.T) {
	k := NewKernel()
	p := &Program{Name: "alu", Type: ProgTypeXDP, Insns: []Insn{
		Mov64Imm(R0, 41),
		Add64Imm(R0, 1),
		Exit(),
	}}
	lp, err := k.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Engine() != EngineJIT {
		t.Fatalf("plain ALU program should compile to the closure chain, got %v", lp.Engine())
	}
	if _, err := k.Run(lp, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	k.SetJIT(false)
	if _, err := k.Run(lp, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	k.SetJIT(true)
	if _, err := k.Run(lp, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	es := k.EngineStats()
	if es.JITRuns != 2 || es.InterpRuns != 1 {
		t.Fatalf("want 2 jit + 1 interp runs, got %+v", es)
	}
	if es.Loaded != 1 || es.Compiled != 1 {
		t.Fatalf("program gauges wrong: %+v", es)
	}
	runs, _ := k.Stats()
	if runs != 3 {
		t.Fatalf("total runs %d, want 3", runs)
	}
}

// TestJITConcurrentLoadRun races program loads, runs on both engines, map
// mutations, and SetJIT toggles on one kernel — the race-detector gate for
// the compiled dispatch path (make race).
func TestJITConcurrentLoadRun(t *testing.T) {
	k := NewKernel()
	lp, sockmap, filter, _ := buildSProxyShape(t, k)
	key := make([]byte, 8)
	putLeU32(key[0:4], 2)
	putLeU32(key[4:8], 1)
	if err := filter.Update(key, []byte{1}); err != nil {
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
		desc := make([]byte, 16)
		putLeU32(desc[0:4], 2)
		for i := 0; i < iters; i++ {
			if _, err := k.RunCopy(lp, desc, 1, nil); err != nil {
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

	runs, _ := k.Stats()
	if runs != 2*iters {
		t.Fatalf("run accounting lost updates: %d runs, want %d", runs, 2*iters)
	}
	es := k.EngineStats()
	if es.JITRuns+es.InterpRuns != 2*iters {
		t.Fatalf("engine accounting lost updates: %+v", es)
	}
}

package ebpf

import (
	"errors"
	"testing"
)

type testEnv struct {
	now int64
	fib map[uint32]uint32
}

func (e *testEnv) Now() int64 { return e.now }
func (e *testEnv) FIBLookup(daddr, _ uint32) (uint32, bool) {
	v, ok := e.fib[daddr]
	return v, ok
}

func TestKtimeHelper(t *testing.T) {
	k := NewKernel()
	p, err := k.Load(&Program{Name: "time", Type: ProgTypeXDP, Insns: []Insn{
		Call(HelperKtimeGetNs),
		Exit(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(p, nil, 0, &testEnv{now: 12345})
	if err != nil || res.Ret != 12345 {
		t.Fatalf("got %d, %v; want 12345", res.Ret, err)
	}
}

// sproxyTestProgram assembles the core of SPROXY: parse the 16-byte
// descriptor from the message, read the 4-byte NextFn field, look up the
// sockmap, and redirect.
func sproxyTestProgram(sockmapFD int) *Program {
	return &Program{Name: "sproxy", Type: ProgTypeSKMsg, Insns: []Insn{
		// r6 = data, r7 = data_end
		LoadMem(R6, R1, ctxOffData, DW),
		LoadMem(R7, R1, ctxOffDataEnd, DW),
		// bounds check: data + 16 <= data_end
		Mov64Reg(R2, R6),
		Add64Imm(R2, 16),
		JgtReg(R2, R7, 5), // too short -> drop (jump to SK_DROP tail)
		// r3 = descriptor.NextFn (u32 at offset 0)
		LoadMem(R3, R6, 0, W),
		LoadMapFD(R2, sockmapFD),
		Mov64Imm(R4, 0), // flags
		Call(HelperMsgRedirectMap),
		// r0 already holds SK_PASS/SK_DROP from the helper
		Exit(),
		Mov64Imm(R0, SKDrop),
		Exit(),
	}}
}

func TestSproxyProgramRedirectsDescriptor(t *testing.T) {
	k := NewKernel()
	sm, err := k.CreateMap(MapSpec{Name: "sock_map", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	target := &fakeSock{id: 7}
	if err := sm.UpdateSock(7, target); err != nil {
		t.Fatal(err)
	}
	prog, err := k.Load(sproxyTestProgram(sm.FD()))
	if err != nil {
		t.Fatal(err)
	}

	// descriptor with NextFn=7
	desc := make([]byte, 16)
	desc[0] = 7
	res, err := k.Run(prog, desc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != SKPass {
		t.Fatalf("verdict %d, want SK_PASS", res.Ret)
	}
	if res.RedirectSock == nil || res.RedirectSock.SockID() != 7 {
		t.Fatalf("redirect target wrong: %+v", res.RedirectSock)
	}
}

func TestSproxyProgramDropsUnknownTarget(t *testing.T) {
	k := NewKernel()
	sm, _ := k.CreateMap(MapSpec{Name: "sock_map", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 16})
	prog, err := k.Load(sproxyTestProgram(sm.FD()))
	if err != nil {
		t.Fatal(err)
	}
	desc := make([]byte, 16)
	desc[0] = 9 // not in sockmap
	res, err := k.Run(prog, desc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != SKDrop || res.RedirectSock != nil {
		t.Fatalf("unknown target must drop: ret=%d sock=%v", res.Ret, res.RedirectSock)
	}
}

func TestSproxyProgramDropsShortMessage(t *testing.T) {
	k := NewKernel()
	sm, _ := k.CreateMap(MapSpec{Name: "sock_map", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 16})
	prog, err := k.Load(sproxyTestProgram(sm.FD()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(prog, []byte{1, 2, 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != SKDrop {
		t.Fatalf("short message must drop, got %d", res.Ret)
	}
}

// metricsTestProgram increments a per-ifindex packet counter in an array
// map — the EPROXY monitor pattern (§3.3).
func metricsTestProgram(mapFD int) *Program {
	return &Program{Name: "metrics", Type: ProgTypeXDP, Insns: []Insn{
		// key = ifindex; store on stack
		LoadMem(R6, R1, ctxOffIfindex, W),
		StoreMem(R10, -4, R6, W),
		LoadMapFD(R1, mapFD),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Call(HelperMapLookupElem),
		JeqImm(R0, 0, 2), // null check, as the real verifier demands
		Mov64Imm(R2, 1),
		AtomicAdd(R0, 0, R2, DW),
		Mov64Imm(R0, XDPPass),
		Exit(),
	}}
}

func TestMetricsProgramCountsPerInterface(t *testing.T) {
	k := NewKernel()
	m, err := k.CreateMap(MapSpec{Name: "metrics", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Load(metricsTestProgram(m.FD()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := k.Run(prog, nil, 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(prog, nil, 4, nil)
	v, _ := m.Lookup(U32Key(3))
	if U64FromValue(v) != 5 {
		t.Fatalf("if 3 count = %d, want 5", U64FromValue(v))
	}
	v, _ = m.Lookup(U32Key(4))
	if U64FromValue(v) != 1 {
		t.Fatalf("if 4 count = %d, want 1", U64FromValue(v))
	}
	// out-of-range ifindex takes the null branch and still passes
	res, err := k.Run(prog, nil, 100, nil)
	if err != nil || res.Ret != XDPPass {
		t.Fatalf("null-check path: %d, %v", res.Ret, err)
	}
}

// fibTestProgram is the §3.5 eBPF forwarding program: fib_lookup on the
// packet's daddr (first 4 bytes), then bpf_redirect to the egress if.
func fibTestProgram() *Program {
	return &Program{Name: "xdp_fwd", Type: ProgTypeXDP, Insns: []Insn{
		// load daddr from packet
		LoadMem(R6, R1, ctxOffData, DW),
		LoadMem(R7, R1, ctxOffDataEnd, DW),
		Mov64Reg(R2, R6),
		Add64Imm(R2, 4),
		JgtReg(R2, R7, 14), // short packet -> pass
		LoadMem(R8, R6, 0, W),
		// build fib params on stack: ifindex_in, daddr, out
		LoadMem(R9, R1, ctxOffIfindex, W),
		StoreMem(R10, -12, R9, W),
		StoreMem(R10, -8, R8, W),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -12),
		Mov64Imm(R3, FibParamsSize),
		Mov64Imm(R4, 0),
		Call(HelperFibLookup),
		Insn{Op: OpJneImm, Dst: R0, Imm: 0, Off: 4}, // no route -> pass
		LoadMem(R1, R10, -4, W),                     // egress ifindex
		Mov64Imm(R2, 0),
		Call(HelperRedirect),
		Exit(),
		Mov64Imm(R0, XDPPass),
		Exit(),
	}}
}

func TestFibForwardingProgram(t *testing.T) {
	k := NewKernel()
	prog, err := k.Load(fibTestProgram())
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{fib: map[uint32]uint32{0x0a000001: 5}}

	// packet destined to 10.0.0.1 (LE u32 0x0a000001)
	pkt := []byte{0x01, 0x00, 0x00, 0x0a}
	res, err := k.Run(prog, pkt, 2, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != XDPRedirect || !res.HasIfRedir || res.RedirectIf != 5 {
		t.Fatalf("want redirect to if 5, got ret=%d redir=%v if=%d", res.Ret, res.HasIfRedir, res.RedirectIf)
	}

	// unroutable destination passes to the stack
	pkt2 := []byte{0x02, 0x00, 0x00, 0x0a}
	res, err = k.Run(prog, pkt2, 2, env)
	if err != nil || res.Ret != XDPPass {
		t.Fatalf("unroutable: got %d, %v; want pass", res.Ret, err)
	}

	// short packet passes
	res, err = k.Run(prog, []byte{1}, 2, env)
	if err != nil || res.Ret != XDPPass {
		t.Fatalf("short: got %d, %v; want pass", res.Ret, err)
	}
}

func TestMapUpdateDeleteHelpersFromProgram(t *testing.T) {
	k := NewKernel()
	m, _ := k.CreateMap(MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	// store key=1 on stack, value=99 on stack, call update; then delete.
	p := &Program{Name: "upd", Type: ProgTypeXDP, Insns: []Insn{
		StoreImm(R10, -4, 1, W),
		StoreImm(R10, -16, 99, DW),
		LoadMapFD(R1, m.FD()),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Mov64Reg(R3, R10),
		Add64Imm(R3, -16),
		Mov64Imm(R4, 0),
		Call(HelperMapUpdateElem),
		Mov64Imm(R0, XDPPass),
		Exit(),
	}}
	prog, err := k.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(prog, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	v, err := m.Lookup(U32Key(1))
	if err != nil || U64FromValue(v) != 99 {
		t.Fatalf("program update failed: %v %v", v, err)
	}

	del := &Program{Name: "del", Type: ProgTypeXDP, Insns: []Insn{
		StoreImm(R10, -4, 1, W),
		LoadMapFD(R1, m.FD()),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Call(HelperMapDeleteElem),
		Mov64Imm(R0, XDPPass),
		Exit(),
	}}
	dprog, err := k.Load(del)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(dprog, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup(U32Key(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("program delete failed")
	}
}

func TestProgramStringRoundup(t *testing.T) {
	// Smoke-test the disassembler for readability in logs.
	for _, in := range sproxyTestProgram(3).Insns {
		if in.String() == "" {
			t.Fatal("empty disassembly")
		}
	}
}

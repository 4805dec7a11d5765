package core

import (
	"errors"
	"testing"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/shm"
)

// The dataplane builders must hit the shape-specialized fast paths, and the
// fast paths must be observationally identical to the interpreter on the
// real SPROXY/EPROXY programs — verdicts, classified errors, kernel-side
// counters, and instruction accounting.

func TestProxyProgramsCompileToFastPath(t *testing.T) {
	k := ebpf.NewKernel()
	sp, err := NewSProxy(k, "fastchk")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEProxy(k, "fastchk")
	if err != nil {
		t.Fatal(err)
	}
	if e := sp.prog.Engine(); e != ebpf.EngineFast {
		t.Fatalf("SPROXY engine = %v (reason %q), want fast", e, sp.prog.FallbackReason())
	}
	if e := ep.prog.Engine(); e != ebpf.EngineFast {
		t.Fatalf("EPROXY engine = %v (reason %q), want fast", e, ep.prog.FallbackReason())
	}
	es := k.EngineStats()
	if es.Loaded != 2 || es.Compiled != 2 {
		t.Fatalf("program gauges: %+v, want 2 loaded / 2 compiled", es)
	}
}

// oneEngine builds a full chain (gateway-less) on a dedicated kernel with
// the JIT on or off and runs a fixed send scenario, returning everything an
// outside observer can see.
type engineOutcome struct {
	sendErrs  []string
	delivered []uint32 // socket IDs that received a descriptor, in order
	reqCount  uint64
	l3Pkts    uint64
	l3Bytes   uint64
	runs      uint64
	insns     uint64
}

func runEngineScenario(t *testing.T, jit bool) engineOutcome {
	t.Helper()
	k := ebpf.NewKernel()
	k.SetJIT(jit)
	sp, err := NewSProxy(k, "parity")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEProxy(k, "parity")
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewSocket(2, 16)
	if err := sp.RegisterSocket(s2); err != nil {
		t.Fatal(err)
	}
	if err := sp.Allow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := sp.Allow(1, 9); err != nil { // authorized but no socket
		t.Fatal(err)
	}

	var out engineOutcome
	record := func(err error) {
		switch {
		case err == nil:
			out.sendErrs = append(out.sendErrs, "")
		case errors.Is(err, ErrFiltered):
			out.sendErrs = append(out.sendErrs, "filtered")
		case errors.Is(err, ErrNoSuchFn):
			out.sendErrs = append(out.sendErrs, "nosuchfn")
		default:
			out.sendErrs = append(out.sendErrs, err.Error())
		}
	}
	record(sp.Send(1, shm.Descriptor{NextFn: 2, Buf: 7, Len: 64})) // full path
	record(sp.Send(3, shm.Descriptor{NextFn: 2}))                  // unauthorized
	record(sp.Send(1, shm.Descriptor{NextFn: 9}))                  // no socket
	record(sp.Send(1, shm.Descriptor{NextFn: 2, Buf: 8, Len: 32})) // second hit
	record(sp.Send(1, shm.Descriptor{NextFn: 2, Buf: 9}))
	record(sp.Send(1, shm.Descriptor{NextFn: 2, Buf: 10}))
	ep.OnIngress(128)
	ep.OnIngress(256)

	for s2.QueueLen() > 0 {
		out.delivered = append(out.delivered, (<-s2.Recv()).Buf)
	}
	out.reqCount = sp.RequestCount(2)
	out.l3Pkts, out.l3Bytes = ep.L3Stats()
	out.runs, out.insns = k.Stats()
	return out
}

// TestEngineParityOnRealChain runs the same traffic over the fast paths and
// the interpreter and requires identical outcomes, including the dynamic
// instruction counts the autoscaler-facing Stats expose.
func TestEngineParityOnRealChain(t *testing.T) {
	fast := runEngineScenario(t, true)
	oracle := runEngineScenario(t, false)
	if len(fast.sendErrs) != len(oracle.sendErrs) {
		t.Fatalf("send count divergence: %v vs %v", fast.sendErrs, oracle.sendErrs)
	}
	for i := range fast.sendErrs {
		if fast.sendErrs[i] != oracle.sendErrs[i] {
			t.Fatalf("send %d divergence: fast %q oracle %q", i, fast.sendErrs[i], oracle.sendErrs[i])
		}
	}
	if len(fast.delivered) != len(oracle.delivered) {
		t.Fatalf("delivery divergence: %v vs %v", fast.delivered, oracle.delivered)
	}
	for i := range fast.delivered {
		if fast.delivered[i] != oracle.delivered[i] {
			t.Fatalf("delivery %d divergence: %d vs %d", i, fast.delivered[i], oracle.delivered[i])
		}
	}
	if fast.reqCount != oracle.reqCount {
		t.Fatalf("L7 counter divergence: %d vs %d", fast.reqCount, oracle.reqCount)
	}
	if fast.l3Pkts != oracle.l3Pkts || fast.l3Bytes != oracle.l3Bytes {
		t.Fatalf("L3 counter divergence: (%d,%d) vs (%d,%d)",
			fast.l3Pkts, fast.l3Bytes, oracle.l3Pkts, oracle.l3Bytes)
	}
	if fast.runs != oracle.runs || fast.insns != oracle.insns {
		t.Fatalf("kernel stats divergence: (%d runs, %d insns) vs (%d, %d)",
			fast.runs, fast.insns, oracle.runs, oracle.insns)
	}
}

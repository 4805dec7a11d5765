package core

import (
	"errors"
	"fmt"
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
	if _, err := NewSProxy(k, "fastchk"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEProxy(k, "fastchk"); err != nil {
		t.Fatal(err)
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
	verdicts  []string // Kernel.RunDescriptor's verdict, socket and error
	delivered []uint32 // socket IDs that received a descriptor, in order
	reqCount  uint64
	l3Pkts    uint64
	l3Bytes   uint64
	maps      [3]map[string]string // Map.Range of filter, metrics and L3 map
	engine    ebpf.EngineStats
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
	// The entry point Send uses, called directly on a named stripe: pass,
	// unauthorized, no socket, and a destination past the metrics map.
	if err := sp.Allow(1, MaxInstances); err != nil {
		t.Fatal(err)
	}
	for i, d := range []shm.Descriptor{{NextFn: 2, Buf: 11}, {NextFn: 3}, {NextFn: 9}, {NextFn: MaxInstances}} {
		ret, sock, err := k.RunDescriptor(sp.prog, d, 1, uint32(i))
		id := -1
		if sock != nil {
			id = int(sock.SockID())
		}
		out.verdicts = append(out.verdicts, fmt.Sprintf("%d/%d/%v", ret, id, err))
	}

	for s2.QueueLen() > 0 {
		out.delivered = append(out.delivered, (<-s2.Recv()).Buf)
	}
	out.reqCount = sp.RequestCount(2)
	out.l3Pkts, out.l3Bytes = ep.L3Stats()
	for i, m := range []*ebpf.Map{sp.filter, sp.metrics, ep.l3map} {
		out.maps[i] = map[string]string{}
		m.Range(func(k, v []byte) bool {
			out.maps[i][string(k)] = string(v)
			return true
		})
	}
	out.engine = k.EngineStats()
	return out
}

// TestEngineParityOnRealChain runs the same traffic over the fast paths and
// the interpreter and requires identical outcomes, including the dynamic
// instruction counts EngineStats reports.
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
	if fmt.Sprint(fast.verdicts) != fmt.Sprint(oracle.verdicts) {
		t.Fatalf("RunDescriptor divergence: fast %v oracle %v", fast.verdicts, oracle.verdicts)
	}
	if fmt.Sprint(fast.maps) != fmt.Sprint(oracle.maps) {
		t.Fatalf("map state divergence:\n fast   %q\n oracle %q", fast.maps, oracle.maps)
	}
	// Each kernel ran every program on its own engine, the same instructions
	// on both, and both loaded the same two programs with a fast path.
	runs := oracle.engine.InterpRuns
	want := ebpf.EngineStats{JITRuns: runs, Insns: oracle.engine.Insns, Loaded: 2, Compiled: 2}
	if runs != 12 || fast.engine != want {
		t.Fatalf("fast kernel engine stats %+v, want %+v over 12 runs", fast.engine, want)
	}
	if want.JITRuns, want.InterpRuns = 0, runs; oracle.engine != want {
		t.Fatalf("interpreter kernel engine stats %+v, want %+v", oracle.engine, want)
	}
}

// TestSProxySendAllocations: a send to a registered, allowed socket allocates
// nothing on either engine. The descriptor reaches the kernel by value, so
// only escape analysis keeps it and its marshaled form on the stack; this is
// the test that fails when it stops doing so.
func TestSProxySendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race, and every drop is an allocation")
	}
	for _, jit := range []bool{true, false} {
		k := ebpf.NewKernel()
		k.SetJIT(jit)
		sp, err := NewSProxy(k, "allocs")
		if err != nil {
			t.Fatal(err)
		}
		sock := NewSocket(7, 16)
		if err := sp.RegisterSocket(sock); err != nil {
			t.Fatal(err)
		}
		if err := sp.Allow(1, 7); err != nil {
			t.Fatal(err)
		}
		d := shm.Descriptor{NextFn: 7, Buf: 1, Len: 100, Caller: 1}
		send := func() {
			if err := sp.Send(1, d); err != nil {
				t.Fatal(err)
			}
			<-sock.Recv()
		}
		if avg := testing.AllocsPerRun(1000, send); avg != 0 {
			t.Errorf("SetJIT(%v): %.2f allocations per SProxy.Send, want none", jit, avg)
		}
		if n := sp.RequestCount(7); n != 1001 {
			t.Errorf("SetJIT(%v): %d sends counted, want 1001", jit, n)
		}
		sock.Close()
		sp.Close()
	}
}

package cost

import (
	"testing"
	"testing/quick"
)

func TestAuditAdd(t *testing.T) {
	var a Audit
	a.Add(Audit{Copies: 1, CtxSwitches: 2, Interrupts: 3, ProtoTasks: 4, Serialize: 5, Deserialize: 6, BytesCopied: 7})
	a.Add(Audit{Copies: 1, CtxSwitches: 1, Interrupts: 1, ProtoTasks: 1, Serialize: 1, Deserialize: 1, BytesCopied: 1})
	want := Audit{Copies: 2, CtxSwitches: 3, Interrupts: 4, ProtoTasks: 5, Serialize: 6, Deserialize: 7, BytesCopied: 8}
	if a != want {
		t.Fatalf("Add mismatch: got %+v want %+v", a, want)
	}
}

func TestHopProfilesMatchDesignCalibration(t *testing.T) {
	cases := []struct {
		hop  Hop
		want Audit
	}{
		{HopExternalIn, Audit{Copies: 1, CtxSwitches: 1, Interrupts: 3, ProtoTasks: 1}},
		{HopCrossPod, Audit{Copies: 2, CtxSwitches: 2, Interrupts: 4, ProtoTasks: 2}},
		{HopIntraPod, Audit{Copies: 2, CtxSwitches: 2, Interrupts: 2, ProtoTasks: 1}},
		{HopSockmapRedirect, Audit{CtxSwitches: 2, Interrupts: 2}},
		{HopRingDelivery, Audit{}},
		{HopXDPRedirect, Audit{Interrupts: 1}},
	}
	for _, c := range cases {
		if got := c.hop.Profile(); got != c.want {
			t.Errorf("%v profile: got %+v want %+v", c.hop, got, c.want)
		}
	}
}

// TestKnativeStep4Composition checks the DESIGN.md §5 claim: the Table 1
// step-④ row (broker → function pod with sidecar) is the sum of a cross-pod
// and an intra-pod traversal.
func TestKnativeStep4Composition(t *testing.T) {
	var a Audit
	a.Add(HopCrossPod.Profile())
	a.Add(HopIntraPod.Profile())
	// serde attributed to endpoints: broker ser + sidecar deser+ser + user deser.
	a.Serialize += 2
	a.Deserialize += 2
	want := Audit{Copies: 4, CtxSwitches: 4, Interrupts: 6, ProtoTasks: 3, Serialize: 2, Deserialize: 2}
	if a != want {
		t.Fatalf("step ④ composition: got %+v want %+v", a, want)
	}
}

func TestModelCyclesMonotonicInOps(t *testing.T) {
	m := DefaultModel()
	base := Audit{Copies: 1, CtxSwitches: 1, Interrupts: 1, ProtoTasks: 1, BytesCopied: 100}
	more := base
	more.CtxSwitches++
	if m.Cycles(more) <= m.Cycles(base) {
		t.Fatal("adding a context switch must increase cycles")
	}
	bigger := base
	bigger.BytesCopied *= 10
	if m.Cycles(bigger) <= m.Cycles(base) {
		t.Fatal("more bytes must increase cycles")
	}
}

func TestModelCyclesNonNegative(t *testing.T) {
	m := DefaultModel()
	f := func(copies, ctx, intr, proto uint8, bytes uint16) bool {
		a := Audit{
			Copies: int(copies), CtxSwitches: int(ctx), Interrupts: int(intr),
			ProtoTasks: int(proto), BytesCopied: int(bytes),
		}
		return m.Cycles(a) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSockmapHopCheaperThanCrossPod(t *testing.T) {
	m := DefaultModel()
	for _, size := range []int{100, 1000, 10000} {
		if m.HopCycles(HopSockmapRedirect, size) >= m.HopCycles(HopCrossPod, size) {
			t.Errorf("size %d: sockmap redirect should be cheaper than a cross-pod traversal", size)
		}
	}
}

func TestXDPCheaperThanKernelPath(t *testing.T) {
	m := DefaultModel()
	if m.HopCycles(HopXDPRedirect, 1500) >= m.HopCycles(HopCrossPod, 1500) {
		t.Fatal("XDP redirect must beat the kernel-stack cross-pod path")
	}
}

func TestSecondsConversion(t *testing.T) {
	m := DefaultModel()
	if got := m.Seconds(m.HzPerCore); got != 1.0 {
		t.Fatalf("HzPerCore cycles should be 1 second, got %v", got)
	}
}

func TestHopString(t *testing.T) {
	if HopSockmapRedirect.String() != "sockmap-redirect" {
		t.Fatalf("unexpected name %q", HopSockmapRedirect.String())
	}
	if Hop(99).String() != "hop(99)" {
		t.Fatalf("unexpected fallback %q", Hop(99).String())
	}
}

func TestAuditString(t *testing.T) {
	a := Audit{Copies: 1, CtxSwitches: 2, Interrupts: 3, ProtoTasks: 4, Serialize: 5, Deserialize: 6}
	want := "copies=1 ctx=2 intr=3 proto=4 ser=5 deser=6"
	if a.String() != want {
		t.Fatalf("got %q want %q", a.String(), want)
	}
}

package sidecar

import "testing"

// nullBaseline approximates the Fig. 2 Null path: NGINX + kernel in/out,
// ~1M cycles at 2.2 GHz.
const nullBaseline = 1.0e6

func TestSidecarOverheadWithinPaperBand(t *testing.T) {
	for _, p := range []Profile{ProfileOf(QueueProxy), ProfileOf(Envoy), ProfileOf(OFWatchdog)} {
		total := nullBaseline + p.Cycles(100)
		factor := total / nullBaseline
		if factor < 3 || factor > 7 {
			t.Errorf("%s: overhead factor %.1f outside the paper's 3-7x band", p.Name, factor)
		}
	}
}

func TestSidecarOrdering(t *testing.T) {
	// Fig. 2: QP is the lightest sidecar, OFW the heaviest.
	qp, envoy, ofw := ProfileOf(QueueProxy), ProfileOf(Envoy), ProfileOf(OFWatchdog)
	if !(qp.Cycles(100) < envoy.Cycles(100) && envoy.Cycles(100) < ofw.Cycles(100)) {
		t.Fatalf("ordering broken: qp=%.0f envoy=%.0f ofw=%.0f",
			qp.Cycles(100), envoy.Cycles(100), ofw.Cycles(100))
	}
	if ProfileOf(Null).Cycles(100) != 0 {
		t.Fatal("Null sidecar must add zero cycles")
	}
}

func TestSidecarKernelShare(t *testing.T) {
	// §2: "the kernel stack for the sidecar consumes 50% of CPU cycles"
	// (of the sidecar path's added cost).
	for _, k := range []Kind{QueueProxy, Envoy, OFWatchdog} {
		p := ProfileOf(k)
		share := p.KernelCycles / p.Cycles(0)
		if share < 0.4 || share > 0.7 {
			t.Errorf("%s: kernel share %.2f outside [0.4,0.7]", p.Name, share)
		}
	}
}

func TestAllProfilesOrdered(t *testing.T) {
	all := All()
	if len(all) != 4 || all[0].Kind != Null || all[3].Kind != OFWatchdog {
		t.Fatalf("All() wrong: %+v", all)
	}
}

func TestPayloadDependentCycles(t *testing.T) {
	p := ProfileOf(Envoy)
	if p.Cycles(10000) <= p.Cycles(100) {
		t.Fatal("larger payloads must cost more")
	}
}

func TestKindString(t *testing.T) {
	if Null.String() != "Null" || QueueProxy.String() != "QP" || Kind(99).String() != "sidecar?" {
		t.Fatal("kind names wrong")
	}
}

package boutique

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/shm"
)

func TestTable3SequencesExact(t *testing.T) {
	cs := Chains()
	if len(cs) != 6 {
		t.Fatalf("%d chains, want 6", len(cs))
	}
	// spot-check the exact Table 3 rows
	if got := cs[0].Sequence; len(got) != 11 || got[0] != 1 || got[9] != 10 {
		t.Fatalf("Ch-1 sequence wrong: %v", got)
	}
	if got := cs[1].Sequence; len(got) != 1 || got[0] != Frontend {
		t.Fatalf("Ch-2 sequence wrong: %v", got)
	}
	if got := cs[5].Sequence; len(got) != 25 || got[1] != Checkout || got[18] != Email {
		t.Fatalf("Ch-6 sequence wrong: %v", got)
	}
	// every chain starts at the frontend
	for _, c := range cs {
		if c.Sequence[0] != Frontend {
			t.Fatalf("%s does not start at frontend", c.Index)
		}
		if c.Sequence[len(c.Sequence)-1] != Frontend {
			t.Fatalf("%s does not end at frontend", c.Index)
		}
	}
}

func TestWeightsMatchLocustDefault(t *testing.T) {
	w := Weights()
	want := []float64{1, 2, 10, 3, 2, 1}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("weights %v want %v", w, want)
		}
	}
}

func TestServiceNames(t *testing.T) {
	if ServiceName(Frontend) != "frontend" || ServiceName(Ad) != "ad" {
		t.Fatal("names wrong")
	}
	if ServiceName(0) != "svc-0" || ServiceName(11) != "svc-11" {
		t.Fatal("out-of-range names wrong")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	p := EncodeRequest(3, []byte("body"))
	ci, step, body, err := DecodeResponse(p)
	if err != nil || ci != 3 || step != 0 || string(body) != "body" {
		t.Fatalf("got %d %d %q %v", ci, step, body, err)
	}
	if _, _, _, err := DecodeResponse([]byte{1}); err == nil {
		t.Fatal("short payload must fail")
	}
}

func deployBoutique(t *testing.T, mode core.Mode) (*core.Chain, *core.Gateway) {
	t.Helper()
	kernel := ebpf.NewKernel()
	mgr := shm.NewManager()
	c, err := core.NewChain(kernel, mgr, Spec(SpecOptions{Mode: mode}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGateway(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.Close()
		c.Close()
		deadline := time.Now().Add(2 * time.Second)
		for c.Pool().InUse() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := c.Pool().LeakCheck(); err != nil {
			t.Error(err)
		}
	})
	return c, g
}

func TestAllChainsCompleteOnRealDataplane(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeEvent, core.ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			_, g := deployBoutique(t, mode)
			for ci, chain := range Chains() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				out, err := g.Invoke(ctx, "", EncodeRequest(ci, []byte("u1")))
				cancel()
				if err != nil {
					t.Fatalf("%s: %v", chain.Index, err)
				}
				_, step, body, err := DecodeResponse(out)
				if err != nil {
					t.Fatalf("%s: %v", chain.Index, err)
				}
				if step != len(chain.Sequence) {
					t.Fatalf("%s: finished at step %d of %d", chain.Index, step, len(chain.Sequence))
				}
				if string(body) != "u1" {
					t.Fatalf("%s: body corrupted: %q", chain.Index, body)
				}
			}
		})
	}
}

func TestBoutiqueZeroCopySingleAllocPerRequest(t *testing.T) {
	c, g := deployBoutique(t, core.ModeEvent)
	n := 5
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := g.Invoke(ctx, "", EncodeRequest(5, []byte("u"))); err != nil { // Ch-6, 24 hops
			t.Fatal(err)
		}
		cancel()
	}
	s := c.Pool().Stats()
	if int(s.Allocs) != n {
		t.Fatalf("allocs %d want %d — Ch-6's 24 hops must not copy", s.Allocs, n)
	}
	if s.InUse != 0 {
		t.Fatalf("leak: %d buffers in use", s.InUse)
	}
}

func TestBoutiqueConcurrentMixedChains(t *testing.T) {
	_, g := deployBoutique(t, core.ModeEvent)
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for i := 0; i < 60; i++ {
		ci := i % 6
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, err := g.Invoke(ctx, "", EncodeRequest(ci, []byte("x")))
			if err != nil {
				errs <- err
				return
			}
			if _, step, _, _ := DecodeResponse(out); step != len(Chains()[ci].Sequence) {
				errs <- context.DeadlineExceeded
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWrongServiceDetection(t *testing.T) {
	// inject a request claiming to be mid-sequence at the wrong service:
	// the frontend handler must reject step pointing at another service.
	_, g := deployBoutique(t, core.ModeEvent)
	bad := EncodeRequest(0, []byte("x"))
	bad[1] = 1 // step 1 of Ch-1 is currency, but ingress goes to frontend
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := g.Invoke(ctx, "", bad); err == nil {
		t.Fatal("mis-sequenced request must not complete")
	}
}

func TestSpecServiceTimes(t *testing.T) {
	s := Spec(SpecOptions{TimeScale: 1.0})
	var frontend *core.FunctionSpec
	for i := range s.Functions {
		if s.Functions[i].Name == "frontend" {
			frontend = &s.Functions[i]
		}
	}
	if frontend == nil || frontend.ServiceTime != time.Millisecond {
		t.Fatalf("frontend service time wrong: %+v", frontend)
	}
	s0 := Spec(SpecOptions{})
	if s0.Functions[0].ServiceTime != 0 {
		t.Fatal("TimeScale 0 must disable service-time sleeps")
	}
}

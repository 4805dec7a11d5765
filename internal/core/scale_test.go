package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestScaleUpAddsServingInstance(t *testing.T) {
	var runs instanceRuns
	spec := echoSpec()
	spec.Functions[0].Handler = runs.count(spec.Functions[0].Handler)
	c, g := testChain(t, ModeEvent, spec)
	inst, err := c.ScaleUp("echo")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Router().Instances("echo")) != 2 {
		t.Fatal("router must see the new instance")
	}
	// saturate so both instances serve
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Invoke(contextWithTimeout(t, 5*time.Second), "", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs.of(inst) == 0 {
		// acceptable under low contention, but the instance must at
		// least be routable: force a direct check via filter map
		if err := c.SProxy().Allow(GatewayID, inst.ID()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScaleUpUnknownFunction(t *testing.T) {
	c, _ := testChain(t, ModeEvent, echoSpec())
	if _, err := c.ScaleUp("ghost"); err == nil {
		t.Fatal("unknown function must fail")
	}
}

func TestScaleDownKeepsWarmInstance(t *testing.T) {
	c, g := testChain(t, ModeEvent, echoSpec())
	if err := c.ScaleDown("echo"); err == nil {
		t.Fatal("must refuse to scale below one instance")
	}
	if _, err := c.ScaleUp("echo"); err != nil {
		t.Fatal(err)
	}
	if err := c.ScaleDown("echo"); err != nil {
		t.Fatal(err)
	}
	if len(c.Router().Instances("echo")) != 1 {
		t.Fatal("scale down must remove one instance")
	}
	// chain still serves
	if out, err := g.Invoke(context.Background(), "", []byte("ok")); err != nil || string(out) != "OK" {
		t.Fatalf("post-scale-down invoke: %q, %v", out, err)
	}
}

func TestScaledInstanceRespectsSecurityDomain(t *testing.T) {
	// A scaled-up middle-function instance must receive authorization for
	// both its inbound and outbound edges.
	c, g := testChain(t, ModeEvent, seqSpec())
	if _, err := c.ScaleUp("f2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out, err := g.Invoke(contextWithTimeout(t, 2*time.Second), "", []byte("x"))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if string(out) != "x>f1>f2>f3" {
			t.Fatalf("iteration %d: %q", i, out)
		}
	}
	if n, errs := c.Errors(); n != 0 {
		t.Fatalf("dataplane errors after scale-up: %v", errs)
	}
}

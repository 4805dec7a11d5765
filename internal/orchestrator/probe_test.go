package orchestrator

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/core"
)

// TestProbeReportsCrashedInstance: the dataplane's circuit breaker ejects a
// crashing replica, and the kubelet's probe reports it — and only it — with
// its breaker open and its crashes counted. (Replacing it is the autoscaler's
// self-heal: TestSelfHealReplacesCircuitOpenInstance.)
func TestProbeReportsCrashedInstance(t *testing.T) {
	var badID atomic.Uint32
	spec := core.ChainSpec{
		Name: "fragile",
		Functions: []core.FunctionSpec{{
			Name:      "w",
			Instances: 2,
			Handler: func(ctx *core.Ctx) error {
				if ctx.Instance() == badID.Load() {
					panic("replica corrupted")
				}
				return nil
			},
		}},
		Routes: []core.RouteSpec{{From: "", To: []string{"w"}}},
		Health: core.HealthPolicy{ConsecutiveFailures: 2, OpenDuration: time.Minute},
	}
	cl := NewCluster(1)
	d, err := cl.Controller.DeployChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	bad := d.Chain.Router().Instances("w")[0]
	badID.Store(bad.ID())

	// healthy deployment probes healthy
	for _, pr := range d.Node.Kubelet.Probe(d) {
		if pr.CircuitOpen || pr.Crashes != 0 {
			t.Fatalf("fresh deployment probed unhealthy: %+v", pr)
		}
	}

	// crash the bad replica until its breaker opens
	for i := 0; i < 100 && !bad.CircuitOpen(); i++ {
		if _, err := d.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
			if !errors.Is(err, core.ErrHandlerPanic) {
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	if !bad.CircuitOpen() {
		t.Fatal("breaker never opened on the crashing replica")
	}

	// the probe surfaces the ejected replica
	unhealthy := 0
	for _, pr := range d.Node.Kubelet.Probe(d) {
		if pr.Instance == bad.ID() {
			if !pr.CircuitOpen || pr.Crashes == 0 {
				t.Fatalf("crashed replica probed %+v", pr)
			}
			unhealthy++
		} else if pr.CircuitOpen {
			t.Fatalf("healthy replica probed unhealthy: %+v", pr)
		}
	}
	if unhealthy != 1 {
		t.Fatalf("probe saw %d unhealthy instances, want 1", unhealthy)
	}

	// no stranded buffers
	deadline := time.Now().Add(2 * time.Second)
	for d.Chain.Pool().InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Chain.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

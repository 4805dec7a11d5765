package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/shm"
)

// allowedEdges reads back the filter rules a chain's transport enforces:
// SPROXY's filter map in ModeEvent, the ring transport's table in
// ModePolling.
func allowedEdges(t *testing.T, c *Chain) map[[2]uint32]bool {
	t.Helper()
	got := map[[2]uint32]bool{}
	switch tr := c.transport.(type) {
	case *SProxy:
		tr.filter.Range(func(k, _ []byte) bool {
			src, dst := binary.LittleEndian.Uint32(k[4:]), binary.LittleEndian.Uint32(k[:4])
			got[[2]uint32{src, dst}] = true
			return true
		})
	case *ringTransport:
		for key := range tr.tables.Load().allowed {
			got[[2]uint32{uint32(key >> 32), uint32(key)}] = true
		}
	default:
		t.Fatalf("unknown transport %T", tr)
	}
	return got
}

// TestChainWiresRouteClosure pins the filter rules NewChain installs while it
// wires its instances one at a time: exactly the (src, dst) edges the routes
// imply between the instances of their functions — the gateway as the
// source of an ingress route, a self-routed function's instances to each
// other and to themselves — plus every instance's reply edge to the gateway.
func TestChainWiresRouteClosure(t *testing.T) {
	fn := func(name string, instances int) FunctionSpec {
		return FunctionSpec{Name: name, Instances: instances, Handler: func(*Ctx) error { return nil }}
	}
	cases := []struct {
		name   string
		fns    []FunctionSpec
		routes []RouteSpec
	}{
		{
			name: "linear",
			fns:  []FunctionSpec{fn("a", 2), fn("b", 1), fn("c", 3)},
			routes: []RouteSpec{
				{From: "", To: []string{"a"}},
				{From: "a", To: []string{"b"}},
				{From: "b", To: []string{"c"}},
			},
		},
		{
			name: "fanout",
			fns:  []FunctionSpec{fn("head", 1), fn("x", 2), fn("y", 3), fn("tail", 2)},
			routes: []RouteSpec{
				{From: "", To: []string{"head"}},
				{From: "head", To: []string{"x", "y"}},
				{From: "x", To: []string{"tail"}},
				{From: "y", To: []string{"tail"}},
			},
		},
		{
			// tail is listed before its source, so it is wired first.
			name: "self-and-cycle",
			fns:  []FunctionSpec{fn("tail", 2), fn("loop", 3)},
			routes: []RouteSpec{
				{From: "", To: []string{"loop"}},
				{From: "loop", To: []string{"loop"}},
				{Topic: "/out", From: "loop", To: []string{"tail"}},
				{From: "tail", To: []string{"loop"}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bothModes(t, func(t *testing.T, mode Mode) {
				c, err := NewChain(ebpf.NewKernel(), shm.NewManager(), ChainSpec{
					Name: "wiring", Mode: mode, Functions: tc.fns, Routes: tc.routes,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)

				ids := func(fn string) []uint32 {
					if fn == "" {
						return []uint32{GatewayID}
					}
					var out []uint32
					for _, in := range c.Router().Instances(fn) {
						out = append(out, in.ID())
					}
					return out
				}
				want := map[[2]uint32]bool{}
				for _, r := range tc.routes {
					for _, to := range r.To {
						for _, src := range ids(r.From) {
							for _, dst := range ids(to) {
								want[[2]uint32{src, dst}] = true
							}
						}
					}
				}
				for _, in := range c.Instances() {
					want[[2]uint32{in.ID(), GatewayID}] = true
				}

				got := allowedEdges(t, c)
				var missing, extra []string
				for e := range want {
					if !got[e] {
						missing = append(missing, fmt.Sprintf("%d->%d", e[0], e[1]))
					}
				}
				for e := range got {
					if !want[e] {
						extra = append(extra, fmt.Sprintf("%d->%d", e[0], e[1]))
					}
				}
				sort.Strings(missing)
				sort.Strings(extra)
				if len(missing) > 0 || len(extra) > 0 {
					t.Fatalf("%d edges allowed, want %d: missing %v, extra %v", len(got), len(want), missing, extra)
				}
			})
		})
	}
}

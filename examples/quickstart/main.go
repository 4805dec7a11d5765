// Quickstart: deploy a two-function SPRIGHT chain on the in-process
// dataplane, invoke it programmatically, and show the zero-copy and
// metrics machinery at work.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	spright "github.com/spright-go/spright"
)

func main() {
	cluster := spright.NewCluster(1)

	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: "quickstart",
		Mode: spright.ModeEvent, // S-SPRIGHT: sockmap descriptor delivery
		Functions: []spright.FunctionSpec{
			{
				Name: "tokenize",
				Handler: func(ctx *spright.Ctx) error {
					// zero-copy in-place mutation: uppercase the payload
					b := ctx.Payload()
					for i := range b {
						if b[i] >= 'a' && b[i] <= 'z' {
							b[i] -= 32
						}
					}
					return nil
				},
			},
			{
				Name: "annotate",
				Handler: func(ctx *spright.Ctx) error {
					return ctx.SetPayload(append(ctx.Payload(), []byte(" [processed by spright]")...))
				},
			},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"tokenize"}},         // gateway → head
			{From: "tokenize", To: []string{"annotate"}}, // DFR: direct, no gateway bounce
		},
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer dep.Close()

	out, err := dep.Gateway.Invoke(context.Background(), "", []byte("hello shared memory"))
	if err != nil {
		log.Fatalf("invoke: %v", err)
	}
	fmt.Printf("response: %s\n", out)

	// Every hop ran through the SPROXY program in the eBPF VM; its L7
	// metrics map counted the invocations.
	sp := dep.Chain.SProxy()
	for _, in := range dep.Chain.Instances() {
		fmt.Printf("  %-9s (instance %d): %d requests via sockmap redirect\n",
			in.Function(), in.ID(), sp.RequestCount(in.ID()))
	}
	stats := dep.Chain.Pool().Stats()
	fmt.Printf("shared-memory pool: %d allocation(s) for 1 request across 2 functions (zero-copy)\n",
		stats.Allocs)
	gw := dep.Gateway.Stats()
	fmt.Printf("gateway: admitted=%d completed=%d mean=%.3fms\n",
		gw.Admitted, gw.Completed, dep.Gateway.Latency().Mean()*1e3)
}

// Online boutique (§4.2.1, Table 3): the ten-service microservice demo
// running as one SPRIGHT chain on the real in-process dataplane. Every
// Table 3 call sequence executes with a single shared-memory allocation
// per request — Ch-6's 24 hops move only 16-byte descriptors.
//
//	go run ./examples/boutique
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	spright "github.com/spright-go/spright"
	"github.com/spright-go/spright/internal/boutique"
)

func main() {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(boutique.Spec(boutique.SpecOptions{
		Name: "boutique",
		Mode: spright.ModeEvent,
	}))
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer dep.Close()

	fmt.Println("chain deployed: 10 services,", len(dep.Chain.Instances()), "instances")

	// run each Table 3 chain once, then a concurrent mixed load
	for ci, c := range boutique.Chains() {
		start := time.Now()
		out, err := dep.Gateway.Invoke(context.Background(), "", boutique.EncodeRequest(ci, []byte("user-42")))
		if err != nil {
			log.Fatalf("%s: %v", c.Index, err)
		}
		_, steps, _, _ := boutique.DecodeResponse(out)
		fmt.Printf("  %-5s %-22s %2d hops in %8v\n", c.Index, c.API, steps, time.Since(start).Round(time.Microsecond))
	}

	// concurrent mixed load with the Locust task weights
	const requests = 600
	var wg sync.WaitGroup
	weights := boutique.Weights()
	var total float64
	for _, w := range weights {
		total += w
	}
	start := time.Now()
	for i := 0; i < requests; i++ {
		// deterministic weighted pick
		x := float64(i%int(total*10)) / 10.0
		ci := 0
		for j, w := range weights {
			if x < w {
				ci = j
				break
			}
			x -= w
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := dep.Gateway.Invoke(ctx, "", boutique.EncodeRequest(ci, []byte("u"))); err != nil {
				log.Printf("request failed: %v", err)
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := dep.Gateway.Stats()
	lat := dep.Gateway.Latency()
	ps := dep.Chain.Pool().Stats()
	fmt.Printf("\n%d requests in %v — %.0f req/s, mean %.3fms, p95 %.3fms\n",
		requests, elapsed.Round(time.Millisecond),
		float64(requests)/elapsed.Seconds(), lat.Mean()*1e3, lat.Quantile(0.95)*1e3)
	fmt.Printf("pool: %d allocs for %d requests (1 buffer per request, zero-copy through up to 24 hops)\n",
		ps.Allocs, st.Admitted)

	sp := dep.Chain.SProxy()
	fmt.Println("\nper-service L7 request counts (from the SPROXY metrics map):")
	for _, in := range dep.Chain.Instances() {
		fmt.Printf("  %-16s %6d\n", in.Function(), sp.RequestCount(in.ID()))
	}
}

// Parking: image detection & charging (§4.1, Table 4). Cameras post ~3 KB
// snapshots over CoAP; the chain runs plate detection → plate search →
// (plate-index → persist-metadata for unknown plates) → charging, with the
// plate database held in an in-memory store shared by reference through
// the chain's shared-memory pool.
//
//	go run ./examples/parking
package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"sync"
	"time"

	spright "github.com/spright-go/spright"
	"github.com/spright-go/spright/internal/proto"
)

// plateDB is the "in-memory DB" of Fig. 8(c).
type plateDB struct {
	mu     sync.Mutex
	plates map[string]int // plate -> charge count
}

func main() {
	cluster := spright.NewCluster(1)
	db := &plateDB{plates: make(map[string]int)}

	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name:    "parking",
		BufSize: 8 * 1024, // snapshots are ~3 KB
		Functions: []spright.FunctionSpec{
			{
				Name:        "detect",
				Concurrency: 8,
				// ServiceTime stands in for VGG-16's 435 ms inference,
				// scaled down 100x so the example runs quickly.
				ServiceTime: 4350 * time.Microsecond,
				Handler: func(ctx *spright.Ctx) error {
					// "detect" the plate: hash the image bytes
					h := fnv.New32a()
					h.Write(ctx.Payload())
					plate := fmt.Sprintf("PL-%04X", h.Sum32()&0xFFFF)
					return ctx.SetPayload([]byte(plate))
				},
			},
			{
				Name:        "search",
				ServiceTime: 200 * time.Microsecond,
				Handler: func(ctx *spright.Ctx) error {
					db.mu.Lock()
					_, known := db.plates[string(ctx.Payload())]
					db.mu.Unlock()
					if known {
						ctx.SetTopic("plate/known")
					} else {
						ctx.SetTopic("plate/new")
					}
					return nil
				},
			},
			{
				Name:        "index",
				ServiceTime: 10 * time.Microsecond,
				Handler:     func(ctx *spright.Ctx) error { return nil },
			},
			{
				Name:        "persist",
				ServiceTime: 100 * time.Microsecond,
				Handler: func(ctx *spright.Ctx) error {
					db.mu.Lock()
					db.plates[string(ctx.Payload())] = 0
					db.mu.Unlock()
					return nil
				},
			},
			{
				Name:        "charge",
				ServiceTime: 500 * time.Microsecond,
				Handler: func(ctx *spright.Ctx) error {
					db.mu.Lock()
					db.plates[string(ctx.Payload())]++
					n := db.plates[string(ctx.Payload())]
					db.mu.Unlock()
					return ctx.SetPayload([]byte(fmt.Sprintf("%s charged (visit %d)", ctx.Payload(), n)))
				},
			},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"detect"}},
			{From: "detect", To: []string{"search"}},
			// Table 4: Ch-1 (new plate) ①②③⑤④; Ch-2 (known) ①②④
			{Topic: "plate/new", From: "search", To: []string{"index"}},
			{From: "index", To: []string{"persist"}},
			{From: "persist", To: []string{"charge"}},
			{Topic: "plate/known", From: "search", To: []string{"charge"}},
		},
	})
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer dep.Close()
	dep.Gateway.Adapters().Attach(spright.CoAPAdapter{})

	// one burst: snapshots from 16 parking spots (two visits each, so the
	// second round takes the known-plate fast path)
	snapshot := func(spot int) []byte {
		img := make([]byte, 3*1024)
		for i := range img {
			img[i] = byte(spot + i%7)
		}
		return img
	}
	start := time.Now()
	for round := 0; round < 2; round++ {
		for spot := 0; spot < 16; spot++ {
			req, err := proto.MarshalCoAP(proto.CoAPPost, uint16(spot), "parking/snapshot", snapshot(spot))
			if err != nil {
				log.Fatalf("spot %d: %v", spot, err)
			}
			resp, err := dep.Gateway.IngestRaw(context.Background(), "coap", req)
			if err != nil {
				log.Fatalf("spot %d: %v", spot, err)
			}
			if round == 1 && spot < 3 {
				_, _, _, payload, _ := proto.UnmarshalCoAP(resp)
				fmt.Printf("  spot %2d: %s\n", spot, payload)
			}
		}
	}
	elapsed := time.Since(start)

	db.mu.Lock()
	plates := len(db.plates)
	db.mu.Unlock()
	st := dep.Gateway.Stats()
	fmt.Printf("\nprocessed %d snapshots in %v (mean %.2fms): %d distinct plates\n",
		st.Completed, elapsed.Round(time.Millisecond), dep.Gateway.Latency().Mean()*1e3, plates)
	fmt.Printf("pool stats: %+v\n", dep.Chain.Pool().Stats())
	fmt.Println("round 2 skipped index+persist via topic routing (plate/known fast path)")
}

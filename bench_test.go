// Root benchmarks: only what no workload or probe of the repository
// benchmark (bash bench/run.sh, bench/README.md) and no cmd/spright-bench
// experiment measures yet. The E2E trio is the paper's Fig. 5 comparison on
// the real dataplane — S-SPRIGHT, D-SPRIGHT and the gRPC baseline over the
// same two-function chain and payload sizes; the rest are the DFR and
// load-balancing ablations of DESIGN.md §6, the L7 codecs, the object
// store's spill round trip, and the autoscaler's cold-start and shed paths.
// Each leaves here once bench/ measures it. `go test -run '^$' -bench .`
// runs them.
package spright_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	spright "github.com/spright-go/spright"
	"github.com/spright-go/spright/internal/grpcbase"
	"github.com/spright-go/spright/internal/proto"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
)

// benchChainSeq makes deployed chain names unique across benchmark probe
// runs — b.N alone repeats across a -cpu sweep (each cpu count restarts
// its probe sequence at N=1, and chains from consecutive probes can
// briefly coexist).
var benchChainSeq atomic.Uint64

func benchChain(b *testing.B, mode spright.Mode, fns int) *spright.Deployment {
	b.Helper()
	cluster := spright.NewCluster(1)
	var specs []spright.FunctionSpec
	var routes []spright.RouteSpec
	prev := ""
	for i := 0; i < fns; i++ {
		name := fmt.Sprintf("f%d", i)
		specs = append(specs, spright.FunctionSpec{
			Name:    name,
			Handler: func(ctx *spright.Ctx) error { return nil },
		})
		routes = append(routes, spright.RouteSpec{From: prev, To: []string{name}})
		prev = name
	}
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name:      fmt.Sprintf("bench-%d-%d", fns, benchChainSeq.Add(1)),
		Mode:      mode,
		Functions: specs,
		Routes:    routes,
		BufSize:   128 << 10, // room for the large-payload variants
		// The E2E benchmarks measure the dataplane: disable the per-chain
		// metrics-agent goroutine so its 500ms control cadence cannot share
		// the CPU with the hot loop at GOMAXPROCS=1 (polling-mode dispatch
		// spins; a second runnable goroutine skews the tail).
		ScrapeInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	return dep
}

// e2eSizes exercises the zero-copy advantage: descriptor passing is
// size-independent while serializing transports pay per byte per hop.
var e2eSizes = []int{100, 10 << 10, 64 << 10}

func sizeName(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

// BenchmarkE2E_SSpright measures the real dataplane end to end: HTTP-free
// invoke through a 2-function chain with sockmap descriptor delivery.
func BenchmarkE2E_SSpright(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			dep := benchChain(b, spright.ModeEvent, 2)
			payload := make([]byte, size)
			resp := make([]byte, size)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dep.Gateway.InvokeInto(ctx, "", payload, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2E_DSpright is the polling-transport equivalent. Like the
// S-SPRIGHT variant it uses InvokeInto, so steady state is allocation-free:
// the remaining per-request work is descriptor movement and the two copies
// at the gateway boundary.
func BenchmarkE2E_DSpright(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			dep := benchChain(b, spright.ModePolling, 2)
			payload := make([]byte, size)
			resp := make([]byte, size)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dep.Gateway.InvokeInto(ctx, "", payload, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2E_GRPCBaseline runs the same 2-function workload over the
// real gRPC direct-call baseline (net.Pipe + per-hop serialization) for a
// like-for-like comparison with BenchmarkE2E_SSpright: the delta is the
// paper's serialization/copy tax on every hop.
func BenchmarkE2E_GRPCBaseline(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			mesh := grpcbase.NewMesh()
			defer mesh.Close()
			pass := func(_ string, req []byte) ([]byte, error) { return req, nil }
			for _, name := range []string{"f0", "f1"} {
				if err := mesh.Register(grpcbase.NewServer(name, pass)); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, size)
			chain := []string{"f0", "f1"}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mesh.CallChain(chain, "/bench", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDFR_Ablation compares a 4-function chain (DFR: messages flow
// function-to-function) against 4 chained 1-function invocations (every
// hop returning to the gateway).
func BenchmarkDFR_Ablation(b *testing.B) {
	b.Run("dfr-chain", func(b *testing.B) {
		dep := benchChain(b, spright.ModeEvent, 4)
		ctx := context.Background()
		payload := make([]byte, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dep.Gateway.Invoke(ctx, "", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gateway-bounce", func(b *testing.B) {
		dep := benchChain(b, spright.ModeEvent, 1)
		ctx := context.Background()
		payload := make([]byte, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for hop := 0; hop < 4; hop++ {
				if _, err := dep.Gateway.Invoke(ctx, "", payload); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkObjStoreSpillReload1MB measures one full eviction round trip:
// two 1MB objects under a 1MB resident budget, opened in turn, so each Open
// transparently reloads its object into pool slabs and spills the other to
// the file tier. This is the cost of overflowing MaxResidentBytes — the
// price of keeping the pool available for the hot path when cold
// intermediates pile up.
func BenchmarkObjStoreSpillReload1MB(b *testing.B) {
	pool, err := shm.NewPool("bench-obj", 1024, 16*1024)
	if err != nil {
		b.Fatal(err)
	}
	st := objstore.New(pool, objstore.Config{MaxResidentBytes: 1 << 20, SpillDir: b.TempDir()})
	var hs [2]objstore.Handle
	for i := range hs {
		if hs[i], err = st.Put(fmt.Sprint("cold-", i), make([]byte, 1<<20)); err != nil {
			b.Fatal(err)
		}
		defer st.Release(hs[i])
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.Open(hs[i%2]) // reloads it, spills the other
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtoCodecs measures the L7 codecs the gateway executes.
func BenchmarkProtoCodecs(b *testing.B) {
	msg := &proto.Message{Method: "POST", Path: "/cart", Headers: map[string]string{"Host": "x"}, Body: make([]byte, 1024)}
	b.Run("http-marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			proto.MarshalHTTPRequest(msg)
		}
	})
	wire := proto.MarshalHTTPRequest(msg)
	b.Run("http-unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proto.UnmarshalHTTPRequest(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	mq := proto.MarshalMQTTPublish("sensors/motion", make([]byte, 128))
	b.Run("mqtt-unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := proto.UnmarshalMQTTPublish(mq); err != nil {
				b.Fatal(err)
			}
		}
	})
	co, err := proto.MarshalCoAP(proto.CoAPPost, 1, "parking/snapshot", make([]byte, 3072))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("coap-unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, _, err := proto.UnmarshalCoAP(co); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadBalancing_Ablation compares residual-capacity instance
// selection against the first-instance (no balancing) choice under a
// multi-instance chain.
func BenchmarkLoadBalancing_Ablation(b *testing.B) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: fmt.Sprintf("lb-%d", b.N),
		Functions: []spright.FunctionSpec{{
			Name:      "f",
			Instances: 4,
			Handler:   func(ctx *spright.Ctx) error { return nil },
		}},
		Routes: []spright.RouteSpec{{From: "", To: []string{"f"}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	ctx := context.Background()
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Gateway.Invoke(ctx, "", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Autoscaling control-plane benchmarks (cold start, prewarm, shed path)
// ---------------------------------------------------------------------------

// benchParkChain deploys a single-function chain with request parking
// enabled, for the scale-from-zero benchmarks.
func benchParkChain(b *testing.B) *spright.Deployment {
	b.Helper()
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: fmt.Sprintf("bench-park-%d", benchChainSeq.Add(1)),
		Functions: []spright.FunctionSpec{{
			Name:    "f0",
			Handler: func(ctx *spright.Ctx) error { return nil },
		}},
		Routes: []spright.RouteSpec{{From: "", To: []string{"f0"}}},
		Admission: spright.AdmissionPolicy{
			ParkCapacity: 64,
			ParkTimeout:  10 * time.Second,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return dep
}

// BenchmarkColdStartResume measures the full scale-from-zero path without
// prewarming: the request parks at the gateway, a cold ScaleUp wires a
// fresh instance (socket, sockmap entry, filter edges, worker pool), and
// the park wake dispatches the request. Instance IDs are never reused, so
// the chain is redeployed every ~200 iterations outside the timer.
func BenchmarkColdStartResume(b *testing.B) {
	var dep *spright.Deployment
	budget := 0
	payload := []byte("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if budget == 0 {
			b.StopTimer()
			if dep != nil {
				dep.Close()
			}
			dep = benchParkChain(b)
			budget = 200
			b.StartTimer()
		}
		budget--
		if _, err := dep.Chain.ScaleToZero("f0"); err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := dep.Gateway.Invoke(context.Background(), "", payload)
			done <- err
		}()
		for dep.Gateway.Stats().Parked == 0 {
			runtime.Gosched()
		}
		if _, err := dep.Chain.ScaleUp("f0"); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dep != nil {
		dep.Close()
	}
}

// BenchmarkColdStartPrewarmed is the mitigated variant: the instance is
// prewarmed (wired, authorized, pooled shm attach) outside the timer, so
// the timed region is park → Activate (a router insert) → resume. The
// delta against BenchmarkColdStartResume is the cold-start latency the
// prewarm pool hides from the first request.
func BenchmarkColdStartPrewarmed(b *testing.B) {
	var dep *spright.Deployment
	budget := 0
	payload := []byte("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if budget == 0 {
			if dep != nil {
				dep.Close()
			}
			dep = benchParkChain(b)
			budget = 120
		}
		budget--
		if _, err := dep.Chain.ScaleToZero("f0"); err != nil {
			b.Fatal(err)
		}
		pw, err := dep.Chain.Prewarm("f0")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		done := make(chan error, 1)
		go func() {
			_, err := dep.Gateway.Invoke(context.Background(), "", payload)
			done <- err
		}()
		for dep.Gateway.Stats().Parked == 0 {
			runtime.Gosched()
		}
		if _, err := dep.Chain.Activate(pw); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dep != nil {
		dep.Close()
	}
}

// BenchmarkOverloadShed measures the admission-control fast path: with
// MaxPending saturated by a blocked request, every invocation is refused
// up front with a typed OverloadError — before touching the shared-memory
// pool. This is the cost of saying no under overload.
func BenchmarkOverloadShed(b *testing.B) {
	cluster := spright.NewCluster(1)
	block := make(chan struct{})
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: fmt.Sprintf("bench-shed-%d", benchChainSeq.Add(1)),
		Functions: []spright.FunctionSpec{{
			Name: "f0",
			Handler: func(ctx *spright.Ctx) error {
				<-block
				return nil
			},
		}},
		Routes:    []spright.RouteSpec{{From: "", To: []string{"f0"}}},
		Admission: spright.AdmissionPolicy{MaxPending: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)

	occupied := make(chan error, 1)
	go func() {
		_, err := dep.Gateway.Invoke(context.Background(), "", []byte("hold"))
		occupied <- err
	}()
	for dep.Gateway.Stats().Pending == 0 {
		runtime.Gosched()
	}

	ctx := context.Background()
	payload := []byte("x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Gateway.Invoke(ctx, "", payload); !errors.Is(err, spright.ErrOverload) {
			b.Fatalf("want ErrOverload, got %v", err)
		}
	}
	b.StopTimer()
	close(block)
	if err := <-occupied; err != nil {
		b.Fatal(err)
	}
}

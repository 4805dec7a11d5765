// Benchmark harness: one testing.B entry per paper table/figure (each
// regenerates its experiment and reports the headline metrics), plus
// microbenchmarks of the real dataplane and the ablations DESIGN.md §6
// calls out. cmd/spright-bench prints the full rows/series.
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
	"github.com/spright-go/spright/internal/boutique"
	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/experiment"
	"github.com/spright-go/spright/internal/grpcbase"
	"github.com/spright-go/spright/internal/obs"
	"github.com/spright-go/spright/internal/proto"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
)

// ---------------------------------------------------------------------------
// Paper tables and figures
// ---------------------------------------------------------------------------

func BenchmarkTable1_KnativeAudit(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Table1()
	}
	b.ReportMetric(r.V("kn_copies"), "copies/req")
	b.ReportMetric(r.V("kn_ctx"), "ctxswitch/req")
	b.ReportMetric(r.V("kn_intr"), "interrupts/req")
}

func BenchmarkTable2_SprightAudit(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Table2()
	}
	b.ReportMetric(r.V("sp_copies"), "copies/req")
	b.ReportMetric(r.V("sp_ctx"), "ctxswitch/req")
	b.ReportMetric(r.V("sp_intr"), "interrupts/req")
}

func BenchmarkFig2_SidecarComparison(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Fig2()
	}
	b.ReportMetric(r.V("null_rps"), "null-rps")
	b.ReportMetric(r.V("qp_rps"), "qp-rps")
	b.ReportMetric(r.V("envoy_rps"), "envoy-rps")
	b.ReportMetric(r.V("ofw_rps"), "ofw-rps")
}

func BenchmarkFig5_SharedMemoryProcessing(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Fig5()
	}
	b.ReportMetric(r.V("d_rps_32"), "D-rps@32")
	b.ReportMetric(r.V("s_rps_32"), "S-rps@32")
	b.ReportMetric(r.V("kn_rps_32"), "Kn-rps@32")
	b.ReportMetric(r.V("s_cpu_32"), "S-cpu%@32")
	b.ReportMetric(r.V("d_cpu_32"), "D-cpu%@32")
	b.ReportMetric(r.V("kn_cpu_32"), "Kn-cpu%@32")
}

func BenchmarkChainLengthScaling(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.ChainScaling()
	}
	b.ReportMetric(r.V("kn8_cycles"), "kn-cycles@8fn")
	b.ReportMetric(r.V("sp8_cycles"), "sp-cycles@8fn")
}

func BenchmarkFig9_BoutiqueRPS(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Fig9()
	}
	b.ReportMetric(r.V("kn_rps"), "Kn-rps")
	b.ReportMetric(r.V("grpc_rps"), "gRPC-rps")
	b.ReportMetric(r.V("d_rps"), "D-rps")
	b.ReportMetric(r.V("s_rps"), "S-rps")
}

func BenchmarkFig10_BoutiqueCDFAndCPU(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Fig10()
	}
	b.ReportMetric(r.V("kn_p95_ms"), "Kn-p95-ms")
	b.ReportMetric(r.V("s_p95_ms"), "S-p95-ms")
	b.ReportMetric(r.V("s_cpu"), "S-cpu-cores")
	b.ReportMetric(r.V("d_cpu"), "D-cpu-cores")
}

func BenchmarkTable5_BoutiqueLatency(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Table5()
	}
	b.ReportMetric(r.V("kn_p95_ms_5000"), "Kn-p95-ms@5K")
	b.ReportMetric(r.V("s_p95_ms_5000"), "S-p95-ms@5K")
	b.ReportMetric(r.V("s_p95_ms_25000"), "S-p95-ms@25K")
}

func BenchmarkFig11_MotionColdStart(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Fig11()
	}
	b.ReportMetric(r.V("kn_cold_starts"), "Kn-coldstarts")
	b.ReportMetric(r.V("kn_max_lat_s"), "Kn-max-lat-s")
	b.ReportMetric(r.V("s_max_lat_s")*1e3, "S-max-lat-ms")
}

func BenchmarkFig12_ParkingPrewarm(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.Fig12()
	}
	b.ReportMetric(r.V("lat_saving")*100, "lat-saving-%")
	b.ReportMetric(r.V("cpu_saving")*100, "cpu-saving-%")
}

func BenchmarkXDP_Ablation(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.XDPAblation()
	}
	b.ReportMetric(r.V("tput_gain"), "tput-gain-x")
	b.ReportMetric(r.V("lat_cut")*100, "lat-cut-%")
}

func BenchmarkProtocolAdapter_Ablation(b *testing.B) {
	var r *experiment.Report
	for i := 0; i < b.N; i++ {
		r = experiment.AdapterAblation()
	}
	b.ReportMetric(r.V("lat_cut")*100, "lat-cut-%")
}

// ---------------------------------------------------------------------------
// Real-dataplane microbenchmarks
// ---------------------------------------------------------------------------

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

// benchE2EParallel drives the chain from b.RunParallel: every worker owns
// its request/response buffers and issues closed-loop invocations, so the
// measured ns/op is wall time per request across all workers and
// RPS = 1e9/ns_per_op at that GOMAXPROCS. Run with -cpu 1,2,4,8 to sweep
// the scaling curve; after the timed region the gateway's latency
// histogram reports p50/p99 across the whole run.
func benchE2EParallel(b *testing.B, mode spright.Mode, size int) {
	dep := benchChain(b, mode, 2)
	ctx := context.Background()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		payload := make([]byte, size)
		resp := make([]byte, size)
		for pb.Next() {
			if _, err := dep.Gateway.InvokeInto(ctx, "", payload, resp); err != nil {
				// b.Fatal must not run on RunParallel body goroutines.
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	lat := dep.Gateway.Latency()
	b.ReportMetric(lat.Quantile(0.50)*1e9, "p50-ns")
	b.ReportMetric(lat.Quantile(0.99)*1e9, "p99-ns")
	b.ReportMetric(lat.Quantile(0.999)*1e9, "p999-ns")
}

// BenchmarkE2E_Parallel_SSpright is the multicore RPS harness for the
// event-driven transport.
func BenchmarkE2E_Parallel_SSpright(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			benchE2EParallel(b, spright.ModeEvent, size)
		})
	}
}

// BenchmarkE2E_Parallel_DSpright is the polling-transport equivalent.
func BenchmarkE2E_Parallel_DSpright(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			benchE2EParallel(b, spright.ModePolling, size)
		})
	}
}

// benchPlacedChain builds a 2-node cluster joined by the loopback mesh and
// deploys a 2-function chain with f0 on worker-1 and f1 on worker-2, so
// every request crosses the wire twice (forward + response).
func benchPlacedChain(b *testing.B) (*spright.Cluster, *spright.PlacedDeployment) {
	b.Helper()
	cluster := spright.NewCluster(2)
	if err := cluster.StartMesh(spright.MeshConfig{}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.StopMesh)
	pd, err := cluster.Controller.DeployPlacedChain(spright.ChainSpec{
		Name: fmt.Sprintf("bench-xnode-%d", benchChainSeq.Add(1)),
		Mode: spright.ModeEvent,
		Functions: []spright.FunctionSpec{
			{Name: "f0", Node: "worker-1", Handler: func(ctx *spright.Ctx) error { return nil }},
			{Name: "f1", Node: "worker-2", Handler: func(ctx *spright.Ctx) error { return nil }},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"f0"}},
			{From: "f0", To: []string{"f1"}},
		},
		BufSize: 128 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pd.Close)
	return cluster, pd
}

// BenchmarkE2E_CrossNode is the 2-node variant of BenchmarkE2E_SSpright:
// the f0→f1 hop leaves the node over the batched TCP mesh and the response
// rides it back, so ns/op is the per-request cross-node tax on top of the
// shared-memory path (which BenchmarkE2E_SSpright shows unchanged).
func BenchmarkE2E_CrossNode(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			_, pd := benchPlacedChain(b)
			payload := make([]byte, size)
			resp := make([]byte, size)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pd.Gateway().InvokeInto(ctx, "", payload, resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2E_Parallel_CrossNode is the closed-loop multicore harness over
// the 2-node placement. Concurrent requests share the per-peer send ring,
// so the writer coalesces frames: the reported frames/write is the batching
// amortization the serial bench cannot show (1.0 = no coalescing).
func BenchmarkE2E_Parallel_CrossNode(b *testing.B) {
	for _, size := range e2eSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			cluster, pd := benchPlacedChain(b)
			ctx := context.Background()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				payload := make([]byte, size)
				resp := make([]byte, size)
				for pb.Next() {
					if _, err := pd.Gateway().InvokeInto(ctx, "", payload, resp); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			for _, ps := range cluster.Nodes()[0].Mesh.Stats().Sent {
				if ps.Peer == "worker-2" && ps.Writes > 0 {
					b.ReportMetric(float64(ps.FramesSent)/float64(ps.Writes), "frames/write")
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

// BenchmarkSProxySend measures one sockmap-redirect descriptor delivery
// through the verified SK_MSG program.
func BenchmarkSProxySend(b *testing.B) {
	kernel := ebpf.NewKernel()
	sp, err := core.NewSProxy(kernel, "bench")
	if err != nil {
		b.Fatal(err)
	}
	sock := core.NewSocket(7, 1024)
	if err := sp.RegisterSocket(sock); err != nil {
		b.Fatal(err)
	}
	if err := sp.Allow(1, 7); err != nil {
		b.Fatal(err)
	}
	d := shm.Descriptor{NextFn: 7, Buf: 1, Len: 100, Caller: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.Send(1, d); err != nil {
			b.Fatal(err)
		}
		<-sock.Recv() // delivery is synchronous; drain in-loop
	}
	b.StopTimer()
	sock.Close()
}

// BenchmarkHopHandoff times one function → function hop as the dataplane
// normally makes it: no-op handler → DFR (Router.Next, PickInstance) → the
// SPROXY program run → the forwarding worker claims the next instance's one
// slot and runs that handler itself — no queue, no wake. Two Concurrency: 1
// functions route to each other and a single fire-and-forget descriptor
// circulates between them for b.N hops, so the gateway and the waiter are
// off the clock and ns/op is the cost of one hop. All b.N hops run on the
// first function's worker, iteratively: a hop that recursed into the next
// handler would not survive the stack. hopsLeft needs no atomic for the same
// reason.
func BenchmarkHopHandoff(b *testing.B) {
	var hopsLeft int
	done := make(chan struct{})
	hop := func(ctx *spright.Ctx) error {
		if hopsLeft--; hopsLeft == 0 {
			ctx.Drop()
			close(done)
		}
		return nil
	}
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: fmt.Sprintf("bench-hop-%d", benchChainSeq.Add(1)),
		Functions: []spright.FunctionSpec{
			{Name: "ping", Handler: hop, Concurrency: 1},
			{Name: "pong", Handler: hop, Concurrency: 1},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"ping"}},
			{From: "ping", To: []string{"pong"}},
			{From: "pong", To: []string{"ping"}},
		},
		ScrapeInterval: -1, // as benchChain: the dataplane alone
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	hopsLeft = b.N
	b.ReportAllocs()
	b.ResetTimer()
	if err := dep.Gateway.InvokeAsync("", []byte("x")); err != nil {
		b.Fatal(err)
	}
	<-done
	b.StopTimer()
	if err := dep.Chain.Pool().LeakCheck(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFilterMap_Ablation isolates the security-domain lookup cost:
// SPROXY send with the filter populated vs a direct socket delivery.
func BenchmarkFilterMap_Ablation(b *testing.B) {
	b.Run("with-sproxy-filter", BenchmarkSProxySend)
	b.Run("raw-socket-delivery", func(b *testing.B) {
		sock := core.NewSocket(7, 1024)
		d := shm.Descriptor{NextFn: 7}
		wire := d.Marshal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sock.DeliverDescriptor(wire[:]); err != nil {
				b.Fatal(err)
			}
			<-sock.Recv()
		}
		b.StopTimer()
		sock.Close()
	})
}

// BenchmarkShmPool measures the gateway's per-request pool cycle.
func BenchmarkShmPool(b *testing.B) {
	pool, err := shm.NewPool("bench", 1024, 16*1024)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := pool.Get()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pool.Write(h, payload); err != nil {
			b.Fatal(err)
		}
		if err := pool.Put(h); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObjStore builds a pool + object store sized for the 10MB
// intermediate (640 × 16KiB slabs, with headroom).
func benchObjStore(b *testing.B, cfg objstore.Config) (*shm.Pool, *objstore.Store) {
	b.Helper()
	pool, err := shm.NewPool("bench-obj", 1024, 16*1024)
	if err != nil {
		b.Fatal(err)
	}
	return pool, objstore.New(pool, cfg)
}

// BenchmarkObjStorePut10MB measures materialising the ROADMAP item 4
// intermediate: one 10MB object written into pool slabs and released.
// This is the write-once cost the fan-out DAG pays exactly once per
// request, regardless of the consumer count.
func BenchmarkObjStorePut10MB(b *testing.B) {
	_, st := benchObjStore(b, objstore.Config{})
	data := make([]byte, 10<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := st.Put("", data)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Release(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjStoreOpenRead10MB is the consumer side of the fan-out DAG:
// open the shared 10MB object, walk every slab view in place, close. The
// reader is pooled and the slab views alias pool memory, so steady state
// is allocation-free — the acceptance bar for the zero-copy N-consumer
// read path.
func BenchmarkObjStoreOpenRead10MB(b *testing.B) {
	_, st := benchObjStore(b, objstore.Config{})
	h, err := st.Put("intermediate", make([]byte, 10<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Release(h)
	b.SetBytes(10 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		r, err := st.Open(h)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < r.Slabs(); s++ {
			v := r.Slab(s)
			sink += v[0] + v[len(v)-1]
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}

// BenchmarkObjStoreSpillReload1MB measures one full eviction round trip:
// a 1MB object spilled to the file tier and transparently reloaded into
// pool slabs on the next Open. This is the cost of overflowing
// MaxResidentBytes — the price of keeping the pool available for the hot
// path when cold intermediates pile up.
func BenchmarkObjStoreSpillReload1MB(b *testing.B) {
	_, st := benchObjStore(b, objstore.Config{SpillDir: b.TempDir()})
	h, err := st.Put("cold", make([]byte, 1<<20))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Release(h)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Spill(h); err != nil {
			b.Fatal(err)
		}
		r, err := st.Open(h) // transparent reload
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2E_LargePayload drives a >BufSize request end to end through
// the gateway's chunked-object admission: a 1MB body over a 16KiB-buffer
// chain rides as an attached object handle and is reassembled for the
// response — the path a serializing transport would pay per hop for.
func BenchmarkE2E_LargePayload(b *testing.B) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name:        fmt.Sprintf("bench-large-%d", benchChainSeq.Add(1)),
		Mode:        spright.ModeEvent,
		PoolBuffers: 512,
		BufSize:     16 * 1024,
		Functions: []spright.FunctionSpec{
			{Name: "f0", Handler: func(ctx *spright.Ctx) error { return nil }},
		},
		Routes: []spright.RouteSpec{{From: "", To: []string{"f0"}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	payload := make([]byte, 1<<20)
	ctx := context.Background()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Gateway.Invoke(ctx, "", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEBPFInterpreter measures the bytecode interpreter — the
// differential oracle and the engine of every program without a fast path —
// on a map-lookup XDP program. BenchmarkJIT_vs_Interp carries the fast
// paths' comparison.
func BenchmarkEBPFInterpreter(b *testing.B) {
	kernel := ebpf.NewKernel()
	m, _ := kernel.CreateMap(ebpf.MapSpec{Name: "m", Type: ebpf.MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	bl := ebpf.NewBuilder("bench", ebpf.ProgTypeXDP)
	bl.Ins(
		ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.W),
		ebpf.LoadMapFD(ebpf.R1, m.FD()),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Add64Imm(ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
	)
	bl.Jmp(ebpf.JeqImm(ebpf.R0, 0, 0), "out")
	bl.Ins(ebpf.Mov64Imm(ebpf.R2, 1), ebpf.AtomicAdd(ebpf.R0, 0, ebpf.R2, ebpf.DW))
	bl.Label("out")
	bl.Ins(ebpf.Mov64Imm(ebpf.R0, ebpf.XDPPass), ebpf.Exit())
	prog, err := kernel.Load(bl.MustProgram())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.Run(prog, data, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJIT_vs_Interp compares the two engines on each recognized
// program shape: the SPROXY and EPROXY fast paths, through the real
// dataplane entry points, against the interpreter running the same programs
// with the fast paths switched off — the per-shape delta is what
// specialization buys.
func BenchmarkJIT_vs_Interp(b *testing.B) {
	engines := []struct {
		name string
		jit  bool
	}{{"jit", true}, {"interp", false}}

	b.Run("sproxy", func(b *testing.B) {
		for _, eng := range engines {
			b.Run(eng.name, func(b *testing.B) {
				kernel := ebpf.NewKernel()
				kernel.SetJIT(eng.jit)
				sp, err := core.NewSProxy(kernel, "jb")
				if err != nil {
					b.Fatal(err)
				}
				sock := core.NewSocket(7, 1024)
				if err := sp.RegisterSocket(sock); err != nil {
					b.Fatal(err)
				}
				if err := sp.Allow(1, 7); err != nil {
					b.Fatal(err)
				}
				d := shm.Descriptor{NextFn: 7, Buf: 1, Len: 100, Caller: 1}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sp.Send(1, d); err != nil {
						b.Fatal(err)
					}
					<-sock.Recv()
				}
				b.StopTimer()
				sock.Close()
			})
		}
	})

	b.Run("eproxy", func(b *testing.B) {
		for _, eng := range engines {
			b.Run(eng.name, func(b *testing.B) {
				kernel := ebpf.NewKernel()
				kernel.SetJIT(eng.jit)
				ep, err := core.NewEProxy(kernel, "jb")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ep.OnIngress(128)
				}
			})
		}
	})
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
	co := proto.MarshalCoAP(proto.CoAPPost, 1, "parking/snapshot", make([]byte, 3072))
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

// benchTraceChain deploys the 2-function bench chain with an explicit
// head-sampling period for the tracing-overhead benchmarks.
func benchTraceChain(b *testing.B, every int) *spright.Deployment {
	b.Helper()
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: fmt.Sprintf("bench-tr-%d-%d", every, benchChainSeq.Add(1)),
		Functions: []spright.FunctionSpec{
			{Name: "f0", Handler: func(ctx *spright.Ctx) error { return nil }},
			{Name: "f1", Handler: func(ctx *spright.Ctx) error { return nil }},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"f0"}},
			{From: "f0", To: []string{"f1"}},
		},
		TraceSampleEvery: every,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	return dep
}

// BenchmarkTraceUnsampled is the tracing hot-path contract: with the
// always-on tracer installed but the request not head-sampled (and under
// the tail-latency threshold), the end-to-end invoke must not allocate —
// the per-stage cost is one atomic flags load.
func BenchmarkTraceUnsampled(b *testing.B) {
	dep := benchTraceChain(b, 1<<30)
	payload := make([]byte, 100)
	resp := make([]byte, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Gateway.InvokeInto(ctx, "", payload, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceSampled measures the fully traced request: every stage
// records a span (alloc, enqueue/redirect, queue wait, handler, drain)
// into the bounded ring.
func BenchmarkTraceSampled(b *testing.B) {
	dep := benchTraceChain(b, 1)
	payload := make([]byte, 100)
	resp := make([]byte, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Gateway.InvokeInto(ctx, "", payload, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlightEmit is the flight-recorder hot-path contract: a disabled
// recorder (and a nil one, as core sees before any sink is wired) must cost
// one atomic load and zero allocations, and even the enabled journal path
// must stay allocation-free — events overwrite preallocated ring slots.
func BenchmarkFlightEmit(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		r := obs.NewFlightRecorder(0)
		r.RegisterChain("bench")
		r.SetEnabled(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Emit("bench", obs.EventShed, "fn", "overload", int64(i))
		}
		b.StopTimer()
		if testing.AllocsPerRun(100, func() {
			r.Emit("bench", obs.EventShed, "fn", "overload", 1)
		}) != 0 {
			b.Fatal("disabled Emit allocates")
		}
	})
	b.Run("nil", func(b *testing.B) {
		var r *obs.FlightRecorder
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Emit("bench", obs.EventShed, "fn", "overload", int64(i))
		}
	})
	b.Run("enabled", func(b *testing.B) {
		r := obs.NewFlightRecorder(0)
		r.RegisterChain("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Emit("bench", obs.EventShed, "fn", "overload", int64(i))
		}
	})
}

// BenchmarkBoutiqueCh6 drives the heaviest Table 3 sequence (24 hops) on
// the real dataplane.
func BenchmarkBoutiqueCh6(b *testing.B) {
	cluster := spright.NewCluster(1)
	spec := boutique.Spec(boutique.SpecOptions{Name: fmt.Sprintf("bq-%d", b.N)})
	dep, err := cluster.Controller.DeployChain(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Gateway.Invoke(ctx, "", boutique.EncodeRequest(5, []byte("u"))); err != nil {
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
		for dep.Gateway.Parked() == 0 {
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
		for dep.Gateway.Parked() == 0 {
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
	for dep.Gateway.Pending() == 0 {
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

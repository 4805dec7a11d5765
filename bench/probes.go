package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	spright "github.com/spright-go/spright"
	"github.com/spright-go/spright/internal/boutique"
	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/obs"
	"github.com/spright-go/spright/internal/proto"
	"github.com/spright-go/spright/internal/ring"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
	"github.com/spright-go/spright/internal/transport"
	"github.com/spright-go/spright/internal/wire"
)

// A probe times a fixed number of calls into one layer's public API and
// reports the median over probeBatches batches, after one untimed batch.
const probeBatches = 20

// probe returns the median nanoseconds per call of fn.
func probe(iters int, fn func() error) (float64, error) {
	batch := func() (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / float64(iters), nil
	}
	if _, err := batch(); err != nil {
		return 0, err
	}
	v := make([]float64, probeBatches)
	for i := range v {
		var err error
		if v[i], err = batch(); err != nil {
			return 0, err
		}
	}
	return medianOf(v), nil
}

// prober collects probe values under their metric names. scale shrinks
// every iteration count (tests run at a fraction).
type prober struct {
	out   map[string]float64
	scale float64
	err   error
}

// run records fn's per-call time under name, divided by div (1 for ns,
// 1e3 for µs, 1e6 for ms).
func (p *prober) run(name string, iters int, div float64, fn func() error) {
	if p.err != nil {
		return
	}
	iters = max(1, int(float64(iters)*p.scale))
	ns, err := probe(iters, fn)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return
	}
	p.out[name] = ns / div
}

// runProbes times every layer probe. None of them depends on the workload:
// they keep each layer on a clock of its own in every traced run.
func runProbes(scale float64) (map[string]float64, error) {
	p := &prober{out: map[string]float64{}, scale: scale}
	probeCore(p)
	probeEBPF(p)
	probeRing(p)
	probeShm(p)
	probeWire(p)
	probeTransport(p)
	probeGateway(p)
	probeControl(p)
	return p.out, p.err
}

func (p *prober) fail(err error) bool {
	if err != nil && p.err == nil {
		p.err = err
	}
	return p.err != nil
}

func probeCore(p *prober) {
	kernel := ebpf.NewKernel()
	sp, err := core.NewSProxy(kernel, "probe")
	if p.fail(err) {
		return
	}
	sock := core.NewSocket(7, 1024)
	defer sock.Close()
	if p.fail(sp.RegisterSocket(sock)) || p.fail(sp.Allow(1, 7)) {
		return
	}
	d := shm.Descriptor{NextFn: 7, Buf: 1, Len: 100, Caller: 1}
	p.run("core.sproxy_send_ns", 20000, 1, func() error {
		if err := sp.Send(1, d); err != nil {
			return err
		}
		<-sock.Recv()
		return nil
	})
	raw := d.Marshal()
	p.run("core.socket_deliver_ns", 20000, 1, func() error {
		if err := sock.DeliverDescriptor(raw[:]); err != nil {
			return err
		}
		<-sock.Recv()
		return nil
	})
	ep, err := core.NewEProxy(kernel, "probe")
	if p.fail(err) {
		return
	}
	p.run("core.eproxy_ingress_ns", 20000, 1, func() error {
		ep.OnIngress(128)
		return nil
	})
}

// probeEBPF runs the map-lookup XDP program of the repo's engine
// benchmarks through Kernel.Run, compiled and interpreted.
func probeEBPF(p *prober) {
	for _, eng := range []struct {
		name string
		jit  bool
	}{{"ebpf.run_jit_ns", true}, {"ebpf.run_interp_ns", false}} {
		kernel := ebpf.NewKernel()
		kernel.SetJIT(eng.jit)
		m, err := kernel.CreateMap(ebpf.MapSpec{Name: "m", Type: ebpf.MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
		if p.fail(err) {
			return
		}
		bl := ebpf.NewBuilder("probe", ebpf.ProgTypeXDP)
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
		if p.fail(err) {
			return
		}
		data := make([]byte, 64)
		p.run(eng.name, 20000, 1, func() error {
			_, err := kernel.Run(prog, data, 0, nil)
			return err
		})
	}
}

func probeRing(p *prober) {
	r, err := ring.New(1024, ring.MP)
	if p.fail(err) {
		return
	}
	p.run("ring.enq_deq_ns", 50000, 1, func() error {
		if err := r.Enqueue(42); err != nil {
			return err
		}
		_, err := r.Dequeue()
		return err
	})
	var in, out [32]uint64
	p.run("ring.bulk32_ns", 20000, 1, func() error {
		if r.EnqueueBulk(in[:]) != len(in) || r.DequeueBurst(out[:]) != len(out) {
			return fmt.Errorf("bulk of %d refused", len(in))
		}
		return nil
	})
}

func probeShm(p *prober) {
	pool, err := shm.NewPool("probe", 1024, 16<<10)
	if p.fail(err) {
		return
	}
	defer pool.Close()
	cycle := func(pool *shm.Pool, payload []byte) func() error {
		return func() error {
			h, err := pool.Get()
			if err != nil {
				return err
			}
			if _, err := pool.Write(h, payload); err != nil {
				return err
			}
			return pool.Put(h)
		}
	}
	p.run("shm.get_write_put_1k_ns", 20000, 1, cycle(pool, make([]byte, 1<<10)))

	big, err := shm.NewPool("probe-64k", 16, 64<<10)
	if p.fail(err) {
		return
	}
	defer big.Close()
	p.run("shm.write_64k_ns", 2000, 1, cycle(big, make([]byte, 64<<10)))

	st := objstore.New(pool, objstore.Config{})
	defer st.Close()
	body := make([]byte, 1<<20)
	p.run("objstore.put_1m_us", 50, 1e3, func() error {
		h, err := st.Put("", body)
		if err != nil {
			return err
		}
		return st.Release(h)
	})
	h, err := st.Put("resident", body)
	if p.fail(err) {
		return
	}
	var sink byte
	p.run("objstore.open_walk_1m_ns", 5000, 1, func() error {
		o, err := st.Open(h)
		if err != nil {
			return err
		}
		for i := 0; i < o.Slabs(); i++ {
			v := o.Slab(i)
			sink += v[0] + v[len(v)-1]
		}
		return o.Close()
	})
	p.fail(st.Release(h))
}

// frame16k is the request frame xnode-chain puts on the wire.
func frame16k() *wire.Frame {
	return &wire.Frame{
		Type: wire.TypeRequest, Caller: 7, Chain: "xnode", Fn: "f1",
		Payload: make([]byte, xnodeBody),
	}
}

func probeWire(p *prober) {
	f := frame16k()
	buf := make([]byte, 0, wire.EncodedSize(f))
	p.run("wire.encode_16k_ns", 5000, 1, func() error {
		var err error
		buf, err = wire.AppendFrame(buf[:0], f)
		return err
	})
	p.run("wire.decode_16k_ns", 20000, 1, func() error {
		_, err := wire.DecodeFrame(buf[wire.PrefixLen:])
		return err
	})
}

// probeTransport bounces one 16 KiB frame at a time between two mesh
// endpoints on loopback.
func probeTransport(p *prober) {
	a := transport.NewMesh("a", transport.Config{})
	b := transport.NewMesh("b", transport.Config{})
	defer a.Close()
	defer b.Close()
	back := make(chan struct{}, 1) // one frame in flight
	reply := &wire.Frame{Type: wire.TypeResponse, Chain: "xnode", Payload: make([]byte, xnodeBody)}
	// A refused reply shows as the round trip timing out below.
	b.SetHandler(func(string, *wire.Frame) { _ = b.Send("a", reply) })
	a.SetHandler(func(string, *wire.Frame) { back <- struct{}{} })
	if p.fail(a.Listen("127.0.0.1:0")) || p.fail(b.Listen("127.0.0.1:0")) {
		return
	}
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	f := frame16k()
	rtt := func() error {
		if err := a.Send("b", f); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no reply frame within 5s")
		}
	}
	p.run("transport.rtt_16k_us", 200, 1e3, rtt)
	if p.err != nil {
		return
	}
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if p.fail(rtt()) {
			return
		}
	}
	runtime.ReadMemStats(&m1)
	p.out["transport.rtt_allocs"] = float64(m1.Mallocs-m0.Mallocs) / n
}

// probeGateway keeps the in-process gateway entry points on a clock.
func probeGateway(p *prober) {
	tg, dep, err := deployChain(echoSpec(nil, spright.ModeEvent))
	if p.fail(err) {
		return
	}
	defer tg.close()
	ctx := context.Background()
	body := make([]byte, 256)
	p.run("core.invoke_256b_us", 2000, 1e3, func() error {
		_, err := dep.Gateway.Invoke(ctx, "", body)
		return err
	})
	raw := proto.MarshalHTTPRequest(&proto.Message{Method: "POST", Path: "/", Body: body})
	p.run("core.ingest_raw_http_us", 2000, 1e3, func() error {
		_, err := dep.Gateway.IngestRaw(ctx, "http", raw)
		return err
	})
}

// probeControl times deploying the boutique, a /metrics scrape with it
// deployed, and one flight-recorder event.
func probeControl(p *prober) {
	p.run("orchestrator.deploy_boutique_ms", 1, 1e6, func() error {
		tg, _, err := deployChain(boutique.Spec(boutique.SpecOptions{}))
		if err != nil {
			return err
		}
		tg.close()
		return nil
	})
	tg, _, err := deployChain(boutique.Spec(boutique.SpecOptions{}))
	if p.fail(err) {
		return
	}
	defer tg.close()
	mux := tg.cluster.Observability().AdminMux()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	p.run("obs.scrape_us", 20, 1e3, func() error {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("/metrics: status %d", rec.Code)
		}
		return nil
	})
	fr := tg.cluster.Observability().Flight()
	p.run("obs.flight_emit_ns", 50000, 1, func() error {
		fr.Emit("boutique", obs.EventShed, "probe", "overload", 1)
		return nil
	})
}

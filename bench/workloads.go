package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	spright "github.com/spright-go/spright"
	"github.com/spright-go/spright/internal/boutique"
)

// maxCallers is the widest closed loop any phase runs (the sat phase).
const maxCallers = 2

// caller is one closed-loop client's private state.
type caller struct {
	dst []byte // reply buffer, reused
}

// target is one workload deployed on the real dataplane.
type target struct {
	cluster *spright.Cluster
	deps    []*spright.Deployment // every chain variant, for leak checks and counters
	// call sends one request and returns the reply, valid until c's next
	// call. ctx carries the phase's deadline, so a lost request fails
	// instead of hanging the run.
	call  func(ctx context.Context, c *caller, rq *request) ([]byte, error)
	close func()
}

type workload struct {
	name string
	why  string
	// gen draws the request sequence from the seed.
	gen func(rng *rand.Rand, a *arena) []request
	// deploy builds the workload through the public facade with shipped
	// defaults. tr is nil on end-to-end runs.
	deploy func(tr *tracer) (*target, error)
	verify func(rq *request, reply []byte) bool
	shape  shape
	// readers names the parallel stage's handlers (shapeFanout only).
	readers []string
	// replyCap sizes a caller's reply buffer.
	replyCap int
	// hopProbe names the probe that times the transport step of one hop
	// (the budget sets it against core.hop_us); hopProbeNote says what the
	// probe covers.
	hopProbe, hopProbeNote string
}

// Event-mode hops go through SPROXY; polling-mode hops through a ring.
const (
	sproxyProbe     = "core.sproxy_send_ns"
	sproxyProbeNote = "eBPF run + core.socket_deliver_ns"
	ringProbe       = "ring.enq_deq_ns"
)

// check turns a call's outcome into the request's: a reply that does not
// verify is a failure like any error.
func (wl *workload) check(rq *request, reply []byte, err error) error {
	if err == nil && !wl.verify(rq, reply) {
		return fmt.Errorf("reply of %d bytes does not verify", len(reply))
	}
	return err
}

var workloads = []*workload{
	{
		name:     "http-echo",
		why:      "loopback HTTP through cluster.Ingress: the only workload with net/http, IngressGateway and Gateway.ServeHTTP on the clock",
		gen:      func(rng *rand.Rand, a *arena) []request { return genEcho(rng, a, 4096, 64, 1024) },
		deploy:   deployHTTPEcho,
		verify:   verifyExact,
		replyCap: 2048,
		hopProbe: sproxyProbe, hopProbeNote: sproxyProbeNote,
	},
	{
		name:     "boutique-mix",
		why:      "ten-service boutique, Locust-weighted chains, ~12.8 hops per request: per-hop dataplane cost does nearly all the work",
		gen:      func(rng *rand.Rand, a *arena) []request { return genBoutique(rng, a, 8192) },
		deploy:   deployBoutique,
		verify:   verifyBoutique,
		replyCap: 1024,
		hopProbe: sproxyProbe, hopProbeNote: sproxyProbeNote,
	},
	{
		name:     "echo-polling",
		why:      "the echo chain in ModePolling (D-SPRIGHT): same gateway and instance code over rings and busy pollers, and the polling CPU burn",
		gen:      func(rng *rand.Rand, a *arena) []request { return genEcho(rng, a, 4096, 256, 256) },
		deploy:   deployEchoPolling,
		verify:   verifyExact,
		replyCap: 1024,
		hopProbe: ringProbe, hopProbeNote: "one enqueue and dequeue",
	},
	{
		name:     "xnode-chain",
		why:      "f0 and f1 on two nodes, 16 KiB payloads: wire codec, transport rings and writer, remote invoke and completion carry the request",
		gen:      func(rng *rand.Rand, a *arena) []request { return genXnode(rng, a, 256) },
		deploy:   deployXnode,
		verify:   verifyXnode,
		shape:    shapeXnode,
		replyCap: xnodeBody,
	},
	{
		name:     "large-fanout",
		why:      "1 MiB body admitted as a multi-slab object, fanned out to three zero-copy readers and fanned in: byte moving, sendBatch and Pool.Ref",
		gen:      func(rng *rand.Rand, a *arena) []request { return genFanout(rng, a, 8) },
		deploy:   deployFanout,
		verify:   verifyFanout,
		shape:    shapeFanout,
		readers:  []string{"a", "b", "c"},
		replyCap: 64,
		hopProbe: sproxyProbe, hopProbeNote: sproxyProbeNote,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func verifyExact(rq *request, reply []byte) bool { return bytes.Equal(reply, rq.want) }

// boutiqueSteps is each chain's sequence length, read once: the verifier
// runs inside the measured loop and must not allocate there.
var boutiqueSteps = func() []int {
	chains := boutique.Chains()
	steps := make([]int, len(chains))
	for i, c := range chains {
		steps[i] = len(c.Sequence)
	}
	return steps
}()

func verifyBoutique(rq *request, reply []byte) bool {
	ci, step, body, err := boutique.DecodeResponse(reply)
	return err == nil && ci == rq.chain && step == boutiqueSteps[ci] &&
		bytes.Equal(body, rq.payload[len(rq.payload)-boutiqueBody:])
}

func verifyXnode(rq *request, reply []byte) bool {
	n := len(rq.payload)
	return len(reply) == n && bytes.Equal(reply[:n-4], rq.payload[:n-4]) &&
		binary.LittleEndian.Uint32(reply[n-4:]) == uint32(rq.sum)
}

func verifyFanout(rq *request, reply []byte) bool {
	return len(reply) == 8 && binary.LittleEndian.Uint64(reply) == rq.sum
}

// echoSpec is the upper→exclaim chain of `spright-gw -app echo`.
func echoSpec(tr *tracer, mode spright.Mode) spright.ChainSpec {
	return spright.ChainSpec{
		Name: "echo",
		Mode: mode,
		Functions: []spright.FunctionSpec{
			{Name: "upper", Handler: tr.wrap("upper", func(ctx *spright.Ctx) error {
				b := ctx.Payload()
				for i := range b {
					if b[i] >= 'a' && b[i] <= 'z' {
						b[i] -= 32
					}
				}
				return nil
			})},
			{Name: "exclaim", Handler: tr.wrap("exclaim", func(ctx *spright.Ctx) error {
				return ctx.SetPayload(append(ctx.Payload(), '!'))
			})},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"upper"}},
			{From: "upper", To: []string{"exclaim"}},
		},
	}
}

// invokeInto drives a gateway in-process without allocating.
func invokeInto(gw *spright.Gateway) func(context.Context, *caller, *request) ([]byte, error) {
	return func(ctx context.Context, c *caller, rq *request) ([]byte, error) {
		n, err := gw.InvokeInto(ctx, "", rq.payload, c.dst)
		return c.dst[:n], err
	}
}

// deployChain places one chain on a fresh single-node cluster.
func deployChain(spec spright.ChainSpec) (*target, *spright.Deployment, error) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spec)
	if err != nil {
		return nil, nil, err
	}
	return &target{cluster: cluster, deps: []*spright.Deployment{dep}, close: dep.Close}, dep, nil
}

func deployHTTPEcho(tr *tracer) (*target, error) {
	tg, _, err := deployChain(echoSpec(tr, spright.ModeEvent))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tg.close()
		return nil, err
	}
	srv := &http.Server{Handler: tr.wrapHTTP(tg.cluster.Ingress)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // always http.ErrServerClosed after Close below
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: maxCallers, MaxConnsPerHost: maxCallers}
	client := &http.Client{Transport: transport}
	url := "http://" + ln.Addr().String() + "/echo/"

	tg.call = func(ctx context.Context, c *caller, rq *request) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(rq.payload))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		n := 0
		for {
			m, err := resp.Body.Read(c.dst[n:])
			n += m
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if n == len(c.dst) {
				return nil, errors.New("reply larger than the caller's buffer")
			}
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, c.dst[:n])
		}
		return c.dst[:n], nil
	}
	closeChain := tg.close
	tg.close = func() {
		transport.CloseIdleConnections()
		_ = srv.Close()
		<-served
		closeChain()
	}
	return tg, nil
}

func deployBoutique(tr *tracer) (*target, error) {
	spec := boutique.Spec(boutique.SpecOptions{})
	for i := range spec.Functions {
		f := &spec.Functions[i]
		f.Handler = tr.wrap(f.Name, f.Handler)
	}
	tg, dep, err := deployChain(spec)
	if err != nil {
		return nil, err
	}
	tg.call = invokeInto(dep.Gateway)
	return tg, nil
}

func deployEchoPolling(tr *tracer) (*target, error) {
	tg, dep, err := deployChain(echoSpec(tr, spright.ModePolling))
	if err != nil {
		return nil, err
	}
	tg.call = invokeInto(dep.Gateway)
	return tg, nil
}

func deployXnode(tr *tracer) (*target, error) {
	cluster := spright.NewCluster(2)
	if err := cluster.StartMesh(spright.MeshConfig{}); err != nil {
		return nil, err
	}
	pd, err := cluster.Controller.DeployPlacedChain(spright.ChainSpec{
		Name:    "xnode",
		Mode:    spright.ModeEvent,
		BufSize: 32 << 10,
		Functions: []spright.FunctionSpec{
			{Name: "f0", Node: "worker-1", Handler: tr.wrap("f0", func(*spright.Ctx) error { return nil })},
			{Name: "f1", Node: "worker-2", Handler: tr.wrap("f1", func(ctx *spright.Ctx) error {
				p := ctx.Payload()
				if len(p) < 4 {
					return errors.New("f1: short payload")
				}
				binary.LittleEndian.PutUint32(p[len(p)-4:], crcTail(p))
				return nil
			})},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"f0"}},
			{From: "f0", To: []string{"f1"}},
		},
	})
	if err != nil {
		cluster.StopMesh()
		return nil, err
	}
	return &target{
		cluster: cluster,
		deps:    []*spright.Deployment{pd.Variant("worker-1"), pd.Variant("worker-2")},
		call:    invokeInto(pd.Gateway()),
		close: func() {
			pd.Close()
			cluster.StopMesh()
		},
	}, nil
}

// fanIn is large-fanout's per-request join, keyed by Ctx.Caller(): the
// readers leave their digests in it and the collect call that makes the
// count complete takes them out.
type fanIn struct {
	mu sync.Mutex
	m  map[uint32]fanState
}

type fanState struct {
	arrived int
	digest  [fanReaders]uint64
}

func (f *fanIn) setDigest(caller uint32, reader int, h uint64) {
	f.mu.Lock()
	s := f.m[caller]
	s.digest[reader] = h
	f.m[caller] = s
	f.mu.Unlock()
}

// arrive counts one branch in; the last one gets the digests.
func (f *fanIn) arrive(caller uint32) (digest [fanReaders]uint64, last bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.m[caller]
	s.arrived++
	if s.arrived < fanReaders {
		f.m[caller] = s
		return digest, false
	}
	delete(f.m, caller)
	return s.digest, true
}

func deployFanout(tr *tracer) (*target, error) {
	fan := &fanIn{m: map[uint32]fanState{}}
	reader := func(k int, name string) spright.FunctionSpec {
		return spright.FunctionSpec{Name: name, Handler: tr.wrap(name, func(ctx *spright.Ctx) error {
			obj, err := ctx.OpenObject()
			if err != nil {
				return err
			}
			f := newFolder(k)
			for i := 0; i < obj.Slabs(); i++ {
				f.add(obj.Slab(i))
			}
			fan.setDigest(ctx.Caller(), k, f.h)
			return obj.Close()
		})}
	}
	spec := spright.ChainSpec{
		Name:        "fanout",
		Mode:        spright.ModeEvent,
		PoolBuffers: 1024,
		BufSize:     16 << 10,
		Functions: []spright.FunctionSpec{
			{Name: "split", Handler: tr.wrap("split", func(*spright.Ctx) error { return nil })},
			reader(0, "a"), reader(1, "b"), reader(2, "c"),
			{Name: "collect", Handler: tr.wrap("collect", func(ctx *spright.Ctx) error {
				d, last := fan.arrive(ctx.Caller())
				if !last {
					ctx.Drop()
					return nil
				}
				var out [8]byte
				binary.LittleEndian.PutUint64(out[:], combine(d))
				ctx.DetachObject()
				ctx.Reply()
				return ctx.SetPayload(out[:])
			})},
		},
		Routes: []spright.RouteSpec{
			{From: "", To: []string{"split"}},
			{From: "split", To: []string{"a", "b", "c"}},
			{From: "a", To: []string{"collect"}},
			{From: "b", To: []string{"collect"}},
			{From: "c", To: []string{"collect"}},
		},
	}
	tg, dep, err := deployChain(spec)
	if err != nil {
		return nil, err
	}
	tg.call = func(ctx context.Context, _ *caller, rq *request) ([]byte, error) {
		return dep.Gateway.Invoke(ctx, "", rq.payload)
	}
	return tg, nil
}

// teardown checks the ownership promises at quiescence, then closes the
// workload. Each violation is returned; the caller counts it as a failed
// operation.
func teardown(tg *target) []error {
	var errs []error
	// A reply can reach its caller a moment before the last buffer
	// reference of a dropped fan-in branch is released.
	deadline := time.Now().Add(time.Second)
	for _, d := range tg.deps {
		for d.Chain.Pool().InUse() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := d.Chain.Pool().LeakCheck(); err != nil {
			errs = append(errs, err)
		}
		if st := d.Chain.ObjectStore(); st != nil {
			if err := st.LeakCheck(); err != nil {
				errs = append(errs, err)
			}
		}
		s := d.Gateway.Stats()
		if s.Rejected > 0 || s.Failed > 0 {
			errs = append(errs, fmt.Errorf("gateway %s: %d shed, %d failed", d.Chain.Name(), s.Rejected, s.Failed))
		}
		if n, noted := d.Chain.Errors(); n > 0 {
			errs = append(errs, fmt.Errorf("chain %s noted %d errors: %v", d.Chain.Name(), n, noted))
		}
	}
	for _, n := range tg.cluster.Nodes() {
		if n.Mesh == nil {
			continue
		}
		for _, p := range n.Mesh.Stats().Sent {
			for reason, c := range p.Drops {
				if c > 0 {
					errs = append(errs, fmt.Errorf("mesh %s→%s: %d frames dropped (%s)", n.Name, p.Peer, c, reason))
				}
			}
		}
	}
	tg.close()
	return errs
}

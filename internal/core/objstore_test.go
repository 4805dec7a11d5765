package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/spright-go/spright/internal/shm"
)

// largePayload builds a position-dependent body so any slab misordering in
// the object path shows up as corruption.
func largePayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 7)
	}
	return b
}

// waitObjectsDrained polls until the chain's object store has no live
// objects (request teardown is asynchronous to the response).
func waitObjectsDrained(t *testing.T, c *Chain) {
	t.Helper()
	st := c.ObjectStore()
	deadline := time.Now().Add(2 * time.Second)
	for st.Stats().Objects != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestE2ELargeRequest drives a payload far beyond BufSize through the
// chain: admission assembles it into a multi-slab object, the handler
// reads it in place via Ctx.OpenObject and replies with a small summary.
func TestE2ELargeRequest(t *testing.T) {
	want := largePayload(100_000)
	spec := ChainSpec{
		PoolBuffers: 128,
		BufSize:     4096,
		Functions: []FunctionSpec{{
			Name: "digest",
			Handler: func(ctx *Ctx) error {
				if len(ctx.Payload()) != 0 {
					return fmt.Errorf("buffer payload %d bytes, want 0 (object path)", len(ctx.Payload()))
				}
				r, err := ctx.OpenObject()
				if err != nil {
					return err
				}
				defer r.Close()
				var sum uint64
				n := 0
				for i := 0; i < r.Slabs(); i++ {
					for _, b := range r.Slab(i) {
						sum += uint64(b)
						n++
					}
				}
				if int64(n) != r.Size() {
					return fmt.Errorf("read %d bytes, Size says %d", n, r.Size())
				}
				ctx.DetachObject() // reply is small; drop the request object now
				ctx.Reply()
				return ctx.SetPayload([]byte(fmt.Sprintf("%d:%d", n, sum)))
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"digest"}}},
	}
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			c, g := testChain(t, mode, spec)
			out, err := g.Invoke(context.Background(), "", want)
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for _, b := range want {
				sum += uint64(b)
			}
			if exp := fmt.Sprintf("%d:%d", len(want), sum); string(out) != exp {
				t.Fatalf("digest = %q, want %q", out, exp)
			}
			waitObjectsDrained(t, c)
		})
	}
}

// TestE2ELargeEcho returns the request object untouched: the handler never
// opens it, the gateway assembles the response from the attached object.
func TestE2ELargeEcho(t *testing.T) {
	spec := ChainSpec{
		PoolBuffers: 128,
		BufSize:     4096,
		Functions: []FunctionSpec{{
			Name:    "passthrough",
			Handler: func(ctx *Ctx) error { return nil },
		}},
		Routes: []RouteSpec{{From: "", To: []string{"passthrough"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	want := largePayload(50_000)
	out, err := g.Invoke(context.Background(), "", want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("echoed %d bytes, want %d, content match=%v", len(out), len(want), bytes.Equal(out, want))
	}
	waitObjectsDrained(t, c)
}

// TestE2ELargeResponse has the handler produce a >BufSize response via
// Ctx.ReplyObject.
func TestE2ELargeResponse(t *testing.T) {
	want := largePayload(80_000)
	spec := ChainSpec{
		PoolBuffers: 128,
		BufSize:     4096,
		Functions: []FunctionSpec{{
			Name: "producer",
			Handler: func(ctx *Ctx) error {
				h, err := ctx.PutObject("", want)
				if err != nil {
					return err
				}
				return ctx.ReplyObject(h)
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"producer"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	out, err := g.Invoke(context.Background(), "", []byte("gimme"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("response %d bytes, want %d", len(out), len(want))
	}
	waitObjectsDrained(t, c)
}

// TestFanOutSharedObjectZeroCopy is the fan-out DAG acceptance scenario:
// the producer writes a 10MB intermediate ONCE, attaches it, and fans out
// to N consumers; each consumer reads the object in place. The slab base
// addresses every consumer observes must be identical — one set of
// shared-memory pages, zero copies — and the aggregator's Nth arrival
// replies, after which the intermediate dies with the request.
func TestFanOutSharedObjectZeroCopy(t *testing.T) {
	const consumers = 3
	const objSize = 10 << 20 // the 10MB intermediate from ROADMAP item 4

	intermediate := largePayload(objSize)
	var mu sync.Mutex
	addrs := make(map[string]uintptr) // consumer → first slab base address
	var arrivals int

	consumerFn := func(name string) FunctionSpec {
		return FunctionSpec{
			Name: name,
			Handler: func(ctx *Ctx) error {
				r, err := ctx.OpenObject()
				if err != nil {
					return err
				}
				defer r.Close()
				if r.Size() != objSize {
					return fmt.Errorf("%s: object size %d", name, r.Size())
				}
				s0 := r.Slab(0)
				if len(s0) == 0 || s0[0] != intermediate[0] {
					return fmt.Errorf("%s: corrupt first slab", name)
				}
				mu.Lock()
				addrs[name] = uintptr(unsafe.Pointer(&s0[0]))
				mu.Unlock()
				return nil // default route → aggregator
			},
		}
	}

	spec := ChainSpec{
		PoolBuffers: 4096,
		BufSize:     16 * 1024,
		Functions: []FunctionSpec{
			{
				Name: "producer",
				Handler: func(ctx *Ctx) error {
					h, err := ctx.PutObject("intermediate", intermediate)
					if err != nil {
						return err
					}
					if err := ctx.AttachObject(h); err != nil {
						return err
					}
					return ctx.SetPayload(nil)
				},
			},
			consumerFn("c1"), consumerFn("c2"), consumerFn("c3"),
			{
				Name: "agg",
				Handler: func(ctx *Ctx) error {
					mu.Lock()
					arrivals++
					last := arrivals == consumers
					mu.Unlock()
					if !last {
						ctx.Drop()
						return nil
					}
					// All consumers reported: reply with a small verdict so
					// the gateway does not echo the 10MB object back.
					ctx.DetachObject()
					ctx.Reply()
					return ctx.SetPayload([]byte("done"))
				},
			},
		},
		Routes: []RouteSpec{
			{From: "", To: []string{"producer"}},
			{From: "producer", To: []string{"c1", "c2", "c3"}},
			{From: "c1", To: []string{"agg"}},
			{From: "c2", To: []string{"agg"}},
			{From: "c3", To: []string{"agg"}},
		},
	}
	c, g := testChain(t, ModeEvent, spec)

	st := c.ObjectStore()
	before := st.Stats()
	out, err := g.Invoke(context.Background(), "", []byte("go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "done" {
		t.Fatalf("reply %q", out)
	}
	if len(addrs) != consumers {
		t.Fatalf("only %d consumers reported: %v", len(addrs), addrs)
	}
	// Zero-copy proof: every consumer saw the SAME backing memory.
	var base uintptr
	for name, a := range addrs {
		if base == 0 {
			base = a
		} else if a != base {
			t.Fatalf("consumer %s read a different copy: %#x vs %#x", name, a, base)
		}
	}
	// Written once: exactly one object was committed for the intermediate.
	if puts := st.Stats().Puts - before.Puts; puts != 1 {
		t.Fatalf("intermediate committed %d times, want 1", puts)
	}
	waitObjectsDrained(t, c)
}

// TestServeHTTPPayloadTooLarge413 is the satellite regression test: with
// the object tier disabled, a >BufSize body is refused with HTTP 413 and
// its own shed reason — never a generic 500.
func TestServeHTTPPayloadTooLarge413(t *testing.T) {
	spec := echoSpec()
	spec.BufSize = 4096
	spec.Objects = ObjectPolicy{Disable: true}
	_, g := testChain(t, ModeEvent, spec)

	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(strings.Repeat("x", 8192)))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %q)", rec.Code, rec.Body.String())
	}
	st := g.Stats()
	if st.ShedPayloadTooLarge != 1 {
		t.Fatalf("ShedPayloadTooLarge = %d, want 1", st.ShedPayloadTooLarge)
	}
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}

	// Under the limit still works.
	out, err := g.Invoke(context.Background(), "", []byte("ok"))
	if err != nil || string(out) != "OK" {
		t.Fatalf("small invoke after 413: %q, %v", out, err)
	}
}

// TestPayloadOverObjectCap413 covers the enabled-store flavor: a body over
// ObjectPolicy.MaxObjectBytes is refused identically.
func TestPayloadOverObjectCap413(t *testing.T) {
	spec := echoSpec()
	spec.BufSize = 4096
	spec.Objects = ObjectPolicy{MaxObjectBytes: 16 * 1024}
	c, g := testChain(t, ModeEvent, spec)

	_, err := g.Invoke(context.Background(), "", largePayload(64*1024))
	if !errors.Is(err, shm.ErrPayloadTooLarge) {
		t.Fatalf("Invoke = %v, want ErrPayloadTooLarge", err)
	}
	if st := g.Stats(); st.ShedPayloadTooLarge != 1 {
		t.Fatalf("ShedPayloadTooLarge = %d", st.ShedPayloadTooLarge)
	}
	// Nothing may leak from the rejected chunked write.
	if err := c.ObjectStore().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyReplyToLargeRequestNotEchoed: a handler that explicitly replies
// with an empty body to a >BufSize request — without detaching the request
// object — must return an empty response, exactly as it would for a small
// request. Assembly keys off the carrier bit (cleared by any payload
// write), not off Len==0 plus an attached handle, so the multi-MB request
// object is never echoed by accident.
func TestEmptyReplyToLargeRequestNotEchoed(t *testing.T) {
	var handlerErr error
	spec := ChainSpec{
		PoolBuffers: 128,
		BufSize:     4096,
		Functions: []FunctionSpec{{
			Name: "ack",
			Handler: func(ctx *Ctx) error {
				if !ctx.ObjectIsPayload() {
					handlerErr = errors.New("large request arrived without the carrier bit")
				}
				if err := ctx.SetPayload(nil); err != nil {
					return err
				}
				if ctx.ObjectIsPayload() {
					handlerErr = errors.New("SetPayload did not clear the carrier bit")
				}
				ctx.Reply()
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"ack"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	out, err := g.Invoke(context.Background(), "", largePayload(50_000))
	if err != nil {
		t.Fatal(err)
	}
	if handlerErr != nil {
		t.Fatal(handlerErr)
	}
	if len(out) != 0 {
		t.Fatalf("explicitly empty reply echoed %d bytes of the request object", len(out))
	}
	waitObjectsDrained(t, c)
}

// TestServeHTTPBodyOverObjectCap413 covers the streaming guard on the HTTP
// front door: with the store enabled, a body over MaxObjectBytes is refused
// with 413 after at most cap+1 buffered bytes (http.MaxBytesReader), and an
// under-cap >BufSize body still flows through the object path untouched.
func TestServeHTTPBodyOverObjectCap413(t *testing.T) {
	spec := echoSpec()
	spec.BufSize = 4096
	spec.Objects = ObjectPolicy{MaxObjectBytes: 16 * 1024}
	c, g := testChain(t, ModeEvent, spec)

	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(largePayload(64*1024)))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %q)", rec.Code, rec.Body.String())
	}
	st := g.Stats()
	if st.ShedPayloadTooLarge != 1 {
		t.Fatalf("ShedPayloadTooLarge = %d, want 1", st.ShedPayloadTooLarge)
	}
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}

	// Under the cap but over BufSize: still admitted via the object tier.
	body := largePayload(12 * 1024)
	req = httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("under-cap large body: status = %d (%q)", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("under-cap large body came back %d bytes, want %d", rec.Body.Len(), len(body))
	}
	waitObjectsDrained(t, c)
}

// TestCtxObjectAPIsDisabled pins the ErrObjectsDisabled surface.
func TestCtxObjectAPIsDisabled(t *testing.T) {
	var handlerErr error
	spec := ChainSpec{
		Objects: ObjectPolicy{Disable: true},
		Functions: []FunctionSpec{{
			Name: "f",
			Handler: func(ctx *Ctx) error {
				if _, err := ctx.PutObject("k", []byte("x")); !errors.Is(err, ErrObjectsDisabled) {
					handlerErr = fmt.Errorf("PutObject = %v", err)
				}
				if _, err := ctx.OpenObject(); !errors.Is(err, ErrObjectsDisabled) {
					handlerErr = fmt.Errorf("OpenObject = %v", err)
				}
				if ctx.Objects() != nil {
					handlerErr = errors.New("Objects() not nil on disabled chain")
				}
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"f"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	if c.ObjectStore() != nil {
		t.Fatal("ObjectStore() not nil with Disable")
	}
	if _, err := g.Invoke(context.Background(), "", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if handlerErr != nil {
		t.Fatal(handlerErr)
	}
}

// TestObjectLifetimeOnHandlerError: a handler failing mid-request must not
// leak the attached object — the buffer release path fires the pool hook.
func TestObjectLifetimeOnHandlerError(t *testing.T) {
	spec := ChainSpec{
		PoolBuffers: 64,
		BufSize:     4096,
		Functions: []FunctionSpec{{
			Name: "fail",
			Handler: func(ctx *Ctx) error {
				return errTerminal
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"fail"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	_, err := g.Invoke(context.Background(), "", largePayload(20_000))
	if !errors.Is(err, errTerminal) {
		t.Fatalf("Invoke = %v, want handler error", err)
	}
	waitObjectsDrained(t, c)
}

// TestObjectLookupAcrossRequests: a keyed object put by one request is
// readable by a later one via Lookup and Open when explicitly Ref'd past
// the first request's lifetime.
func TestObjectLookupAcrossRequests(t *testing.T) {
	spec := ChainSpec{
		PoolBuffers: 64,
		BufSize:     4096,
		Functions: []FunctionSpec{{
			Name: "cacher",
			Handler: func(ctx *Ctx) error {
				st := ctx.Objects()
				if string(ctx.Payload()) == "put" {
					// The creator's reference is deliberately NOT attached:
					// the object persists past this request, like a cached
					// model weight.
					if _, err := ctx.PutObject("cached", largePayload(9000)); err != nil {
						return err
					}
					return ctx.SetPayload([]byte("stored"))
				}
				h, ok := st.Lookup("cached")
				if !ok {
					return errors.New("no object under \"cached\"")
				}
				r, err := st.Open(h)
				if err != nil {
					return err
				}
				defer r.Close()
				return ctx.SetPayload([]byte(fmt.Sprintf("%d", r.Size())))
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"cacher"}}},
	}
	c, g := testChain(t, ModeEvent, spec)
	if out, err := g.Invoke(context.Background(), "", []byte("put")); err != nil || string(out) != "stored" {
		t.Fatalf("put: %q, %v", out, err)
	}
	if out, err := g.Invoke(context.Background(), "", []byte("get")); err != nil || string(out) != "9000" {
		t.Fatalf("get: %q, %v", out, err)
	}
	// The cache entry is a deliberate long-lived reference; release it so
	// teardown is leak-free.
	st := c.ObjectStore()
	h, ok := st.Lookup("cached")
	if !ok {
		t.Fatal("cached object vanished")
	}
	if err := st.Release(h); err != nil {
		t.Fatal(err)
	}
	waitObjectsDrained(t, c)
}

// TestGatewayStartRefusedRiderIsARefusal: a peer's frame whose attached object
// the store will not take is refused — Rejected plus the one reason the cause
// names, GatewayStats' contract for every refusal — and not counted admitted
// first: nothing of it reached EPROXY's ingress program, the pool or the store.
func TestGatewayStartRefusedRiderIsARefusal(t *testing.T) {
	rider := []byte("a rider object, 27 bytes ..")
	causes := []struct {
		name  string
		spec  func(s *ChainSpec)
		rider []byte
		err   error
		shed  string
	}{
		{"the store takes it", func(*ChainSpec) {}, rider, nil, ""},
		{"over MaxObjectBytes", func(s *ChainSpec) { s.Objects = ObjectPolicy{MaxObjectBytes: 8} },
			rider, shm.ErrPayloadTooLarge, ShedPayloadTooLarge},
		{"store disabled", func(s *ChainSpec) { s.Objects = ObjectPolicy{Disable: true} },
			rider, shm.ErrPayloadTooLarge, ShedPayloadTooLarge},
		{"pool exhausted mid-Put", func(s *ChainSpec) { s.PoolBuffers, s.BufSize = 2, 4096 },
			largePayload(3 * 4096), ErrBackpressure, ShedPoolExhausted},
	}
	for _, tc := range causes {
		for _, reply := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/reply=%v", tc.name, reply), func(t *testing.T) {
				saw := make(chan int64, 1)
				spec := ChainSpec{
					Functions: []FunctionSpec{{Name: "f", Handler: func(ctx *Ctx) error {
						r, err := ctx.OpenObject()
						if err != nil {
							return err
						}
						saw <- r.Size()
						return r.Close()
					}}},
					Routes: []RouteSpec{{From: "", To: []string{"f"}}},
				}
				tc.spec(&spec)
				c, g := testChain(t, ModeEvent, spec)
				var r Responder
				answer := make(respondTo, 1)
				if reply {
					r = answer
				}
				err := g.InvokeRemote("f", "", []byte("payload"), tc.rider, shm.TraceContext{}, RemoteOrigin{Node: "peer"}, r)
				if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
					t.Fatalf("InvokeRemote: %v, want %v", err, tc.err)
				}
				if tc.err == nil {
					if n := <-saw; n != int64(len(tc.rider)) {
						t.Errorf("the handler opened a %d-byte object, want %d", n, len(tc.rider))
					}
					if reply {
						if err := <-answer; err != nil {
							t.Errorf("the peer was answered %v", err)
						}
					}
				}
				waitUntil(t, 5*time.Second, "the request to leave nothing behind", func() bool {
					return g.Stats().Pending == 0 && c.Pool().InUse() == 0
				})
				s := g.Stats()
				for reason, n := range shedCounts(s) {
					if want := b2u(reason == tc.shed); n != want {
						t.Errorf("shed %q counted %d times, want %d", reason, n, want)
					}
				}
				refused := b2u(tc.err != nil)
				if s.Admitted != 1-refused || s.Rejected != refused {
					t.Errorf("admitted %d, rejected %d; want %d, %d", s.Admitted, s.Rejected, 1-refused, refused)
				}
				if pkts, _ := g.EProxy().L3Stats(); pkts != 1-refused {
					t.Errorf("EPROXY's ingress program counted %d packets, want %d", pkts, 1-refused)
				}
				if st := c.ObjectStore(); st != nil {
					if n := st.Stats().Objects; n != 0 {
						t.Errorf("%d objects left in the store", n)
					}
				}
				select {
				case err := <-answer:
					t.Errorf("the Responder was called (%v) for a request InvokeRemote had answered itself", err)
				default:
				}
			})
		}
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/proto"
)

func TestHTTPAdapterThroughGateway(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	raw := proto.MarshalHTTPRequest(&proto.Message{Method: "POST", Path: "/echo", Body: []byte("abc")})
	out, err := g.IngestRaw(context.Background(), "http", raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := proto.MarshalHTTPResponse(200, []byte("ABC")); !bytes.Equal(out, want) {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestMQTTAdapterConnectHandledByGateway(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	g.Adapters().Attach(MQTTAdapter{})
	// CONNECT must be answered by the gateway without invoking the chain
	reply, err := g.IngestRaw(context.Background(), "mqtt", proto.MarshalMQTTConnect("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) == 0 || reply[0] != proto.MQTTConnAck {
		t.Fatalf("want CONNACK, got % x", reply)
	}
	if g.Stats().Admitted != 0 {
		t.Fatal("CONNECT must not invoke the chain")
	}
}

func TestMQTTAdapterPublishIsFireAndForget(t *testing.T) {
	done := make(chan string, 1)
	spec := ChainSpec{
		Functions: []FunctionSpec{{
			Name: "sensor",
			Handler: func(ctx *Ctx) error {
				select {
				case done <- ctx.Topic:
				default:
				}
				ctx.Drop()
				return nil
			},
		}},
		Routes: []RouteSpec{{From: "", To: []string{"sensor"}}},
	}
	_, g := testChain(t, ModeEvent, spec)
	g.Adapters().Attach(MQTTAdapter{})
	raw := proto.MarshalMQTTPublish("motion/hall", []byte("ON"))
	ack, err := g.IngestRaw(context.Background(), "mqtt", raw)
	if err != nil {
		t.Fatal(err)
	}
	if ack != nil {
		t.Fatalf("QoS-0 PUBLISH must have empty ack, got % x", ack)
	}
	select {
	case topic := <-done:
		if topic != "motion/hall" {
			t.Fatalf("topic %q", topic)
		}
	case <-time.After(time.Second):
		t.Fatal("publish never reached the function")
	}
}

func TestCoAPAdapterRoundTrip(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	g.Adapters().Attach(CoAPAdapter{})
	raw, err := proto.MarshalCoAP(proto.CoAPPost, 7, "park/1", []byte("img"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.IngestRaw(context.Background(), "coap", raw)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, payload, err := proto.UnmarshalCoAP(out)
	if err != nil || !bytes.Equal(payload, []byte("IMG")) {
		t.Fatalf("got %q, %v", payload, err)
	}
}

// TestCoAPAdapterLongUriPath: a request whose Uri-Path options add up to
// more than one option can hold is answered with a response that decodes to
// the same path and the handler's payload.
func TestCoAPAdapterLongUriPath(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	g.Adapters().Attach(CoAPAdapter{})
	segs := []string{strings.Repeat("a", 40000), strings.Repeat("b", 30000)}
	raw := []byte{0x40, proto.CoAPPost, 0, 7} // version 1, CON, no token
	for i, seg := range segs {
		delta := byte(11) // Uri-Path, then the same option again
		if i > 0 {
			delta = 0
		}
		raw = append(raw, delta<<4|14) // 16-bit extended length
		raw = binary.BigEndian.AppendUint16(raw, uint16(len(seg)-269))
		raw = append(raw, seg...)
	}
	raw = append(raw, 0xFF, 'i', 'm', 'g')
	out, err := g.IngestRaw(context.Background(), "coap", raw)
	if err != nil {
		t.Fatal(err)
	}
	_, _, path, payload, err := proto.UnmarshalCoAP(out)
	if err != nil || path != strings.Join(segs, "/") || !bytes.Equal(payload, []byte("IMG")) {
		t.Fatalf("response path of %d bytes, payload %q, %v", len(path), payload, err)
	}
}

func TestCloudEventAdapter(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	g.Adapters().Attach(CloudEventAdapter{})
	// Note: echoSpec routes only From "", so the event type must be
	// routable — it is, because "" route matches any topic.
	raw, _ := proto.MarshalCloudEvent(&proto.CloudEvent{
		SpecVersion: "1.0", ID: "1", Source: "test", Type: "x", Data: []byte("ev"),
	})
	out, err := g.IngestRaw(context.Background(), "cloudevents", raw)
	if err != nil {
		t.Fatal(err)
	}
	e, err := proto.UnmarshalCloudEvent(out)
	if err != nil || !bytes.Equal(e.Data, []byte("EV")) {
		t.Fatalf("got %+v, %v", e, err)
	}
}

func TestAdapterRegistryDynamics(t *testing.T) {
	r := NewAdapterRegistry()
	if _, err := r.Get("http"); err != nil {
		t.Fatal("http adapter must be preloaded")
	}
	if _, err := r.Get("mqtt"); !errors.Is(err, ErrNoAdapter) {
		t.Fatalf("want ErrNoAdapter, got %v", err)
	}
	r.Attach(MQTTAdapter{})
	if _, err := r.Get("mqtt"); err != nil {
		t.Fatal("attach failed")
	}
}

func TestIngestRawUnknownProtocol(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	if _, err := g.IngestRaw(context.Background(), "smtp", nil); !errors.Is(err, ErrNoAdapter) {
		t.Fatalf("want ErrNoAdapter, got %v", err)
	}
}

func TestIngestRawMalformed(t *testing.T) {
	_, g := testChain(t, ModeEvent, echoSpec())
	if _, err := g.IngestRaw(context.Background(), "http", []byte("junk")); !errors.Is(err, proto.ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

// FuzzIngestRaw feeds untrusted bytes to the gateway's raw door under each of
// the four §3.6 adapters, on the echo chain: whatever the bytes decode to — a
// request, a fire-and-forget event, a handshake the gateway answers itself,
// or nothing — IngestRaw returns without panicking, leaves no pending entry
// behind, and gives every buffer back (testChain's LeakCheck at teardown).
func FuzzIngestRaw(f *testing.F) {
	protocols := []string{"http", "mqtt", "coap", "cloudevents"}
	event, err := proto.MarshalCloudEvent(&proto.CloudEvent{
		SpecVersion: "1.0", ID: "1", Source: "fuzz", Type: "x", Data: []byte("ev"),
	})
	if err != nil {
		f.Fatal(err)
	}
	coapSeed, err := proto.MarshalCoAP(proto.CoAPPost, 7, "park/1", []byte("img"))
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		proto.MarshalHTTPRequest(&proto.Message{Method: "POST", Path: "/echo",
			Headers: map[string]string{"X-Topic": "t"}, Body: []byte("abc")}),
		proto.MarshalMQTTConnect("c1"),
		proto.MarshalMQTTPublish("motion/hall", []byte("ON")),
		coapSeed,
		event,
	}
	for sel := range protocols {
		for _, raw := range seeds {
			f.Add(uint8(sel), raw)
		}
	}
	c, g := testChain(f, ModeEvent, echoSpec())
	g.Adapters().Attach(MQTTAdapter{})
	g.Adapters().Attach(CoAPAdapter{})
	g.Adapters().Attach(CloudEventAdapter{})
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := g.IngestRaw(ctx, protocols[int(sel)%len(protocols)], raw)
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("the request never ended: %v", err)
		}
		if n := g.Stats().Pending; n != 0 {
			t.Fatalf("%d pending entries after IngestRaw returned (%v)", n, err)
		}
		if n, errs := c.Errors(); n != 0 {
			t.Fatalf("the chain recorded %v", errs)
		}
	})
}

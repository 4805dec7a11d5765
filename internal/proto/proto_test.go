package proto

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestHTTPRequestRoundTrip(t *testing.T) {
	m := &Message{
		Method:  "POST",
		Path:    "/cart/checkout",
		Headers: map[string]string{"Host": "boutique", "X-Trace": "abc"},
		Body:    []byte(`{"user":"u1"}`),
	}
	wire := MarshalHTTPRequest(m)
	got, err := UnmarshalHTTPRequest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "POST" || got.Path != "/cart/checkout" {
		t.Fatalf("request line mismatch: %+v", got)
	}
	if got.Headers["Host"] != "boutique" || got.Headers["X-Trace"] != "abc" {
		t.Fatalf("headers mismatch: %+v", got.Headers)
	}
	if !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("body mismatch: %q", got.Body)
	}
}

func TestHTTPRequestDefaults(t *testing.T) {
	wire := MarshalHTTPRequest(&Message{})
	if !strings.HasPrefix(string(wire), "GET / HTTP/1.1\r\n") {
		t.Fatalf("defaults wrong: %q", wire)
	}
}

func TestHTTPRequestBinaryBodyRoundTrip(t *testing.T) {
	f := func(body []byte) bool {
		m := &Message{Method: "POST", Path: "/x", Body: body}
		got, err := UnmarshalHTTPRequest(MarshalHTTPRequest(m))
		return err == nil && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPRequestMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("GET /"),
		[]byte("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
		[]byte("NOT-HTTP\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
	}
	for i, c := range cases {
		if _, err := UnmarshalHTTPRequest(c); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
}

func TestHTTPResponseEncoding(t *testing.T) {
	wire := string(MarshalHTTPResponse(200, []byte("hello")))
	if !strings.HasPrefix(wire, "HTTP/1.1 200 OK\r\n") || !strings.Contains(wire, "Content-Length: 5\r\n") ||
		!strings.HasSuffix(wire, "\r\n\r\nhello") {
		t.Fatalf("200 response %q", wire)
	}
	if wire := string(MarshalHTTPResponse(503, nil)); !strings.HasPrefix(wire, "HTTP/1.1 503 ") ||
		!strings.HasSuffix(wire, "\r\n\r\n") {
		t.Fatalf("503 response %q", wire)
	}
}

// Every status the system sends carries its reason phrase; any other code
// still forms a valid status line.
func TestHTTPResponseStatusLine(t *testing.T) {
	for _, c := range []struct {
		status int
		line   string
	}{
		{200, "HTTP/1.1 200 OK"},
		{202, "HTTP/1.1 202 Accepted"},
		{400, "HTTP/1.1 400 Bad Request"},
		{404, "HTTP/1.1 404 Not Found"},
		{500, "HTTP/1.1 500 Internal Server Error"},
		{503, "HTTP/1.1 503 Service Unavailable"},
		{429, "HTTP/1.1 429 Status"},
	} {
		t.Run(fmt.Sprint(c.status), func(t *testing.T) {
			wire := string(MarshalHTTPResponse(c.status, nil))
			if line, _, _ := strings.Cut(wire, "\r\n"); line != c.line {
				t.Fatalf("status line %q, want %q", line, c.line)
			}
		})
	}
}

func TestGRPCRoundTrip(t *testing.T) {
	method := "/hipstershop.CartService/AddItem"
	msg := []byte{1, 2, 3, 4, 5}
	wire := MarshalGRPC(method, msg)
	gm, gb, err := UnmarshalGRPC(wire)
	if err != nil || gm != method || !bytes.Equal(gb, msg) {
		t.Fatalf("got %q %v %v", gm, gb, err)
	}
}

func TestGRPCRoundTripProperty(t *testing.T) {
	f := func(method string, msg []byte) bool {
		if len(method) > 1000 {
			method = method[:1000]
		}
		gm, gb, err := UnmarshalGRPC(MarshalGRPC(method, msg))
		return err == nil && gm == method && bytes.Equal(gb, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGRPCMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{0, 10, 'a'},                     // method length beyond data
		{0, 1, 'a', 1, 0, 0, 0, 0},       // compressed flag set
		{0, 1, 'a', 0, 0, 0, 0, 9, 1, 2}, // body length beyond data
	}
	for i, c := range cases {
		if _, _, err := UnmarshalGRPC(c); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
}

func TestMQTTPublishRoundTrip(t *testing.T) {
	topic := "sensors/motion/hall-3"
	payload := []byte(`{"state":"ON"}`)
	wire := MarshalMQTTPublish(topic, payload)
	gt, gp, err := UnmarshalMQTTPublish(wire)
	if err != nil || gt != topic || !bytes.Equal(gp, payload) {
		t.Fatalf("got %q %q %v", gt, gp, err)
	}
}

func TestMQTTPublishLargePayloadVarint(t *testing.T) {
	// payload large enough to need a 2-byte remaining-length varint
	payload := bytes.Repeat([]byte{0xAB}, 300)
	wire := MarshalMQTTPublish("t", payload)
	_, gp, err := UnmarshalMQTTPublish(wire)
	if err != nil || !bytes.Equal(gp, payload) {
		t.Fatalf("varint round trip failed: %v", err)
	}
}

func TestMQTTPublishProperty(t *testing.T) {
	f := func(topicRaw []byte, payload []byte) bool {
		if len(topicRaw) > 200 {
			topicRaw = topicRaw[:200]
		}
		topic := string(topicRaw)
		gt, gp, err := UnmarshalMQTTPublish(MarshalMQTTPublish(topic, payload))
		return err == nil && gt == topic && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMQTTMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x20, 0},            // wrong packet type
		{0x30, 5, 0},         // truncated
		{0x30, 1, 9},         // body shorter than topic header
		{0x30, 3, 0, 9, 'a'}, // topic length beyond body
	}
	for i, c := range cases {
		if _, _, err := UnmarshalMQTTPublish(c); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
}

func TestMQTTConnectHandshake(t *testing.T) {
	c := MarshalMQTTConnect("camera-7")
	if !IsMQTTConnect(c) {
		t.Fatal("CONNECT not recognized")
	}
	if IsMQTTConnect(MarshalMQTTPublish("t", nil)) {
		t.Fatal("PUBLISH misdetected as CONNECT")
	}
	ack := MarshalMQTTConnAck()
	if ack[0] != MQTTConnAck {
		t.Fatal("CONNACK type wrong")
	}
}

// coap is MarshalCoAP for a path the encoder takes.
func coap(t testing.TB, code byte, mid uint16, path string, payload []byte) []byte {
	t.Helper()
	wire, err := MarshalCoAP(code, mid, path, payload)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestCoAPRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{1}, 3000) // ~3KB snapshot
	wire := coap(t, CoAPPost, 42, "parking/spot/17", payload)
	code, mid, path, body, err := UnmarshalCoAP(wire)
	if err != nil {
		t.Fatal(err)
	}
	if code != CoAPPost || mid != 42 || path != "parking/spot/17" || !bytes.Equal(body, payload) {
		t.Fatalf("got code=%d mid=%d path=%q body=%dB", code, mid, path, len(body))
	}
}

func TestCoAPNoPayload(t *testing.T) {
	wire := coap(t, CoAPGet, 1, "status", nil)
	code, _, path, body, err := UnmarshalCoAP(wire)
	if err != nil || code != CoAPGet || path != "status" || body != nil {
		t.Fatalf("got %d %q %v %v", code, path, body, err)
	}
}

// TestCoAPLongUriPathExtendedOption: a path over 268 bytes takes the 16-bit
// extended length, and one over the 65 804 bytes that length reaches is cut
// at slashes into several options that decode to the same path. A path with
// no slash to cut at is refused, never encoded with a wrapped length.
func TestCoAPLongUriPathExtendedOption(t *testing.T) {
	for _, path := range []string{
		strings.Repeat("a", 300),
		strings.Repeat("a", coapMaxOption),
		strings.Repeat("a", 40000) + "/" + strings.Repeat("b", 29999), // 70 000 bytes
		strings.Repeat("spot/", 14000),                                // 70 000, ends in a slash
		"/" + strings.Repeat("a", 40000) + "/" + strings.Repeat("b", 29998),
		strings.Repeat("a", coapMaxOption) + "//" + strings.Repeat("b", coapMaxOption),
	} {
		wire := coap(t, CoAPPost, 9, path, []byte("x"))
		if _, _, got, _, err := UnmarshalCoAP(wire); err != nil || got != path {
			t.Errorf("%d-byte path: decoded %d bytes, %v", len(path), len(got), err)
		}
	}
	for _, path := range []string{
		strings.Repeat("a", 70000),
		strings.Repeat("a", coapMaxOption+1) + "/b",
		"/" + strings.Repeat("a", coapMaxOption),
	} {
		if wire, err := MarshalCoAP(CoAPPost, 9, path, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("%d-byte path with no cut: encoded %d bytes, %v", len(path), len(wire), err)
		}
	}
}

func TestCoAPMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0xC0, 1, 0, 0},       // bad version (3)
		{0x40, 1, 0, 0, 0xFF}, // payload marker with empty payload
		{0x40, 1, 0, 0, 0xD0}, // option ext byte missing
	}
	for i, c := range cases {
		if _, _, _, _, err := UnmarshalCoAP(c); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
}

func TestCloudEventRoundTrip(t *testing.T) {
	e := &CloudEvent{
		SpecVersion: "1.0",
		ID:          "evt-1",
		Source:      "spright/gateway",
		Type:        "com.example.motion",
		Subject:     "hall-3",
		Data:        []byte(`{"state":"ON"}`),
	}
	wire, err := MarshalCloudEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCloudEvent(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != e.ID || got.Source != e.Source || got.Type != e.Type || !bytes.Equal(got.Data, e.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCloudEventValidation(t *testing.T) {
	bad := []*CloudEvent{
		{SpecVersion: "0.3", ID: "x", Source: "s", Type: "t"},
		{SpecVersion: "1.0", Source: "s", Type: "t"},
		{SpecVersion: "1.0", ID: "x", Type: "t"},
		{SpecVersion: "1.0", ID: "x", Source: "s"},
	}
	for i, e := range bad {
		if _, err := MarshalCloudEvent(e); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
	if _, err := UnmarshalCloudEvent([]byte("{not json")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

// decodeFields decodes in with the decoder sel picks (mod 5: HTTP request,
// gRPC, MQTT PUBLISH, CoAP, CloudEvent) and returns the fields
// it read, printed so that nil and empty bytes read alike, and those fields
// re-encoded by the matching Marshal*.
func decodeFields(t *testing.T, sel byte, in []byte) (fields string, wire []byte, err error) {
	switch sel % 5 {
	case 0:
		m, err := UnmarshalHTTPRequest(in)
		if err != nil {
			return "", nil, err
		}
		wire = MarshalHTTPRequest(m)
		if m.Method == "" { // the encoder's defaults
			m.Method = "GET"
		}
		if m.Path == "" {
			m.Path = "/"
		}
		return fmt.Sprintf("%q %q %q %q", m.Method, m.Path, m.Headers, m.Body), wire, nil
	case 1:
		method, msg, err := UnmarshalGRPC(in)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%q %q", method, msg), MarshalGRPC(method, msg), nil
	case 2:
		topic, payload, err := UnmarshalMQTTPublish(in)
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%q %q", topic, payload), MarshalMQTTPublish(topic, payload), nil
	case 3:
		code, mid, path, payload, err := UnmarshalCoAP(in)
		if err != nil {
			return "", nil, err
		}
		if wire, err = MarshalCoAP(code, mid, path, payload); err != nil {
			t.Fatalf("accepted path %q does not re-encode: %v", path, err)
		}
		return fmt.Sprintf("%d %d %q %q", code, mid, path, payload), wire, nil
	default:
		e, err := UnmarshalCloudEvent(in)
		if err != nil {
			return "", nil, err
		}
		if wire, err = MarshalCloudEvent(e); err != nil {
			t.Fatalf("accepted event %+v does not re-encode: %v", e, err)
		}
		return fmt.Sprintf("%q %q %q %q %q %q", e.SpecVersion, e.ID, e.Source, e.Type, e.Subject, e.Data), wire, nil
	}
}

// FuzzProtoDecoders: the leading byte picks one of the five decoders of bytes
// from outside the system. No input panics one, every error it returns wraps
// ErrMalformed, and what it accepts, re-encoded, decodes to the same fields —
// but for an HTTP request's empty method or path, which the encoder replaces
// with GET and /.
func FuzzProtoDecoders(f *testing.F) {
	event, err := MarshalCloudEvent(&CloudEvent{
		SpecVersion: "1.0", ID: "evt-1", Source: "spright/gateway",
		Type: "com.example.motion", Subject: "hall-3", Data: []byte(`{"state":"ON"}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	for sel, wires := range [][][]byte{
		{
			MarshalHTTPRequest(&Message{
				Method: "POST", Path: "/cart/checkout",
				Headers: map[string]string{"Host": "boutique", "X-Trace": "abc"},
				Body:    []byte(`{"user":"u1"}`),
			}),
			[]byte("  HTTP/1.1\r\n\r\n"), // empty method and path
		},
		{MarshalGRPC("/hipstershop.CartService/AddItem", []byte{1, 2, 3, 4, 5})},
		{
			MarshalMQTTPublish("sensors/motion/hall-3", []byte(`{"state":"ON"}`)),
			MarshalMQTTPublish("t", bytes.Repeat([]byte{0xAB}, 300)), // two-byte varint
		},
		{
			coap(f, CoAPPost, 42, "parking/spot/17", bytes.Repeat([]byte{1}, 64)),
			coap(f, CoAPGet, 1, "status", nil),
			coap(f, CoAPPost, 9, strings.Repeat("a", 300), []byte("x")), // extended option length
		},
		{event},
	} {
		for _, w := range wires {
			f.Add(append([]byte{byte(sel)}, w...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fields, wire, err := decodeFields(t, data[0], data[1:])
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decoder %d: error %v does not wrap ErrMalformed", data[0]%5, err)
			}
			return
		}
		again, _, err := decodeFields(t, data[0], wire)
		if err != nil {
			t.Fatalf("decoder %d: re-encoded %q refused: %v", data[0]%5, wire, err)
		}
		if again != fields {
			t.Fatalf("decoder %d: fields %s re-encoded as %q decode to %s", data[0]%5, fields, wire, again)
		}
	})
}

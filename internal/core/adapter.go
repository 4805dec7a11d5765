package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/spright-go/spright/internal/proto"
)

// Protocol adaptation (§3.6): adapters are event-driven components attached
// to hook points on the gateway datapath, invoked only when a message of
// their protocol arrives, and loadable/unloadable at runtime (the paper's
// dynamic code injection). An adapter translates protocol bytes to the
// protocol-independent AdaptedMessage and encodes responses back.

// AdaptedMessage is the normalized result of protocol adaptation.
type AdaptedMessage struct {
	Topic      string
	Payload    []byte
	NoResponse bool // fire-and-forget protocols (e.g. MQTT QoS 0 PUBLISH)

	// Meta carries protocol-specific response context (message IDs etc.).
	Meta map[string]string
}

// Adapter translates between one application protocol and chain messages.
type Adapter interface {
	// Protocol names the adapter ("http", "mqtt", "coap").
	Protocol() string
	// Decode parses raw bytes. If the bytes are a session-control
	// message the gateway must answer itself (stateful L7 handling,
	// e.g. MQTT CONNECT), Decode returns a non-nil reply and no message.
	Decode(raw []byte) (msg *AdaptedMessage, reply []byte, err error)
	// EncodeResponse encodes a chain response for the original request.
	EncodeResponse(req *AdaptedMessage, payload []byte) ([]byte, error)
	// EncodeAck encodes the acknowledgement for a NoResponse message.
	EncodeAck(req *AdaptedMessage) ([]byte, error)
}

// AdapterRegistry is the set of adapters attached to a gateway's hook
// points.
type AdapterRegistry struct {
	mu       sync.RWMutex
	adapters map[string]Adapter
}

// ErrNoAdapter reports an unhandled protocol.
var ErrNoAdapter = errors.New("core: no adapter attached for protocol")

// NewAdapterRegistry returns a registry preloaded with the HTTP adapter
// (the serverless default; §2 notes HTTP/REST is the primary interface).
func NewAdapterRegistry() *AdapterRegistry {
	r := &AdapterRegistry{adapters: make(map[string]Adapter)}
	r.Attach(HTTPAdapter{})
	return r
}

// Attach loads an adapter at runtime.
func (r *AdapterRegistry) Attach(a Adapter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adapters[a.Protocol()] = a
}

// Get resolves the adapter for a protocol.
func (r *AdapterRegistry) Get(protocol string) (Adapter, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.adapters[protocol]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAdapter, protocol)
	}
	return a, nil
}

// HTTPAdapter handles raw HTTP/1.1 bytes (stateless; §3.6 notes HTTP works
// seamlessly because L4 termination already lives in the gateway).
type HTTPAdapter struct{}

// Protocol implements Adapter.
func (HTTPAdapter) Protocol() string { return "http" }

// Decode implements Adapter.
func (HTTPAdapter) Decode(raw []byte) (*AdaptedMessage, []byte, error) {
	m, err := proto.UnmarshalHTTPRequest(raw)
	if err != nil {
		return nil, nil, err
	}
	topic := m.Headers["X-Topic"]
	if topic == "" {
		topic = m.Path
	}
	return &AdaptedMessage{Topic: topic, Payload: m.Body}, nil, nil
}

// EncodeResponse implements Adapter.
func (HTTPAdapter) EncodeResponse(_ *AdaptedMessage, payload []byte) ([]byte, error) {
	return proto.MarshalHTTPResponse(200, payload), nil
}

// EncodeAck implements Adapter.
func (HTTPAdapter) EncodeAck(_ *AdaptedMessage) ([]byte, error) {
	return proto.MarshalHTTPResponse(202, nil), nil
}

// MQTTAdapter handles MQTT-lite: the gateway answers CONNECT itself
// (stateful L7 session handling stays in the gateway, §3.6) and PUBLISH
// payloads become fire-and-forget chain events whose topic is the MQTT
// topic.
type MQTTAdapter struct{}

// Protocol implements Adapter.
func (MQTTAdapter) Protocol() string { return "mqtt" }

// Decode implements Adapter.
func (MQTTAdapter) Decode(raw []byte) (*AdaptedMessage, []byte, error) {
	if proto.IsMQTTConnect(raw) {
		return nil, proto.MarshalMQTTConnAck(), nil
	}
	topic, payload, err := proto.UnmarshalMQTTPublish(raw)
	if err != nil {
		return nil, nil, err
	}
	return &AdaptedMessage{Topic: topic, Payload: payload, NoResponse: true}, nil, nil
}

// EncodeResponse implements Adapter (unused for QoS-0 PUBLISH).
func (MQTTAdapter) EncodeResponse(req *AdaptedMessage, payload []byte) ([]byte, error) {
	return proto.MarshalMQTTPublish(req.Topic+"/response", payload), nil
}

// EncodeAck implements Adapter: QoS 0 has no PUBACK; an empty ack means
// "accepted".
func (MQTTAdapter) EncodeAck(_ *AdaptedMessage) ([]byte, error) { return nil, nil }

// CoAPAdapter handles CoAP-lite requests (the parking camera workload).
type CoAPAdapter struct{}

// Protocol implements Adapter.
func (CoAPAdapter) Protocol() string { return "coap" }

// Decode implements Adapter.
func (CoAPAdapter) Decode(raw []byte) (*AdaptedMessage, []byte, error) {
	_, mid, path, payload, err := proto.UnmarshalCoAP(raw)
	if err != nil {
		return nil, nil, err
	}
	return &AdaptedMessage{
		Topic:   path,
		Payload: payload,
		Meta:    map[string]string{"mid": fmt.Sprint(mid)},
	}, nil, nil
}

// EncodeResponse implements Adapter: a 2.05 Content response.
func (CoAPAdapter) EncodeResponse(req *AdaptedMessage, payload []byte) ([]byte, error) {
	return proto.MarshalCoAP(69 /* 2.05 */, 0, req.Topic, payload)
}

// EncodeAck implements Adapter: an empty 2.03 Valid.
func (CoAPAdapter) EncodeAck(req *AdaptedMessage) ([]byte, error) {
	return proto.MarshalCoAP(67 /* 2.03 */, 0, req.Topic, nil)
}

// CloudEventAdapter normalizes CloudEvents-structured JSON into chain
// messages (interoperability with Knative eventing, §3.6).
type CloudEventAdapter struct{}

// Protocol implements Adapter.
func (CloudEventAdapter) Protocol() string { return "cloudevents" }

// Decode implements Adapter.
func (CloudEventAdapter) Decode(raw []byte) (*AdaptedMessage, []byte, error) {
	e, err := proto.UnmarshalCloudEvent(raw)
	if err != nil {
		return nil, nil, err
	}
	return &AdaptedMessage{
		Topic:   e.Type,
		Payload: e.Data,
		Meta:    map[string]string{"id": e.ID, "source": e.Source},
	}, nil, nil
}

// EncodeResponse implements Adapter.
func (CloudEventAdapter) EncodeResponse(req *AdaptedMessage, payload []byte) ([]byte, error) {
	return proto.MarshalCloudEvent(&proto.CloudEvent{
		SpecVersion: "1.0",
		ID:          req.Meta["id"] + "-response",
		Source:      "spright/gateway",
		Type:        req.Topic + ".response",
		Data:        payload,
	})
}

// EncodeAck implements Adapter.
func (CloudEventAdapter) EncodeAck(req *AdaptedMessage) ([]byte, error) {
	return CloudEventAdapter{}.EncodeResponse(req, nil)
}

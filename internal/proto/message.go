// Package proto implements the application-layer codecs SPRIGHT touches:
// a compact HTTP/1.1 codec (the serverless lingua franca), gRPC-style
// length-prefixed framing (the online-boutique transport), MQTT-lite and
// CoAP-lite (the IoT protocols of §3.6), and the CloudEvents envelope the
// protocol adapters normalize to.
//
// These are real, byte-level codecs: the gateway and the protocol-
// adaptation hooks execute them on every request, and every call is one
// serialization or deserialization in the overhead audit.
package proto

import (
	"fmt"
	"sort"
)

// Message is the protocol-independent L7 unit that flows through SPRIGHT:
// once a protocol adapter has run, only the Message (payload + routing
// metadata) exists in shared memory.
type Message struct {
	Method  string
	Path    string
	Headers map[string]string
	Body    []byte

	// Topic drives DFR's publish/subscribe routing (§3.2.3). It is
	// extracted from the protocol-specific envelope by the adapter.
	Topic string
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%s %s topic=%q body=%dB}", m.Method, m.Path, m.Topic, len(m.Body))
}

// sortedHeaderKeys gives deterministic serialization.
func sortedHeaderKeys(h map[string]string) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

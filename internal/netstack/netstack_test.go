package netstack

import (
	"errors"
	"strings"
	"testing"

	"github.com/spright-go/spright/internal/cost"
)

type sink struct {
	got []*Packet
}

func (s *sink) Receive(p *Packet) { s.got = append(s.got, p) }

// testNode builds a node with two pods (A at 10.0.0.1, B at 10.0.0.2) each
// behind a veth pair, with routes installed.
func testNode(t *testing.T) (n *Node, sinkA, sinkB *sink) {
	t.Helper()
	n = NewNode()
	hostA, podA := n.AddVethPair("a")
	hostB, podB := n.AddVethPair("b")
	sinkA, sinkB = &sink{}, &sink{}
	podA.SetEndpoint(sinkA)
	podB.SetEndpoint(sinkB)
	n.FIB.AddRoute(0x0a000001, hostA.Ifindex)
	n.FIB.AddRoute(0x0a000002, hostB.Ifindex)
	return
}

func TestExternalInKernelPathAuditsExternalProfile(t *testing.T) {
	n, sinkA, _ := testNode(t)
	p := NewPacket(0xc0a80001, 0x0a000001, make([]byte, 100))
	if err := n.ExternalIn(p); err != nil {
		t.Fatal(err)
	}
	if len(sinkA.got) != 1 {
		t.Fatal("pod A did not receive the packet")
	}
	want := cost.HopExternalIn.Profile()
	got := *p.Audit
	got.BytesCopied = 0
	if got != want {
		t.Fatalf("audit %+v, want external-in profile %+v", got, want)
	}
	if p.Audit.BytesCopied != 100 {
		t.Fatalf("bytes copied %d want 100", p.Audit.BytesCopied)
	}
}

func TestExternalInNoRoute(t *testing.T) {
	n, _, _ := testNode(t)
	p := NewPacket(1, 0xdeadbeef, nil)
	if err := n.ExternalIn(p); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
}

func TestPodToPodKernelPathAuditsCrossPodProfile(t *testing.T) {
	n, _, sinkB := testNode(t)
	p := NewPacket(0x0a000001, 0x0a000002, make([]byte, 50))
	if err := n.PodToPod(p); err != nil {
		t.Fatal(err)
	}
	if len(sinkB.got) != 1 {
		t.Fatal("pod B did not receive")
	}
	want := cost.HopCrossPod.Profile()
	got := *p.Audit
	got.BytesCopied = 0
	if got != want {
		t.Fatalf("audit %+v want cross-pod %+v", got, want)
	}
	if p.Audit.BytesCopied != 100 { // two copies of 50 bytes
		t.Fatalf("bytes copied %d want 100", p.Audit.BytesCopied)
	}
}

func TestLocalhostAuditsIntraPodProfile(t *testing.T) {
	n := NewNode()
	s := &sink{}
	p := NewPacket(0, 0, make([]byte, 10))
	if err := n.Localhost(p, s); err != nil {
		t.Fatal(err)
	}
	want := cost.HopIntraPod.Profile()
	got := *p.Audit
	got.BytesCopied = 0
	if got != want {
		t.Fatalf("audit %+v want intra-pod %+v", got, want)
	}
}

func TestLocalhostNilEndpoint(t *testing.T) {
	n := NewNode()
	if err := n.Localhost(NewPacket(0, 0, nil), nil); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("want ErrNoEndpoint, got %v", err)
	}
}

func TestFIBCrud(t *testing.T) {
	f := NewFIB()
	f.AddRoute(1, 10)
	if ifi, ok := f.Lookup(1); !ok || ifi != 10 {
		t.Fatal("lookup after add failed")
	}
	f.AddRoute(1, 20) // replace
	if ifi, _ := f.Lookup(1); ifi != 20 {
		t.Fatal("route replacement failed")
	}
}

func TestVethPairLinkage(t *testing.T) {
	n := NewNode()
	host, pod := n.AddVethPair("x")
	if host.peer != pod || pod.peer != host {
		t.Fatal("veth peers must reference each other")
	}
	if host.Ifindex == pod.Ifindex {
		t.Fatal("distinct ifindexes required")
	}
}

func TestDeliveryToHostVethForwardsToPodSide(t *testing.T) {
	n, sinkA, _ := testNode(t)
	// route points at host-side veth; delivery must land on the pod side endpoint.
	p := NewPacket(1, 0x0a000001, nil)
	if err := n.ExternalIn(p); err != nil {
		t.Fatal(err)
	}
	if len(sinkA.got) != 1 {
		t.Fatal("not delivered through veth pair")
	}
}

// Localhost delivery hands the packet to any Endpoint, EndpointFunc included.
func TestLocalhostDeliversToEndpointFunc(t *testing.T) {
	n := NewNode()
	var got *Packet
	p := NewPacket(1, 1, make([]byte, 8))
	if err := n.Localhost(p, EndpointFunc(func(q *Packet) { got = q })); err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatal("EndpointFunc did not receive the packet")
	}
}

// A route to a pod whose namespace has no endpoint bound is refused, naming
// the pod-side device, and nothing is delivered.
func TestRoutedPodWithoutEndpointRefused(t *testing.T) {
	n := NewNode()
	host, _ := n.AddVethPair("c")
	n.FIB.AddRoute(0x0a000003, host.Ifindex)
	err := n.PodToPod(NewPacket(0x0a000001, 0x0a000003, nil))
	if !errors.Is(err, ErrNoEndpoint) || !strings.Contains(err.Error(), "veth-c-pod") {
		t.Fatalf("want ErrNoEndpoint naming veth-c-pod, got %v", err)
	}
}

// A FIB entry pointing at an ifindex the node has no device for is refused
// before any delivery.
func TestRouteToUnknownIfindexRefused(t *testing.T) {
	n, sinkA, sinkB := testNode(t)
	n.FIB.AddRoute(0x0a000009, 99)
	if err := n.ExternalIn(NewPacket(1, 0x0a000009, nil)); err == nil || !strings.Contains(err.Error(), "unknown ifindex 99") {
		t.Fatalf("want an unknown-ifindex error, got %v", err)
	}
	if len(sinkA.got)+len(sinkB.got) != 0 {
		t.Fatal("a packet routed to no device was delivered")
	}
}

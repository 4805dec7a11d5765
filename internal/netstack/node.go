package netstack

import (
	"errors"
	"fmt"
	"sync"

	"github.com/spright-go/spright/internal/cost"
)

// DeviceKind distinguishes network devices on the node.
type DeviceKind int

// Device kinds.
const (
	DevVethHost DeviceKind = iota
	DevVethPod
)

// Endpoint receives packets delivered to a device (a pod's network
// namespace / socket layer in the real system).
type Endpoint interface {
	Receive(p *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(p *Packet)

// Receive calls f(p).
func (f EndpointFunc) Receive(p *Packet) { f(p) }

// Device is one network interface.
type Device struct {
	Ifindex int
	Name    string
	Kind    DeviceKind

	peer     *Device  // veth pair peer
	endpoint Endpoint // set on pod-side veths
}

// SetEndpoint binds the receiver of packets delivered to this device.
func (d *Device) SetEndpoint(e Endpoint) { d.endpoint = e }

// Node is one simulated worker node's kernel networking state.
type Node struct {
	mu      sync.RWMutex
	devices map[int]*Device
	nextIf  int

	FIB *FIB
}

// NewNode creates a node with no devices and an empty FIB.
func NewNode() *Node {
	return &Node{
		devices: make(map[int]*Device),
		nextIf:  1,
		FIB:     NewFIB(),
	}
}

func (n *Node) addDevice(name string, kind DeviceKind) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := &Device{Ifindex: n.nextIf, Name: name, Kind: kind}
	n.nextIf++
	n.devices[d.Ifindex] = d
	return d
}

// AddVethPair creates a veth pair: the host side is routed to, the pod side
// belongs to the pod's namespace.
func (n *Node) AddVethPair(podName string) (host, pod *Device) {
	host = n.addDevice("veth-"+podName+"-host", DevVethHost)
	pod = n.addDevice("veth-"+podName+"-pod", DevVethPod)
	host.peer, pod.peer = pod, host
	return host, pod
}

// Device returns the device with the given ifindex.
func (n *Node) Device(ifindex int) (*Device, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, ok := n.devices[ifindex]
	return d, ok
}

// Errors.
var (
	ErrNoRoute    = errors.New("netstack: no route to destination")
	ErrNoEndpoint = errors.New("netstack: destination device has no endpoint")
)

// deliverToDevice hands the packet to a device's bound endpoint, following
// the veth pair to the pod side when targeting the host side.
func (n *Node) deliverToDevice(d *Device, p *Packet) error {
	target := d
	if d.Kind == DevVethHost && d.peer != nil {
		target = d.peer
	}
	if target.endpoint == nil {
		return fmt.Errorf("%w: %s", ErrNoEndpoint, target.Name)
	}
	target.endpoint.Receive(p)
	return nil
}

// ExternalIn delivers an externally arriving packet to the pod that owns the
// destination address over the kernel path, charging the external-in hop
// profile.
func (n *Node) ExternalIn(p *Packet) error {
	return n.route(p, cost.HopExternalIn)
}

// PodToPod carries a packet from one pod to another on the same node across
// both kernel stacks: the cross-pod profile of Table 1.
func (n *Node) PodToPod(p *Packet) error {
	return n.route(p, cost.HopCrossPod)
}

// route looks the destination up in the FIB, charges hop and delivers.
func (n *Node) route(p *Packet, hop cost.Hop) error {
	ifi, ok := n.FIB.Lookup(p.Dst)
	if !ok {
		return ErrNoRoute
	}
	dev, ok := n.Device(ifi)
	if !ok {
		return fmt.Errorf("netstack: route to unknown ifindex %d", ifi)
	}
	p.note(hop)
	return n.deliverToDevice(dev, p)
}

// Localhost carries a packet between two processes inside one pod (sidecar
// ↔ user container) over loopback: the intra-pod profile.
func (n *Node) Localhost(p *Packet, to Endpoint) error {
	if to == nil {
		return ErrNoEndpoint
	}
	p.note(cost.HopIntraPod)
	to.Receive(p)
	return nil
}

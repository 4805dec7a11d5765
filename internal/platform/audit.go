package platform

import (
	"fmt"

	"github.com/spright-go/spright/internal/cost"
	"github.com/spright-go/spright/internal/netstack"
)

// StepAudit is one audited pipeline step (the ①…⑤ columns of Tables 1/2).
type StepAudit struct {
	Label string
	Audit cost.Audit
}

// AuditResult is a full per-request audit of one pipeline.
type AuditResult struct {
	Pipeline string
	Steps    []StepAudit
	External cost.Audit // steps ①② (outside the chain)
	Within   cost.Audit // steps ③… (within the chain)
	Total    cost.Audit
}

const (
	addrIngress = 0x0a000001
	addrBroker  = 0x0a000002
	addrFnBase  = 0x0a000010
)

// newAuditNode assembles a worker node with an ingress pod, a broker/gateway
// pod and n function pods, each behind a veth pair with its route installed.
func newAuditNode(nFns int) *netstack.Node {
	n := netstack.NewNode()
	sink := netstack.EndpointFunc(func(*netstack.Packet) {})
	addPod := func(name string, addr uint32) {
		host, pod := n.AddVethPair(name)
		pod.SetEndpoint(sink)
		n.FIB.AddRoute(addr, host.Ifindex)
	}
	addPod("ingress", addrIngress)
	addPod("broker", addrBroker)
	for i := 0; i < nFns; i++ {
		addPod(fmt.Sprintf("fn%d", i+1), uint32(addrFnBase+i))
	}
	return n
}

// send runs one traversal on the audit node and returns the step's audit.
func send(n *netstack.Node, dst uint32, size int, external bool) cost.Audit {
	p := netstack.NewPacket(0xc0a80001, dst, make([]byte, size))
	var err error
	if external {
		err = n.ExternalIn(p)
	} else {
		err = n.PodToPod(p)
	}
	if err != nil {
		panic("platform: audit traversal failed: " + err.Error())
	}
	return *p.Audit
}

// sidecarCrossing audits the loopback hop between a pod's sidecar and its
// user container.
func sidecarCrossing(n *netstack.Node, size int) cost.Audit {
	p := netstack.NewPacket(0, 0, make([]byte, size))
	sink := netstack.EndpointFunc(func(*netstack.Packet) {})
	if err := n.Localhost(p, sink); err != nil {
		panic("platform: localhost traversal failed: " + err.Error())
	}
	return *p.Audit
}

// Serde attribution (DESIGN.md §5): serialization belongs to the component
// that produces a message, deserialization to the one that parses it. The
// ingress L7 proxy's re-serialization of the forwarded request is audited
// in step ① (hence ser=1, deser=0 there — the paper's Table 1 row); the
// broker parses and the ingress serializes in ②; and each within-chain
// Knative step crosses one proxy endpoint pair and one sidecar, adding two
// serializations and two deserializations. SPRIGHT's descriptor hops touch
// no L7 bytes at all.
func addSerde(a *cost.Audit, ser, deser int) {
	a.Serialize += ser
	a.Deserialize += deser
}

// KnativeAudit reproduces Table 1 structurally for a broker + n-function
// chain at the given payload size: ① client→ingress, ② ingress→broker,
// then alternating broker→fn_i and fn_i→broker steps (2n−1 within-chain
// steps for n functions; the final response leg is excluded as in §2).
func KnativeAudit(nFns, size int) AuditResult {
	n := newAuditNode(nFns)
	res := AuditResult{Pipeline: "knative"}

	s1 := send(n, addrIngress, size, true)
	addSerde(&s1, 1, 0)
	res.Steps = append(res.Steps, StepAudit{"①", s1})

	s2 := send(n, addrBroker, size, false)
	addSerde(&s2, 1, 1)
	res.Steps = append(res.Steps, StepAudit{"②", s2})

	label := '③'
	for i := 0; i < 2*nFns-1; i++ {
		var st cost.Audit
		if i%2 == 0 {
			// broker → fn(i/2): cross-pod then into the sidecar
			st = send(n, uint32(addrFnBase+i/2), size, false)
			st.Add(sidecarCrossing(n, size))
		} else {
			// fn → broker: out through the sidecar then cross-pod
			st = sidecarCrossing(n, size)
			st.Add(send(n, addrBroker, size, false))
		}
		addSerde(&st, 2, 2)
		res.Steps = append(res.Steps, StepAudit{string(label), st})
		label++
	}
	res.finalize(2)
	return res
}

// SprightAudit reproduces Table 2: the same external steps, then n
// zero-copy SPROXY descriptor deliveries (gateway→fn1, fn1→fn2, …: DFR
// means no returns to the gateway between functions).
func SprightAudit(nFns, size int) AuditResult {
	n := newAuditNode(nFns)
	res := AuditResult{Pipeline: "spright"}

	s1 := send(n, addrIngress, size, true)
	addSerde(&s1, 1, 0)
	res.Steps = append(res.Steps, StepAudit{"①", s1})

	s2 := send(n, addrBroker, size, false) // ingress → SPRIGHT gateway
	addSerde(&s2, 1, 1)
	res.Steps = append(res.Steps, StepAudit{"②", s2})

	label := '③'
	for i := 0; i < nFns; i++ {
		st := cost.HopSockmapRedirect.Profile() // 16-byte descriptor: no payload copies
		res.Steps = append(res.Steps, StepAudit{string(label), st})
		label++
	}
	res.finalize(2)
	return res
}

// finalize computes the external/within/total partitions; nExternal is the
// number of leading external steps.
func (r *AuditResult) finalize(nExternal int) {
	for i, s := range r.Steps {
		if i < nExternal {
			r.External.Add(s.Audit)
		} else {
			r.Within.Add(s.Audit)
		}
		r.Total.Add(s.Audit)
	}
}

// WithinShare returns the fraction of a counter incurred within the chain
// (the paper's "80% of overhead comes from networking within the chain").
func (r *AuditResult) WithinShare(get func(cost.Audit) int) float64 {
	t := get(r.Total)
	if t == 0 {
		return 0
	}
	return float64(get(r.Within)) / float64(t)
}

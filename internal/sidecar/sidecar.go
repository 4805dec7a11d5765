// Package sidecar models the service-mesh sidecar proxies compared in Fig. 2:
// Knative's queue proxy, Istio's Envoy sidecar, and OpenFaaS's of-watchdog,
// against a sidecar-less baseline ("Null"). Each profile states the
// per-request CPU cycles the sidecar adds in user space and in the kernel
// (its extra socket traversals), calibrated so the Fig. 2 magnitudes hold:
// a sidecar multiplies per-request cycles by 3–7× and the sidecar path's
// kernel share is roughly half.
package sidecar

// Kind enumerates the compared sidecars.
type Kind int

// Sidecar kinds of Fig. 2.
const (
	Null Kind = iota // function pod without any sidecar
	QueueProxy
	Envoy
	OFWatchdog
)

func (k Kind) String() string {
	switch k {
	case Null:
		return "Null"
	case QueueProxy:
		return "QP"
	case Envoy:
		return "Envoy"
	case OFWatchdog:
		return "OFW"
	default:
		return "sidecar?"
	}
}

// Profile is a sidecar's per-request cost structure.
type Profile struct {
	Kind Kind
	Name string

	// UserCycles is per-request CPU burned inside the sidecar container
	// (buffering, metrics, HTTP re-proxying).
	UserCycles float64
	// UserCyclesPerByte adds payload-size-dependent proxy work.
	UserCyclesPerByte float64
	// KernelCycles is the extra kernel-stack work the sidecar path adds
	// (the two loopback socket traversals of step ④ in Table 1).
	KernelCycles float64
}

// Cycles returns the sidecar's total per-request cycles for a payload.
func (p Profile) Cycles(payloadBytes int) float64 {
	return p.UserCycles + p.UserCyclesPerByte*float64(payloadBytes) + p.KernelCycles
}

// ProfileOf returns the calibrated profile for a sidecar kind. The absolute
// values are chosen once against Fig. 2's Null baseline (~1M cycles per
// NGINX request end to end at 2.2 GHz) so that QP ≈ 3×, Envoy ≈ 4×, and
// OFW ≈ 6.5× total per-request cycles — inside the paper's 3–7× band, with
// the kernel share of the added path at ~55%.
func ProfileOf(k Kind) Profile {
	switch k {
	case Null:
		return Profile{Kind: k, Name: "Null"}
	case QueueProxy:
		return Profile{
			Kind: k, Name: "QP",
			UserCycles:        0.9e6,
			UserCyclesPerByte: 2,
			KernelCycles:      1.1e6,
		}
	case Envoy:
		return Profile{
			Kind: k, Name: "Envoy",
			UserCycles:        1.3e6,
			UserCyclesPerByte: 3,
			KernelCycles:      1.6e6,
		}
	case OFWatchdog:
		return Profile{
			Kind: k, Name: "OFW",
			UserCycles:        2.4e6,
			UserCyclesPerByte: 4,
			KernelCycles:      3.0e6,
		}
	default:
		return Profile{Kind: k, Name: "unknown"}
	}
}

// All returns the Fig. 2 comparison set in presentation order.
func All() []Profile {
	return []Profile{ProfileOf(Null), ProfileOf(QueueProxy), ProfileOf(Envoy), ProfileOf(OFWatchdog)}
}

package shm

import "strconv"

// Trace flags carried in the per-buffer trace header.
const (
	// TraceSampled marks a head-sampled request: every stage it passes
	// through records a span for it.
	TraceSampled uint32 = 1 << 0
	// TraceTail marks a context whose trace must be retained by the tail
	// sampler regardless of outcome — propagated from an upstream chain
	// that already made the retention decision.
	TraceTail uint32 = 1 << 1
)

// TraceContext is the distributed-tracing identity a request carries
// through the zero-copy path: a 128-bit trace ID, the span the next stage
// parents onto, and the sampled/tail flags. It travels in the shared-memory
// buffer *header* — per-handle metadata maintained by the Pool, the
// SPRIGHT analog of DPDK mbuf headroom — not in the descriptor, so
// descriptors stay 16 bytes.
type TraceContext struct {
	TraceHi uint64
	TraceLo uint64
	Span    uint64
	Flags   uint32
}

// Sampled reports whether the context belongs to a sampled trace.
func (tc TraceContext) Sampled() bool { return tc.Flags&TraceSampled != 0 }

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace id>-<16 hex span id>-<2 hex flags>"). It reports
// false for malformed values and for the all-zero trace or span IDs the
// spec declares invalid.
func ParseTraceparent(s string) (TraceContext, bool) {
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	if s[0] != '0' || s[1] != '0' {
		return TraceContext{}, false // only version 00 is understood
	}
	hi, err := strconv.ParseUint(s[3:19], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	lo, err := strconv.ParseUint(s[19:35], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	span, err := strconv.ParseUint(s[36:52], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	fl, err := strconv.ParseUint(s[53:55], 16, 8)
	if err != nil {
		return TraceContext{}, false
	}
	if (hi == 0 && lo == 0) || span == 0 {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceHi: hi, TraceLo: lo, Span: span}
	if fl&1 != 0 {
		tc.Flags = TraceSampled
	}
	return tc, true
}

package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// OTLP-compatible JSON export of completed traces. The obs package cannot
// import internal/core (the orchestrator sits between them), so chains
// publish their traces through the neutral SpanData/TraceData shapes and
// this file renders them in the OpenTelemetry OTLP/HTTP JSON encoding —
// resourceSpans → scopeSpans → spans, hex IDs, nanosecond-string
// timestamps — which any OTLP collector or trace viewer ingests directly.

// SpanData is one stage span in exporter-neutral form.
type SpanData struct {
	SpanID        uint64
	ParentID      uint64 // 0 for the root span
	Name          string // stage name ("request", "handler", "ring.wait", …)
	Function      string // function involved ("" when not applicable)
	Instance      uint32
	StartUnixNano int64
	EndUnixNano   int64
	Error         string
}

// TraceData is one completed trace in exporter-neutral form.
type TraceData struct {
	TraceIDHi uint64
	TraceIDLo uint64
	// Seq is the chain-local retention sequence number; exporters use it
	// as a high-water cursor to ship each trace exactly once.
	Seq    uint64
	Chain  string
	Caller uint32
	Error  string
	Tail   bool
	Spans  []SpanData
}

// otlp* mirror the OTLP/HTTP JSON schema (only the fields we emit).
type otlpDoc struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string      `json:"traceId"`
	SpanID       string      `json:"spanId"`
	ParentSpanID string      `json:"parentSpanId,omitempty"`
	Name         string      `json:"name"`
	Kind         int         `json:"kind"`
	Start        string      `json:"startTimeUnixNano"`
	End          string      `json:"endTimeUnixNano"`
	Attributes   []otlpKV    `json:"attributes,omitempty"`
	Status       *otlpStatus `json:"status,omitempty"`
}

type otlpKV struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
}

type otlpStatus struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

const (
	otlpSpanKindInternal = 1
	otlpStatusError      = 2
)

func strAttr(key, v string) otlpKV {
	return otlpKV{Key: key, Value: otlpValue{StringValue: v}}
}

func intAttr(key string, v uint64) otlpKV {
	return otlpKV{Key: key, Value: otlpValue{IntValue: fmt.Sprintf("%d", v)}}
}

// OTLPJSON renders completed traces as one OTLP/HTTP JSON document, one
// resourceSpans entry per chain (resource service.name "spright/<chain>").
// Empty input yields {"resourceSpans":[]}.
func OTLPJSON(traces []TraceData) ([]byte, error) {
	byChain := make(map[string][]TraceData)
	for _, t := range traces {
		byChain[t.Chain] = append(byChain[t.Chain], t)
	}
	chains := make([]string, 0, len(byChain))
	for c := range byChain {
		chains = append(chains, c)
	}
	sort.Strings(chains)

	doc := otlpDoc{ResourceSpans: []otlpResourceSpans{}}
	for _, chain := range chains {
		ss := otlpScopeSpans{Scope: otlpScope{Name: "spright.tracer"}}
		for _, t := range byChain[chain] {
			traceID := fmt.Sprintf("%016x%016x", t.TraceIDHi, t.TraceIDLo)
			for i, s := range t.Spans {
				sp := otlpSpan{
					TraceID: traceID,
					SpanID:  fmt.Sprintf("%016x", s.SpanID),
					Name:    s.Name,
					Kind:    otlpSpanKindInternal,
					Start:   fmt.Sprintf("%d", s.StartUnixNano),
					End:     fmt.Sprintf("%d", s.EndUnixNano),
				}
				if s.ParentID != 0 {
					sp.ParentSpanID = fmt.Sprintf("%016x", s.ParentID)
				}
				if s.Function != "" {
					sp.Attributes = append(sp.Attributes, strAttr("spright.function", s.Function))
				}
				sp.Attributes = append(sp.Attributes, intAttr("spright.instance", uint64(s.Instance)))
				// Spans[0] is the root request span; an adopted trace's
				// root parents onto the upstream span, so ParentID does not
				// tell it apart.
				if i == 0 {
					sp.Attributes = append(sp.Attributes, intAttr("spright.caller", uint64(t.Caller)))
					if t.Tail {
						sp.Attributes = append(sp.Attributes, strAttr("spright.tail", "true"))
					}
				}
				if s.Error != "" {
					sp.Status = &otlpStatus{Code: otlpStatusError, Message: s.Error}
				}
				ss.Spans = append(ss.Spans, sp)
			}
		}
		doc.ResourceSpans = append(doc.ResourceSpans, otlpResourceSpans{
			Resource: otlpResource{
				Attributes: []otlpKV{strAttr("service.name", "spright/"+chain)},
			},
			ScopeSpans: []otlpScopeSpans{ss},
		})
	}
	return json.Marshal(doc)
}

// TraceFileExporter appends completed traces to a file, one OTLP JSON
// document per line (JSONL). It keeps a per-chain high-water Seq cursor so
// repeated Export calls over overlapping snapshots write each trace once.
type TraceFileExporter struct {
	mu      sync.Mutex
	f       *os.File
	cursors map[string]uint64
}

// NewTraceFileExporter opens (appending) the export file.
func NewTraceFileExporter(path string) (*TraceFileExporter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &TraceFileExporter{f: f, cursors: make(map[string]uint64)}, nil
}

// Export writes the traces not yet shipped (by per-chain Seq cursor) as one
// OTLP JSON line. Returns how many traces were written.
func (e *TraceFileExporter) Export(traces []TraceData) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fresh := make([]TraceData, 0, len(traces))
	for _, t := range traces {
		if t.Seq > e.cursors[t.Chain] {
			fresh = append(fresh, t)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	b, err := OTLPJSON(fresh)
	if err != nil {
		return 0, err
	}
	if _, err := e.f.Write(append(b, '\n')); err != nil {
		return 0, err
	}
	// Advance cursors only after a successful write.
	for _, t := range fresh {
		if t.Seq > e.cursors[t.Chain] {
			e.cursors[t.Chain] = t.Seq
		}
	}
	return len(fresh), nil
}

// Close closes the export file.
func (e *TraceFileExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.f.Close()
}

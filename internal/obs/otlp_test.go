package obs

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleTrace(chain string, seq uint64) TraceData {
	return TraceData{
		TraceIDHi: 0xaaaa000000000000 + seq, TraceIDLo: 0xbbbb,
		Seq: seq, Chain: chain, Caller: 7,
		Spans: []SpanData{
			{SpanID: 0x10 + seq, Name: "request", StartUnixNano: 1000, EndUnixNano: 9000},
			{SpanID: 0x20 + seq, ParentID: 0x10 + seq, Name: "handler", Function: "fn",
				Instance: 1, StartUnixNano: 2000, EndUnixNano: 8000, Error: "boom"},
		},
	}
}

// decodeOTLP unmarshals an OTLP doc into the generic shape tests inspect.
func decodeOTLP(t *testing.T, b []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("OTLP output is not valid JSON: %v\n%s", err, b)
	}
	return doc
}

// rootAttrs returns the attributes of the first span named "request" in an
// OTLP document, keyed by attribute name.
func rootAttrs(t *testing.T, doc map[string]any) map[string]string {
	t.Helper()
	for _, r := range doc["resourceSpans"].([]any) {
		for _, raw := range r.(map[string]any)["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any) {
			sp := raw.(map[string]any)
			if sp["name"] != "request" {
				continue
			}
			out := make(map[string]string)
			for _, kv := range sp["attributes"].([]any) {
				kv := kv.(map[string]any)
				v := kv["value"].(map[string]any)
				val, _ := v["stringValue"].(string)
				if val == "" {
					val, _ = v["intValue"].(string)
				}
				out[kv["key"].(string)] = val
			}
			return out
		}
	}
	t.Fatal("no request span in the document")
	return nil
}

func TestOTLPJSONShape(t *testing.T) {
	// A trace adopted from an inbound context: its root request span
	// (Spans[0]) parents onto the upstream span, and it still carries the
	// caller and tail markers.
	adopted := sampleTrace("gamma", 3)
	adopted.Tail = true
	adopted.Spans[0].ParentID = 0x99
	b, err := OTLPJSON([]TraceData{adopted})
	if err != nil {
		t.Fatal(err)
	}
	if attrs := rootAttrs(t, decodeOTLP(t, b)); attrs["spright.caller"] != "7" || attrs["spright.tail"] != "true" {
		t.Fatalf("adopted root span attributes %v, want spright.caller 7 and spright.tail true", attrs)
	}

	b, err = OTLPJSON([]TraceData{sampleTrace("alpha", 1), sampleTrace("beta", 2)})
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeOTLP(t, b)
	rs := doc["resourceSpans"].([]any)
	if len(rs) != 2 {
		t.Fatalf("resourceSpans per chain: %d, want 2", len(rs))
	}
	// Chains are emitted sorted; each carries service.name spright/<chain>.
	for i, chain := range []string{"alpha", "beta"} {
		entry := rs[i].(map[string]any)
		attrs := entry["resource"].(map[string]any)["attributes"].([]any)
		kv := attrs[0].(map[string]any)
		svc := kv["value"].(map[string]any)["stringValue"].(string)
		if kv["key"] != "service.name" || svc != "spright/"+chain {
			t.Fatalf("resource %d: %v=%q, want service.name=spright/%s", i, kv["key"], svc, chain)
		}
		spans := entry["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any)
		if len(spans) != 2 {
			t.Fatalf("chain %s: %d spans, want 2", chain, len(spans))
		}
		for _, raw := range spans {
			sp := raw.(map[string]any)
			if got := len(sp["traceId"].(string)); got != 32 {
				t.Fatalf("traceId hex length %d, want 32", got)
			}
			if got := len(sp["spanId"].(string)); got != 16 {
				t.Fatalf("spanId hex length %d, want 16", got)
			}
			if sp["kind"].(float64) != 1 {
				t.Fatalf("span kind %v, want 1 (internal)", sp["kind"])
			}
			switch sp["name"] {
			case "request":
				if _, has := sp["parentSpanId"]; has {
					t.Fatal("root span must omit parentSpanId")
				}
				if _, has := sp["status"]; has {
					t.Fatal("clean root span must omit status")
				}
			case "handler":
				if got := len(sp["parentSpanId"].(string)); got != 16 {
					t.Fatalf("parentSpanId hex length %d, want 16", got)
				}
				st := sp["status"].(map[string]any)
				if st["code"].(float64) != 2 || st["message"] != "boom" {
					t.Fatalf("errored span status %v, want code 2 message boom", st)
				}
			}
		}
	}
}

func TestOTLPJSONEmpty(t *testing.T) {
	b, err := OTLPJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"resourceSpans":[]}` {
		t.Fatalf("empty export: %s, want {\"resourceSpans\":[]}", b)
	}
}

func TestTraceFileExporterSeqDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	exp, err := NewTraceFileExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	if n, err := exp.Export([]TraceData{sampleTrace("a", 1), sampleTrace("a", 2)}); err != nil || n != 2 {
		t.Fatalf("first export: n=%d err=%v, want 2", n, err)
	}
	// Overlapping snapshot: only Seq 3 is new; Seq 1-2 must not rewrite.
	if n, err := exp.Export([]TraceData{sampleTrace("a", 2), sampleTrace("a", 3)}); err != nil || n != 1 {
		t.Fatalf("overlapping export: n=%d err=%v, want 1", n, err)
	}
	// Fully stale snapshot writes nothing.
	if n, err := exp.Export([]TraceData{sampleTrace("a", 3)}); err != nil || n != 0 {
		t.Fatalf("stale export: n=%d err=%v, want 0", n, err)
	}
	// Cursors are per chain: chain b starts fresh.
	if n, err := exp.Export([]TraceData{sampleTrace("b", 1)}); err != nil || n != 1 {
		t.Fatalf("new chain export: n=%d err=%v, want 1", n, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSONL lines, want 3 (one per non-empty export)", len(lines))
	}
	for _, ln := range lines {
		decodeOTLP(t, []byte(ln))
	}
}

func TestTracesHandlerFormatsAndLimit(t *testing.T) {
	o := New()
	o.RegisterSpanSource("chainX", func(limit int) []TraceData {
		ts := []TraceData{sampleTrace("chainX", 1), sampleTrace("chainX", 2)}
		if limit > 0 && limit < len(ts) {
			ts = ts[len(ts)-limit:]
		}
		return ts
	})

	// With or without ?format=otlp, /traces is one OTLP document across
	// span sources, and ?limit is forwarded to them.
	for _, url := range []string{"/traces?limit=1", "/traces?format=otlp&limit=1"} {
		rec := httptest.NewRecorder()
		o.TracesHandler(rec, httptest.NewRequest("GET", url, nil))
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: Content-Type %q, want application/json", url, ct)
		}
		doc := decodeOTLP(t, rec.Body.Bytes())
		rs := doc["resourceSpans"].([]any)
		if len(rs) != 1 {
			t.Fatalf("%s: resourceSpans %d, want 1", url, len(rs))
		}
		spans := rs[0].(map[string]any)["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any)
		if len(spans) != 2 { // one trace (limit=1) x two spans
			t.Fatalf("%s: %d spans, want 2 (limit honoured)", url, len(spans))
		}
	}

	// No sources -> an empty OTLP doc, never null.
	o.UnregisterSpanSource("chainX")
	rec := httptest.NewRecorder()
	o.TracesHandler(rec, httptest.NewRequest("GET", "/traces", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != `{"resourceSpans":[]}` {
		t.Fatalf("empty otlp body %q", got)
	}
}

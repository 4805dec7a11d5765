package obs

// Flight-recorder conformance suite (run race-clean via `make race`):
// concurrent emitters stay safe, memory stays bounded by the ring capacity,
// cursor pagination is stable across ring wrap, and the /events handler's
// exposition reconciles with the emitted counts.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestFlightRingBoundedAndOrdered(t *testing.T) {
	r := NewFlightRecorder(8)
	ring := r.RegisterChain("c")
	for i := 0; i < 100; i++ {
		r.Emit("c", EventShed, "fn", "overload", int64(i))
	}
	if got := r.Total(); got != 100 {
		t.Fatalf("Total=%d, want 100", got)
	}
	if got := ring.Total(); got != 100 {
		t.Fatalf("chain ring Total=%d, want 100", got)
	}
	evs := r.Events("c", 0, 0)
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring capacity 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not oldest-first by seq: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	// The retained window is the newest 8: values 92..99.
	if evs[0].Value != 92 || evs[7].Value != 99 {
		t.Fatalf("retained window [%d..%d], want [92..99]", evs[0].Value, evs[7].Value)
	}
}

func TestFlightConcurrentEmitters(t *testing.T) {
	const (
		emitters = 8
		perG     = 500
	)
	r := NewFlightRecorder(64)
	r.RegisterChain("c")
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Emit("c", EventShed, "fn", "overload", int64(g))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Total(); got != emitters*perG {
		t.Fatalf("Total=%d, want %d", got, emitters*perG)
	}
	evs := r.Events("c", 0, 0)
	if len(evs) != 64 {
		t.Fatalf("retained %d, want capacity 64", len(evs))
	}
	seen := make(map[uint64]bool, len(evs))
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestFlightCursorAcrossWrap drains the journal through a paginating cursor
// while new events keep wrapping the ring: every page must be strictly
// newer than the cursor, with no duplicates, exactly as a /events consumer
// polling ?after=N would see.
func TestFlightCursorAcrossWrap(t *testing.T) {
	r := NewFlightRecorder(16)
	r.RegisterChain("c")
	var after uint64
	var got []uint64
	for round := 0; round < 10; round++ {
		// Emit a burst larger than a page but smaller than the ring, so the
		// cursor can keep up while the ring wraps many times over the run.
		for i := 0; i < 12; i++ {
			r.Emit("c", EventScale, "fn", "load", int64(round))
		}
		for {
			page := r.Events("c", after, 5)
			if len(page) == 0 {
				break
			}
			for _, e := range page {
				if e.Seq <= after {
					t.Fatalf("page returned seq %d <= cursor %d", e.Seq, after)
				}
				after = e.Seq
				got = append(got, e.Seq)
			}
		}
	}
	if len(got) != 120 {
		t.Fatalf("cursor drained %d events, want all 120", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("cursor missed events between seq %d and %d", got[i-1], got[i])
		}
	}
}

func TestFlightNilAndRecording(t *testing.T) {
	var nilRec *FlightRecorder
	nilRec.Emit("c", EventShed, "", "", 0) // must not panic

	r := NewFlightRecorder(4)
	r.RegisterChain("c")
	r.Emit("c", EventShed, "", "", 0)
	if r.Total() != 1 {
		t.Fatal("recorder did not journal")
	}
}

// TestFlightEmitAllocFree is the recorder's hot-path contract: a nil
// recorder (what core holds before any sink is wired) and a live one both
// emit without allocating — the journal overwrites preallocated ring slots.
func TestFlightEmitAllocFree(t *testing.T) {
	enabled := NewFlightRecorder(0)
	enabled.RegisterChain("c")
	for _, tc := range []struct {
		name string
		r    *FlightRecorder
	}{
		{"nil", nil},
		{"enabled", enabled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, func() {
				tc.r.Emit("c", EventShed, "fn", "overload", 1)
			}); n != 0 {
				t.Fatalf("Emit allocates %v times per call, want 0", n)
			}
		})
	}
}

func TestFlightUnregisteredChainClusterOnly(t *testing.T) {
	r := NewFlightRecorder(4)
	r.Emit("ghost", EventShed, "", "", 0)
	if got := len(r.Events("", 0, 0)); got != 1 {
		t.Fatalf("cluster ring has %d events, want 1", got)
	}
	if evs := r.Events("ghost", 0, 0); evs != nil {
		t.Fatalf("unregistered chain returned %d events, want nil", len(evs))
	}
}

// TestEventsHandlerConformance reconciles the HTTP exposition against the
// emitted counts and exercises the cursor + error paths.
func TestEventsHandlerConformance(t *testing.T) {
	o := New()
	o.Flight().RegisterChain("c")
	const emitted = 40
	for i := 0; i < emitted; i++ {
		o.Flight().Emit("c", EventShed, "fn", "overload", int64(i))
	}

	get := func(url string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		o.EventsHandler(rec, httptest.NewRequest("GET", url, nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body.String())
		}
		return rec.Code, body
	}

	code, body := get("/events?chain=c")
	if code != 200 {
		t.Fatalf("/events?chain=c -> %d", code)
	}
	if total := body["total"].(float64); total != emitted {
		t.Fatalf("total=%v, want %d", total, emitted)
	}
	if n := len(body["events"].([]any)); n != emitted {
		t.Fatalf("returned %d events, want %d", n, emitted)
	}

	// Cursor pagination: drain in pages of 7 and count every event once.
	var after float64
	drained := 0
	for {
		code, body = get(fmt.Sprintf("/events?chain=c&after=%d&limit=7", int(after)))
		if code != 200 {
			t.Fatalf("paged GET -> %d", code)
		}
		evs := body["events"].([]any)
		if len(evs) == 0 {
			break
		}
		drained += len(evs)
		next := body["next_after"].(float64)
		if next <= after {
			t.Fatalf("next_after did not advance: %v -> %v", after, next)
		}
		after = next
	}
	if drained != emitted {
		t.Fatalf("cursor drained %d, want %d", drained, emitted)
	}

	// Error paths: malformed cursor/limit are 400s, an unknown chain 404.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/events?after=banana", 400},
		{"/events?limit=banana", 400},
		{"/events?limit=-3", 400},
		{"/events?chain=ghost", 404},
	} {
		rec := httptest.NewRecorder()
		o.EventsHandler(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != tc.code {
			t.Fatalf("GET %s -> %d, want %d", tc.url, rec.Code, tc.code)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Fatalf("GET %s: no JSON error body: %s", tc.url, rec.Body.String())
		}
	}
}

// TestTracesHandlerInputValidation: malformed query input is a 400 with a
// JSON error, never a silent coercion; oversized limits clamp.
func TestTracesHandlerInputValidation(t *testing.T) {
	o := New()
	gotLimit := -1
	o.RegisterSpanSource("c", func(limit int) []TraceData {
		gotLimit = limit
		return nil
	})

	for _, tc := range []struct{ url, wantErr string }{
		{"/traces?limit=abc", "not an integer"},
		{"/traces?limit=-1", "must be >= 0"},
		{"/traces?format=xml", "unknown format"},
		{"/traces?format=json", "unknown format"},
		{"/traces?format=OTLP", "unknown format"},
	} {
		rec := httptest.NewRecorder()
		o.TracesHandler(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != 400 {
			t.Fatalf("GET %s -> %d, want 400", tc.url, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: non-JSON error body %q", tc.url, rec.Body.String())
		}
		if !strings.Contains(body["error"], tc.wantErr) {
			t.Fatalf("GET %s: error %q, want %q", tc.url, body["error"], tc.wantErr)
		}
	}

	// A limit beyond the render cap clamps instead of erroring.
	rec := httptest.NewRecorder()
	o.TracesHandler(rec, httptest.NewRequest("GET",
		fmt.Sprintf("/traces?limit=%d", MaxTraceRenderLimit*10), nil))
	if rec.Code != 200 {
		t.Fatalf("oversized limit -> %d, want 200", rec.Code)
	}
	if gotLimit != MaxTraceRenderLimit {
		t.Fatalf("source saw limit %d, want clamp to %d", gotLimit, MaxTraceRenderLimit)
	}
}

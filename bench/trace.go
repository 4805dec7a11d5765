package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	spright "github.com/spright-go/spright"
)

// The traced pass runs one caller, so at most one request is in flight and
// every stamp belongs to the record the caller published in tracer.cur.
// Stamps are taken only in code this benchmark owns: its handlers (or a
// wrapper around the application's), an http.Handler around the ingress,
// and the request body / response writer it hands to the ingress.

// maxEvents bounds handler invocations per request (boutique Ch-6 makes 25).
const maxEvents = 32

type event struct {
	fn      int32
	in, out int64 // ns since tracer.base
}

type record struct {
	t0, t3 int64 // caller's send and return; the caller's goroutine only
	// HTTP server side: wrapper entry, request body fully read (the ingress
	// is about to call into core), first response write (core has
	// returned), wrapper exit. The server's goroutine writes them, and may
	// write s1 after the client already has the reply.
	s0, bodyEOF, writeStart, s1 atomic.Int64
	// Handlers claim a slot of ev with next and publish it with done; the
	// reader takes done, so it never sees a half-written event. (A reply
	// that crossed the mesh's TCP link orders the two in fact, but not in
	// the Go memory model.)
	next, done atomic.Int32
	ev         [maxEvents]event
}

// events returns the handler invocations published so far.
func (r *record) events() []event {
	return r.ev[:min(int(r.done.Load()), maxEvents)]
}

type tracer struct {
	base time.Time
	cur  atomic.Pointer[record]
	recs []record
	fns  []string // handler names, indexed by event.fn
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), recs: make([]record, capacity)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// wrap stamps a handler's entry and exit. A nil tracer returns h untouched:
// end-to-end runs carry no stamping code at all.
func (tr *tracer) wrap(name string, h spright.Handler) spright.Handler {
	if tr == nil {
		return h
	}
	fn := int32(len(tr.fns))
	tr.fns = append(tr.fns, name)
	return func(ctx *spright.Ctx) error {
		r := tr.cur.Load()
		if r == nil {
			return h(ctx)
		}
		in := tr.now()
		err := h(ctx)
		out := tr.now()
		if i := int(r.next.Add(1)) - 1; i < maxEvents {
			r.ev[i] = event{fn: fn, in: in, out: out}
		}
		r.done.Add(1)
		return err
	}
}

// ids maps handler names to the event.fn values wrap gave them.
func (tr *tracer) ids(names []string) map[int32]bool {
	set := map[int32]bool{}
	for i, fn := range tr.fns {
		if slices.Contains(names, fn) {
			set[int32(i)] = true
		}
	}
	return set
}

// wrapHTTP stamps the server side of the ingress from outside it.
func (tr *tracer) wrapHTTP(h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := tr.cur.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		rec.s0.Store(tr.now())
		r.Body = &stampedBody{ReadCloser: r.Body, tr: tr, rec: rec}
		h.ServeHTTP(&stampedWriter{ResponseWriter: w, tr: tr, rec: rec}, r)
		rec.s1.Store(tr.now())
	})
}

type stampedBody struct {
	io.ReadCloser
	tr  *tracer
	rec *record
}

func (b *stampedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.rec.bodyEOF.Store(b.tr.now())
	}
	return n, err
}

type stampedWriter struct {
	http.ResponseWriter
	tr  *tracer
	rec *record
}

func (w *stampedWriter) WriteHeader(code int) {
	w.rec.writeStart.CompareAndSwap(0, w.tr.now())
	w.ResponseWriter.WriteHeader(code)
}

func (w *stampedWriter) Write(p []byte) (int, error) {
	w.rec.writeStart.CompareAndSwap(0, w.tr.now())
	return w.ResponseWriter.Write(p)
}

// Span names. They are the per-layer metric names without the _us suffix.
const (
	spClientToServer = "ingress.client_to_server"
	spServeSelf      = "ingress.serve_self"
	spServerToClient = "ingress.server_to_client"
	spToFirst        = "core.to_first_handler"
	spHop            = "core.hop"
	spReply          = "core.reply"
	spFanoutSpread   = "core.fanout_spread"
	spXFwd           = "orchestrator.xnode_forward"
	spXReply         = "orchestrator.xnode_reply"
	spHandler        = "handler.self"
)

// spanOrder fixes the row order of the budget table.
var spanOrder = []string{
	spClientToServer, spServeSelf, spToFirst, spHandler, spHop, spFanoutSpread,
	spXFwd, spXReply, spReply, spServerToClient,
}

// shape says how a workload's handler events line up into one blocking path.
type shape int

const (
	shapeLinear shape = iota // each handler runs after the previous one
	shapeXnode               // linear, and every hop crosses the mesh
	shapeFanout              // split → readers in parallel → collect
)

type span struct {
	name       string
	start, end int64
}

// tile cuts a request's interval [t0, t3] at each stamp along its blocking
// path. Every cut is clamped to be no earlier than the one before it and no
// later than t3 (the server stamps its exit after the client may have the
// reply), so the spans abut and their durations sum to t3-t0 exactly,
// whatever order concurrent goroutines stamped in.
func tile(r *record, sh shape, readers map[int32]bool) []span {
	evs := slices.Clone(r.events())
	sort.Slice(evs, func(i, j int) bool { return evs[i].in < evs[j].in })

	spans := make([]span, 0, 2*len(evs)+6)
	at := r.t0
	cut := func(name string, t int64) {
		t = min(max(t, at), r.t3)
		spans = append(spans, span{name, at, t})
		at = t
	}
	s0 := r.s0.Load()
	if s0 != 0 {
		cut(spClientToServer, s0)
		cut(spServeSelf, r.bodyEOF.Load())
	}
	gap, last := spHop, spReply
	if sh == shapeXnode {
		gap, last = spXFwd, spXReply
	}
	first := true
	run := func(e event) {
		if first {
			cut(spToFirst, e.in)
			first = false
		} else {
			cut(gap, e.in)
		}
		cut(spHandler, e.out)
	}
	if sh == shapeFanout {
		// split, then the readers as one stage that starts when the first
		// enters, is complete when the last has entered and ends when the
		// slowest leaves, then the collect call that replied (the last in).
		var firstIn, lastIn, lastOut int64
		var collect *event
		seen := false
		for i := range evs {
			e := &evs[i]
			switch {
			case readers[e.fn]:
				if !seen {
					firstIn, seen = e.in, true
				}
				lastIn = e.in
				if e.out > lastOut {
					lastOut = e.out
				}
			case seen:
				collect = e
			default:
				run(*e)
			}
		}
		if seen {
			cut(spHop, firstIn)
			cut(spFanoutSpread, lastIn)
			cut(spHandler, lastOut)
		}
		if collect != nil {
			run(*collect)
		}
	} else {
		for _, e := range evs {
			run(e)
		}
	}
	if s0 != 0 {
		cut(spReply, r.writeStart.Load())
		cut(spServeSelf, r.s1.Load())
		cut(spServerToClient, r.t3)
	} else {
		cut(last, r.t3)
	}
	return spans
}

// budgetRow is one line of the per-workload budget table: the mean time a
// request in the median band spent in spans of this name.
type budgetRow struct {
	Name  string  `json:"name"`
	Us    float64 `json:"us"`
	Count float64 `json:"spans_per_req"`
}

type budget struct {
	rows   []budgetRow
	bandUs float64 // mean latency of the band; the rows sum to it
	p50Us  float64 // traced p50 over every traced request
	n      int     // traced requests
}

// row returns the budget line of this span name; the zero row if the
// workload has no such span.
func (b *budget) row(name string) budgetRow {
	for _, r := range b.rows {
		if r.Name == name {
			return r
		}
	}
	return budgetRow{Name: name}
}

// makeBudget averages the tiled spans over the requests whose latency lies
// between the 40th and 60th percentile. The rows sum to that band's mean
// latency by construction, and the band's mean sits on the traced p50.
func makeBudget(recs []record, sh shape, readers map[int32]bool) budget {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	lat := func(i int) int64 { return recs[i].t3 - recs[i].t0 }
	sort.Slice(order, func(a, b int) bool { return lat(order[a]) < lat(order[b]) })
	b := budget{n: len(recs)}
	if len(recs) == 0 {
		return b
	}
	b.p50Us = float64(lat(order[len(order)/2])) / 1e3
	lo, hi := len(order)*2/5, len(order)*3/5
	if hi <= lo {
		lo, hi = 0, len(order)
	}
	sum := map[string]float64{}
	cnt := map[string]float64{}
	var total float64
	for _, i := range order[lo:hi] {
		for _, s := range tile(&recs[i], sh, readers) {
			sum[s.name] += float64(s.end - s.start)
			cnt[s.name]++
		}
		total += float64(lat(i))
	}
	band := float64(hi - lo)
	b.bandUs = total / band / 1e3
	for _, name := range spanOrder {
		if cnt[name] > 0 {
			b.rows = append(b.rows, budgetRow{name, sum[name] / band / 1e3, cnt[name] / band})
		}
	}
	return b
}

// traceFileRequests bounds the spans written out: the table in memory holds
// every traced request, the file the first few hundred of them.
const traceFileRequests = 500

type fileSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Request int    `json:"request"`
}

// writeTrace writes the spans kept in memory to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, recs []record, sh shape, readers map[int32]bool, b budget) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var spans []fileSpan
	for i := range recs {
		if i == traceFileRequests {
			break
		}
		r := &recs[i]
		spans = append(spans, fileSpan{"request", r.t0, r.t3, "", i})
		for _, s := range tile(r, sh, readers) {
			spans = append(spans, fileSpan{s.name, s.start, s.end, "request", i})
		}
	}
	out := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Traced   int         `json:"traced_requests"`
		P50Us    float64     `json:"traced_p50_us"`
		BandUs   float64     `json:"band_mean_us"`
		Budget   []budgetRow `json:"budget"`
		Spans    []fileSpan  `json:"spans"`
	}{workload, seed, b.n, b.p50Us, b.bandUs, b.rows, spans}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/shm"
)

// hopRecord is what a chain has counted of the hops it ran: the eBPF runs and
// their instructions, SPROXY's per-instance request counters, each socket's
// deliveries, drops and queued hops (the gateway's first), the gateway's
// counters and the errors of the refused hops.
type hopRecord struct {
	runs, insns uint64
	requests    []uint64
	sockets     [][3]uint64
	gateway     GatewayStats
	refusals    []string
}

// runHops sends the same request sequence through a sequential chain in mode,
// then two hops its filter refuses. Observed, every hop is sampled by a tracer
// and decided by an injector without rules, so each one goes through the
// out-of-line wrapper (sendObserved) instead of the common hop's one frame.
func runHops(t *testing.T, mode Mode, observed bool) hopRecord {
	t.Helper()
	spec := seqSpec()
	spec.TraceSampleEvery = -1
	if observed {
		spec.Injector = fault.New(1)
	}
	c, g := testChain(t, mode, spec)
	var tr *Tracer
	if observed {
		tr = traceAll(c, 64)
	}
	for i := 0; i < 16; i++ {
		out, err := g.Invoke(context.Background(), "", []byte("in"))
		if err != nil || string(out) != "in>f1>f2>f3" {
			t.Fatalf("request %d: %q, %v", i, out, err)
		}
	}
	if observed && len(tr.Retained()) != 16 {
		t.Fatalf("%d traces retained of 16 requests", len(tr.Retained()))
	}
	f1, f3 := c.Router().Instances("f1")[0], c.Router().Instances("f3")[0]
	var rec hopRecord
	for _, to := range []struct {
		d    shm.Descriptor
		want error
	}{
		{shm.Descriptor{NextFn: f1.ID(), Caller: NoReply}, ErrFiltered}, // no route f3 -> f1
		{shm.Descriptor{NextFn: 200, Caller: NoReply}, ErrNoSuchFn},     // no instance 200
	} {
		_, err := c.sendOrClaim(f3.ID(), "f3", "f1", to.d, sender{stripe: 1, home: f3.sock})
		if !errors.Is(err, to.want) {
			t.Fatalf("hop f3 -> %d: %v, want %v", to.d.NextFn, err, to.want)
		}
		rec.refusals = append(rec.refusals, err.Error())
	}

	if sp := c.SProxy(); sp != nil {
		es := sp.kernel.EngineStats()
		rec.runs, rec.insns = es.JITRuns+es.InterpRuns, es.Insns
	}
	delivered, dropped := g.SocketStats()
	rec.sockets = append(rec.sockets, [3]uint64{delivered, dropped, g.sock.queuedHops.Load()})
	ids := []uint32{GatewayID}
	for _, in := range c.Instances() {
		delivered, dropped := in.SocketStats()
		rec.sockets = append(rec.sockets, [3]uint64{delivered, dropped, in.QueuedHops()})
		ids = append(ids, in.ID())
	}
	for _, id := range ids {
		if sp := c.SProxy(); sp != nil {
			rec.requests = append(rec.requests, sp.RequestCount(id))
		}
	}
	rec.gateway = g.Stats()
	rec.gateway.ScrapeRate = 0
	return rec
}

// TestHopPathParity: the common hop, one call frame, and the out-of-line
// wrapper that tracing and fault injection take, which makes its attempt with
// the same function, count the same: eBPF runs and instructions, SPROXY's
// request counters, every socket's deliveries, drops and queued hops, and the
// gateway's counters. Refused hops wrap ErrFiltered and ErrNoSuchFn on both.
func TestHopPathParity(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		plain, observed := runHops(t, mode, false), runHops(t, mode, true)
		if got, want := fmt.Sprintf("%+v", observed), fmt.Sprintf("%+v", plain); got != want {
			t.Fatalf("observed hops counted\n %s\nthe common hop\n %s", got, want)
		}
		if mode == ModeEvent && plain.runs == 0 {
			t.Fatal("no SPROXY runs counted")
		}
	})
}

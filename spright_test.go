package spright_test

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spright "github.com/spright-go/spright"
	"github.com/spright-go/spright/internal/boutique"
)

// TestPublicAPIQuickstart exercises exactly the flow the package doc
// promises.
func TestPublicAPIQuickstart(t *testing.T) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: "hello",
		Functions: []spright.FunctionSpec{
			{Name: "greet", Handler: func(ctx *spright.Ctx) error {
				return ctx.SetPayload(append([]byte("hello, "), ctx.Payload()...))
			}},
		},
		Routes: []spright.RouteSpec{{From: "", To: []string{"greet"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	out, err := dep.Gateway.Invoke(context.Background(), "", []byte("world"))
	if err != nil || string(out) != "hello, world" {
		t.Fatalf("got %q, %v", out, err)
	}
}

func TestPublicAPIHTTPServing(t *testing.T) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: "rev",
		Mode: spright.ModeEvent,
		Functions: []spright.FunctionSpec{
			{Name: "reverse", Handler: func(ctx *spright.Ctx) error {
				b := ctx.Payload()
				for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
					b[i], b[j] = b[j], b[i]
				}
				return nil
			}},
		},
		Routes: []spright.RouteSpec{{From: "", To: []string{"reverse"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	srv := httptest.NewServer(dep.Gateway)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/x", "text/plain", strings.NewReader("abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "fedcba" {
		t.Fatalf("got %q", body)
	}
}

func TestPublicAPIPollingMode(t *testing.T) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: "dmode",
		Mode: spright.ModePolling,
		Functions: []spright.FunctionSpec{
			{Name: "id", Handler: func(ctx *spright.Ctx) error { return nil }},
		},
		Routes: []spright.RouteSpec{{From: "", To: []string{"id"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIErrorSentinels(t *testing.T) {
	cluster := spright.NewCluster(1)
	block := make(chan struct{})
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name:        "tiny",
		PoolBuffers: 1,
		Functions: []spright.FunctionSpec{
			{Name: "stall", Handler: func(ctx *spright.Ctx) error { <-block; return nil }},
		},
		Routes: []spright.RouteSpec{{From: "", To: []string{"stall"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	defer close(block) // LIFO: unblock the handler before Close waits on it

	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		dep.Gateway.Invoke(ctx, "", []byte("a"))
	}()
	// wait until the first request holds the single pool buffer
	deadline := time.Now().Add(5 * time.Second)
	for dep.Chain.Pool().Stats().InUse == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the buffer")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = dep.Gateway.Invoke(ctx, "", []byte("b"))
	if !errors.Is(err, spright.ErrBackpressure) {
		t.Fatalf("expected ErrBackpressure, got %v", err)
	}
}

func TestPublicAPIAutoscaler(t *testing.T) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: "as",
		Functions: []spright.FunctionSpec{
			{Name: "f", Handler: func(ctx *spright.Ctx) error { return nil }},
		},
		Routes: []spright.RouteSpec{{From: "", To: []string{"f"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	as := spright.NewAutoscaler(dep, 8)
	if d := as.Evaluate(); len(d) != 0 {
		t.Fatalf("idle chain must not scale: %+v", d)
	}
}

// TestPublicAPIFaultTolerance exercises the failure-recovery knobs
// exactly as the README documents them: seeded injection, panic
// isolation, deadline, retry, and the failure counters in GatewayStats.
func TestPublicAPIFaultTolerance(t *testing.T) {
	cluster := spright.NewCluster(1)
	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
		Name: "chaos",
		Functions: []spright.FunctionSpec{
			{Name: "greet", Handler: func(ctx *spright.Ctx) error { return nil }},
		},
		Routes:   []spright.RouteSpec{{From: "", To: []string{"greet"}}},
		Deadline: 2 * time.Second,
		Retry:    spright.RetryPolicy{MaxAttempts: 3},
		Health:   spright.HealthPolicy{ConsecutiveFailures: 5},
		Injector: spright.NewFaultInjector(42).
			Add(spright.FaultRule{Op: spright.FaultPanic, Function: "greet", MaxCount: 1}).
			Add(spright.FaultRule{Op: spright.FaultError, Function: "greet", MaxCount: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, spright.ErrHandlerPanic) {
		t.Fatalf("want ErrHandlerPanic, got %v", err)
	}
	if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); !errors.Is(err, spright.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// fault budget exhausted: clean service
	if _, err := dep.Gateway.Invoke(context.Background(), "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := dep.Gateway.Stats()
	if s.Crashes != 1 || s.FaultsInjected != 2 || s.Failed != 2 {
		t.Fatalf("stats crashes=%d injected=%d failed=%d, want 1/2/2",
			s.Crashes, s.FaultsInjected, s.Failed)
	}
	if err := dep.Chain.Pool().LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// twoCallerApp is one chain BenchmarkTwoCallers drives: what to deploy and the
// request sequence, drawn once from a fixed seed.
type twoCallerApp struct {
	name string
	spec func() spright.ChainSpec
	reqs [][]byte
}

func twoCallerApps() []twoCallerApp {
	rng := rand.New(rand.NewSource(1))
	// The boutique with Locust-weighted chains, as bench/'s boutique-mix draws it.
	weights := boutique.Weights()
	var total float64
	for _, w := range weights {
		total += w
	}
	shop := make([][]byte, 4096)
	body := make([]byte, 128)
	for i := range shop {
		x, ci := rng.Float64()*total, 0
		for ci < len(weights)-1 && x >= weights[ci] {
			x -= weights[ci]
			ci++
		}
		rng.Read(body)
		shop[i] = boutique.EncodeRequest(ci, body)
	}
	echo := make([][]byte, 1024)
	for i := range echo {
		echo[i] = make([]byte, 256)
		rng.Read(echo[i])
	}
	nop := func(*spright.Ctx) error { return nil }
	return []twoCallerApp{
		{name: "boutique", reqs: shop, spec: func() spright.ChainSpec { return boutique.Spec(boutique.SpecOptions{}) }},
		{name: "echo-polling", reqs: echo, spec: func() spright.ChainSpec {
			return spright.ChainSpec{
				Name: "echo",
				Mode: spright.ModePolling,
				Functions: []spright.FunctionSpec{
					{Name: "upper", Handler: nop},
					{Name: "exclaim", Handler: nop},
				},
				Routes: []spright.RouteSpec{{From: "", To: []string{"upper"}}, {From: "upper", To: []string{"exclaim"}}},
			}
		}},
	}
}

// rate deploys chains copies of the app, each on a cluster of its own, drives
// n requests at them from closed-loop callers — caller c at deployment c mod
// chains — and returns requests per second. With one caller a second
// goroutine spins, as bench/'s solo phase has one: on a guest whose idle loop
// halts the core, a one-caller rate is otherwise the price of waking it.
func (app twoCallerApp) rate(b *testing.B, callers, chains, n int) float64 {
	gws := make([]*spright.Gateway, chains)
	for i := range gws {
		dep, err := spright.NewCluster(1).Controller.DeployChain(app.spec())
		if err != nil {
			b.Fatal(err)
		}
		defer dep.Close()
		gws[i] = dep.Gateway
	}
	var spin atomic.Bool
	var spinning sync.WaitGroup
	if callers == 1 {
		spin.Store(true)
		spinning.Add(1)
		go func() {
			defer spinning.Done()
			for spin.Load() {
			}
		}()
	}
	ctx := context.Background()
	drive := func(n int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				gw, dst := gws[c%chains], make([]byte, 1024)
				for i := c; i < n; i += callers {
					if _, err := gw.InvokeInto(ctx, "", app.reqs[i%len(app.reqs)], dst); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	drive(1024) // workers started, pools filled
	r := float64(n) / drive(n).Seconds()
	spin.Store(false)
	spinning.Wait()
	return r
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return (v[(len(v)-1)/2] + v[len(v)/2]) / 2
}

// BenchmarkTwoCallers is what the second core buys, as one command:
//
//	go test -run '^$' -bench TwoCallers -benchtime 200000x -cpu 2 .
//
// For the boutique (ModeEvent, ~13 hops a request) and the polled echo it
// reports req/s with one closed-loop caller, with two on one chain, and with
// two on two chains of their own — the same code, cores and request mix, and
// no written word in common: the ceiling for two callers on one chain. The
// two-chains row also reports one-chain ÷ two-chains, the share of that
// ceiling the shared chain reaches (1: two requests on one chain write nothing
// in common either). The host's speed drifts by more than the difference, so
// that row measures the two side by side — five rounds of a two-chains slice
// and a one-chain slice, fresh deployments each — and reports the medians.
func BenchmarkTwoCallers(b *testing.B) {
	for _, app := range twoCallerApps() {
		b.Run(app.name+"/one-caller", func(b *testing.B) {
			b.ReportMetric(app.rate(b, 1, 1, b.N), "req/s")
		})
		b.Run(app.name+"/one-chain", func(b *testing.B) {
			b.ReportMetric(app.rate(b, 2, 1, b.N), "req/s")
		})
		b.Run(app.name+"/two-chains", func(b *testing.B) {
			const rounds = 5
			var split, share []float64
			for r := 0; r < rounds; r++ {
				two := app.rate(b, 2, 2, b.N/rounds+1)
				one := app.rate(b, 2, 1, b.N/rounds+1)
				split, share = append(split, two), append(share, one/two)
			}
			b.ReportMetric(median(split), "req/s")
			b.ReportMetric(median(share), "one÷two")
		})
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGatewayConcurrentStress drives the sharded completion path from many
// goroutines mixing every invocation flavour — Invoke, InvokeInto,
// InvokeAsync and deliberately-cancelled requests — and asserts three
// invariants the sharding refactor must preserve:
//
//  1. no lost completions: every synchronous request either returns its
//     own response or a context error, never hangs;
//  2. no waiter-pool corruption: a recycled waiter channel must never
//     surface another request's response, so each response is checked
//     against its unique request payload;
//  3. exact leak accounting: after the storm, the pool drains to zero
//     in-use buffers (the testChain cleanup runs LeakCheck).
//
// Run under -race this also certifies the pending shards, striped
// histogram and parallel completion consumers race-clean.
func TestGatewayConcurrentStress(t *testing.T) {
	for _, mode := range []Mode{ModeEvent, ModePolling} {
		t.Run(mode.String(), func(t *testing.T) {
			spec := echoSpec()
			spec.Functions[0].Concurrency = 8
			_, g := testChain(t, mode, spec)

			const (
				goroutines = 8
				perG       = 200
			)
			var (
				wg        sync.WaitGroup
				responses atomic.Uint64
				cancels   atomic.Uint64
				asyncs    atomic.Uint64
			)
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					dst := make([]byte, 256)
					for i := 0; i < perG; i++ {
						// Unique payload per request: uppercasing it yields a
						// unique expected response, so any cross-request
						// waiter mixup is detected, not just counted.
						payload := []byte(fmt.Sprintf("req-%d-%d", w, i))
						want := bytes.ToUpper(payload)
						switch i % 4 {
						case 0: // allocating synchronous invoke
							out, err := g.Invoke(context.Background(), "", payload)
							if err != nil {
								t.Errorf("Invoke: %v", err)
								return
							}
							if !bytes.Equal(out, want) {
								t.Errorf("Invoke: got %q want %q", out, want)
								return
							}
							responses.Add(1)
						case 1: // zero-alloc synchronous invoke
							n, err := g.InvokeInto(context.Background(), "", payload, dst)
							if err != nil {
								t.Errorf("InvokeInto: %v", err)
								return
							}
							if !bytes.Equal(dst[:n], want) {
								t.Errorf("InvokeInto: got %q want %q", dst[:n], want)
								return
							}
							responses.Add(1)
						case 2: // fire-and-forget
							if err := g.InvokeAsync("", payload); err != nil {
								t.Errorf("InvokeAsync: %v", err)
								return
							}
							asyncs.Add(1)
						case 3: // short-deadline request that may cancel mid-chain
							ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
							out, err := g.Invoke(ctx, "", payload)
							cancel()
							switch {
							case err == nil:
								if !bytes.Equal(out, want) {
									t.Errorf("deadline Invoke: got %q want %q", out, want)
									return
								}
								responses.Add(1)
							case errors.Is(err, context.DeadlineExceeded):
								cancels.Add(1)
							default:
								t.Errorf("deadline Invoke: unexpected error %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			if t.Failed() {
				return
			}
			if responses.Load() == 0 {
				t.Fatal("no synchronous request completed")
			}
			if pendingEntries(g) != 0 {
				t.Fatalf("pending table not empty after storm: %d entries", pendingEntries(g))
			}
			st := g.Stats()
			t.Logf("responses=%d cancels=%d asyncs=%d admitted=%d completed=%d reclaimed=%d",
				responses.Load(), cancels.Load(), asyncs.Load(),
				st.Admitted, st.Completed, st.Reclaimed)
			// The testChain cleanup asserts InUse drains to 0 and LeakCheck
			// passes — the exact accounting half of the invariant.
		})
	}
}

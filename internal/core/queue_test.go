package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/spright-go/spright/internal/shm"
)

// bufCount counts descriptors by Buf, from any goroutine.
type bufCount struct {
	mu sync.Mutex
	n  map[uint32]int
}

func (c *bufCount) add(d shm.Descriptor) {
	c.mu.Lock()
	if c.n == nil {
		c.n = map[uint32]int{}
	}
	c.n[d.Buf]++
	c.mu.Unlock()
}

// TestHandoffQueueContract: both instance queues keep one contract through the
// socket that owns them — FIFO order, idle and QueueLen reading the
// backlog, and a Close that
// reclaims every descriptor still queued exactly once, including those pushed
// while it runs, and lets every worker blocked in next go with false.
func TestHandoffQueueContract(t *testing.T) {
	queues := map[string]func(id uint32, reclaim func(shm.Descriptor)) *Socket{
		"chan": func(id uint32, reclaim func(shm.Descriptor)) *Socket {
			return &Socket{id: id, q: newChanQueue(64, reclaim)}
		},
		"ring": polledSocket,
	}
	for name, mk := range queues {
		t.Run(name, func(t *testing.T) {
			t.Run("order", func(t *testing.T) {
				var reclaimed bufCount
				s := mk(1, reclaimed.add)
				if !s.q.idle() || s.QueueLen() != 0 {
					t.Fatalf("new queue: idle %v, QueueLen %d", s.q.idle(), s.QueueLen())
				}
				for buf := uint32(1); buf <= 3; buf++ {
					if err := s.Deliver(shm.Descriptor{NextFn: 1, Buf: buf, Len: 10 * buf, Caller: 100 + buf}); err != nil {
						t.Fatal(err)
					}
				}
				if s.q.idle() || s.QueueLen() != 3 {
					t.Fatalf("three descriptors: idle %v, QueueLen %d", s.q.idle(), s.QueueLen())
				}
				for buf := uint32(1); buf <= 3; buf++ {
					want := shm.Descriptor{NextFn: 1, Buf: buf, Len: 10 * buf, Caller: 100 + buf}
					if d, ok := s.next(); !ok || d != want {
						t.Fatalf("next: %+v, %v; want %+v", d, ok, want)
					}
				}
				if !s.q.idle() || s.QueueLen() != 0 {
					t.Fatalf("drained queue: idle %v, QueueLen %d", s.q.idle(), s.QueueLen())
				}
				s.Close()
				if len(reclaimed.n) != 0 {
					t.Fatalf("Close of an empty queue reclaimed %v", reclaimed.n)
				}
			})

			t.Run("close-reclaims", func(t *testing.T) {
				var reclaimed bufCount
				s := mk(1, reclaimed.add)
				const n = 10
				for buf := uint32(1); buf <= n; buf++ {
					if err := s.Deliver(shm.Descriptor{Buf: buf}); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
				if len(reclaimed.n) != n {
					t.Fatalf("Close reclaimed %d descriptors, want %d: %v", len(reclaimed.n), n, reclaimed.n)
				}
				for buf, k := range reclaimed.n {
					if buf < 1 || buf > n || k != 1 {
						t.Fatalf("buf %d reclaimed %d times", buf, k)
					}
				}
				if s.QueueLen() != 0 {
					t.Fatalf("QueueLen %d after Close", s.QueueLen())
				}
				if err := s.Deliver(shm.Descriptor{Buf: n + 1}); !errors.Is(err, ErrSocketClosed) {
					t.Fatalf("deliver after Close: %v, want ErrSocketClosed", err)
				}
				if _, ok := s.next(); ok {
					t.Fatal("next after Close returned a descriptor")
				}
			})

			// Pushers and a worker race Close: every descriptor a push
			// accepted is taken by the worker or reclaimed by Close, exactly
			// once, and the worker leaves.
			t.Run("close-under-pushes", func(t *testing.T) {
				var reclaimed, taken, accepted bufCount
				s := mk(1, reclaimed.add)
				var wg sync.WaitGroup
				for p := uint32(0); p < 4; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := uint32(1); ; i++ {
							d := shm.Descriptor{Buf: p<<20 | i}
							switch err := s.Deliver(d); {
							case err == nil:
								accepted.add(d)
							case errors.Is(err, ErrSocketClosed):
								return
							case !errors.Is(err, ErrSocketFull):
								t.Error(err)
								return
							}
						}
					}()
				}
				worker := make(chan struct{})
				go func() {
					defer close(worker)
					for {
						d, ok := s.next()
						if !ok {
							return
						}
						taken.add(d)
					}
				}()
				pollUntil(t, "a backlog behind the worker", func() bool { return s.QueueLen() > 8 })
				s.Close()
				wg.Wait()
				<-worker
				if len(accepted.n) == 0 {
					t.Fatal("no push accepted")
				}
				for buf := range accepted.n {
					if got := taken.n[buf] + reclaimed.n[buf]; got != 1 {
						t.Fatalf("buf %#x: taken %d, reclaimed %d; want once in all", buf, taken.n[buf], reclaimed.n[buf])
					}
				}
				if len(taken.n)+len(reclaimed.n) != len(accepted.n) {
					t.Fatalf("%d taken and %d reclaimed of %d accepted", len(taken.n), len(reclaimed.n), len(accepted.n))
				}
			})

			t.Run("close-wakes-workers", func(t *testing.T) {
				s := mk(1, func(d shm.Descriptor) { t.Errorf("reclaimed %+v from an empty queue", d) })
				inNext := func() int {
					return liveGoroutines(t, func(stack []byte) bool {
						return bytes.Contains(stack, []byte("core.(*"+name+"Queue).next"))
					})
				}
				base := settled(t, "earlier tests' workers to exit", inNext)
				const workers = 3
				done := make(chan bool, workers)
				for w := 0; w < workers; w++ {
					go func() {
						_, ok := s.next()
						done <- ok
					}()
				}
				pollUntil(t, "every worker blocked in next", func() bool { return inNext() == base+workers })
				s.Close()
				for w := 0; w < workers; w++ {
					if <-done {
						t.Fatal("a worker blocked in next got a descriptor from an empty, closed queue")
					}
				}
			})
		})
	}
}

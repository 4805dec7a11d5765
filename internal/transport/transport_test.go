package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/wire"
)

// reservedDeadAddr returns a loopback address that actively refuses
// connections: bind a listener to pick a free port, then close it.
func reservedDeadAddr(t *testing.T) string {
	t.Helper()
	m := NewMesh("probe", Config{})
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := m.Addr()
	m.Close()
	return addr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMeshSendReceiveAndHelloAttribution(t *testing.T) {
	b := NewMesh("node-b", Config{})
	defer b.Close()

	var mu sync.Mutex
	var gotFrom string
	var got wire.Frame
	frames := 0
	b.SetHandler(func(from string, f *wire.Frame) {
		mu.Lock()
		defer mu.Unlock()
		gotFrom = from
		got = *f
		got.Payload = append([]byte(nil), f.Payload...) // pooled: copy out
		frames++
	})
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}

	a := NewMesh("node-a", Config{})
	defer a.Close()
	a.AddPeer("node-b", b.Addr())

	want := wire.Frame{
		Type: wire.TypeRequest, Caller: 7,
		TraceHi: 1, TraceLo: 2, TraceSpan: 3, TraceFlags: 1,
		Chain: "c", Fn: "f2", Topic: "/t", Payload: []byte("cross-node"),
	}
	if err := a.Send("node-b", &want); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, "frame delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return frames == 1
	})

	mu.Lock()
	defer mu.Unlock()
	if gotFrom != "node-a" {
		t.Fatalf("hello attribution: from=%q, want node-a", gotFrom)
	}
	if got.Caller != want.Caller || got.Chain != want.Chain || got.Fn != want.Fn ||
		got.Topic != want.Topic || string(got.Payload) != string(want.Payload) {
		t.Fatalf("frame mismatch: got %+v", got)
	}
	if got.TraceHi != 1 || got.TraceLo != 2 || got.TraceSpan != 3 || got.TraceFlags != 1 {
		t.Fatalf("trace context did not survive the wire: %+v", got)
	}

	st := b.Stats()
	if len(st.Received) != 1 || st.Received[0].Peer != "node-a" || st.Received[0].FramesReceived != 1 {
		t.Fatalf("receive stats not attributed to node-a: %+v", st.Received)
	}
	if st.Received[0].BytesReceived == 0 {
		t.Fatalf("receive stats missing bytes")
	}
	sent := a.Stats().Sent
	if len(sent) != 1 || sent[0].FramesSent != 1 || sent[0].BytesSent == 0 {
		t.Fatalf("send stats wrong: %+v", sent)
	}
}

func TestMeshSendUnknownPeer(t *testing.T) {
	m := NewMesh("lonely", Config{})
	defer m.Close()
	if err := m.Send("ghost", &wire.Frame{Type: wire.TypeRequest}); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("unknown peer: got %v, want ErrNoPeer", err)
	}
}

// TestMeshBatchingUnderBacklog stages a burst of frames while the peer is
// unreachable, then brings the listener up: the writer must coalesce the
// backlog into far fewer writes than frames (the writev batching claim).
func TestMeshBatchingUnderBacklog(t *testing.T) {
	addr := reservedDeadAddr(t)

	const frames = 50
	var mu sync.Mutex
	received := 0

	a := NewMesh("node-a", Config{DialBackoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, MaxAttempts: 1 << 20})
	defer a.Close()
	a.AddPeer("node-b", addr)

	for i := 0; i < frames; i++ {
		f := wire.Frame{Type: wire.TypeRequest, Caller: uint32(i), Chain: "c", Fn: "f", Payload: []byte("x")}
		if err := a.Send("node-b", &f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// Now let the peer come up on the reserved address.
	b := NewMesh("node-b", Config{})
	defer b.Close()
	b.SetHandler(func(from string, f *wire.Frame) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err := b.Listen(addr); err != nil {
		t.Fatalf("listen on reserved addr: %v", err)
	}

	waitFor(t, "backlog delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received == frames
	})

	st := a.Stats().Sent[0]
	if st.FramesSent != frames {
		t.Fatalf("FramesSent=%d, want %d", st.FramesSent, frames)
	}
	if st.Writes >= frames {
		t.Fatalf("no batching: %d writes for %d frames", st.Writes, frames)
	}
	perWrite := float64(st.FramesSent) / float64(st.Writes)
	if perWrite <= 1 {
		t.Fatalf("frames per write %.2f, want > 1", perWrite)
	}
	if st.FramesPerWrite.Count() != st.Writes {
		t.Fatalf("per-write histogram count %d != writes %d", st.FramesPerWrite.Count(), st.Writes)
	}
	if st.FramesPerWrite.Max() <= 1 {
		t.Fatalf("per-write histogram max %.1f, want > 1", st.FramesPerWrite.Max())
	}
}

// TestPeerReusesFlushedBuffer sends frames one at a time, each after the
// previous one was written: the link is never more than one frame deep, so
// every frame is encoded into the buffer the writer has just flushed, and
// neither of the peer's two buffers may ever hold more than one frame. (A
// pool of per-frame buffers handed out in turn touches all of them, and a
// buffer that is never rewound grows with every frame.)
func TestPeerReusesFlushedBuffer(t *testing.T) {
	b := NewMesh("node-b", Config{})
	defer b.Close()
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, *wire.Frame) { got <- struct{}{} })
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	a := NewMesh("node-a", Config{SendRing: 64})
	defer a.Close()
	p := a.AddPeer("node-b", b.Addr())

	payload := make([]byte, 4096)
	frameLen := 0
	for i := 0; i < 200; i++ {
		f := wire.Frame{Type: wire.TypeRequest, Caller: uint32(i), Chain: "c", Fn: "f", Payload: payload}
		frameLen = wire.EncodedSize(&f)
		if err := a.Send("node-b", &f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
		// The handler runs once the frame is on the wire, which can be just
		// before the writer has settled it.
		waitFor(t, "frame settled", func() bool { return a.QueuedTo("node-b") == 0 })
	}
	a.Close() // the writer has exited: its buffers can be read
	for name, buf := range map[string][]byte{"queued": p.queued.buf, "out": p.out.buf} {
		if cap(buf) >= 2*frameLen {
			t.Fatalf("%s buffer grew to %d bytes on a link one %d-byte frame deep", name, cap(buf), frameLen)
		}
	}
}

// TestPeerSendRacingClose has senders race Mesh.Close, on a live link and on
// a dead one: every frame Send accepted must get exactly one outcome —
// written, or reported to the drop handler — so no origin caller is left
// waiting on a frame the peer neither wrote nor dropped.
func TestPeerSendRacingClose(t *testing.T) {
	b := NewMesh("node-b", Config{})
	defer b.Close()
	b.SetHandler(func(string, *wire.Frame) {})
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	for _, tc := range []struct{ name, addr string }{
		{"live", b.Addr()},
		{"dead", reservedDeadAddr(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The window is a few instructions wide: race many closes.
			for round := 0; round < 20; round++ {
				sendRacingClose(t, tc.addr)
			}
		})
	}
}

func sendRacingClose(t *testing.T, addr string) {
	t.Helper()
	a := NewMesh("node-a", Config{SendRing: 64, DialBackoff: time.Millisecond, MaxBackoff: time.Millisecond, MaxAttempts: 1 << 20})
	var dropped atomic.Uint64
	a.SetDropHandler(func(FrameMeta, string, error) { dropped.Add(1) })
	a.AddPeer("peer", addr)

	var accepted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := wire.Frame{Type: wire.TypeRequest, Caller: uint32(g), Chain: "c", Fn: "f", Payload: make([]byte, 64)}
			for {
				switch err := a.Send("peer", &f); {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrMeshClosed):
					return
				case errors.Is(err, ErrBacklog):
					runtime.Gosched()
				default:
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	waitFor(t, "sends to be accepted", func() bool { return accepted.Load() >= 32 })
	a.Close()
	wg.Wait()

	st := a.Stats().Sent[0]
	if got, want := st.FramesSent+dropped.Load(), accepted.Load(); got != want {
		t.Fatalf("%d frames sent + %d dropped = %d outcomes for %d accepted sends",
			st.FramesSent, dropped.Load(), got, want)
	}
	if n := st.Drops[DropConnDown] + st.Drops[DropClosed]; n != dropped.Load() {
		t.Fatalf("%d drops counted, %d reported to the handler", n, dropped.Load())
	}
	if st.QueueDepth != 0 {
		t.Fatalf("%d frames still queued on a closed peer", st.QueueDepth)
	}
}

// TestMeshChaosReconnect kills the live connection via the fault injector
// mid-stream and asserts the writer reconnects (with the reconnect counted)
// and still delivers every frame.
func TestMeshChaosReconnect(t *testing.T) {
	inj := fault.New(1)

	b := NewMesh("node-b", Config{})
	defer b.Close()
	var mu sync.Mutex
	received := 0
	b.SetHandler(func(from string, f *wire.Frame) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}

	a := NewMesh("node-a", Config{Injector: inj})
	defer a.Close()
	a.AddPeer("node-b", b.Addr())

	// First frame establishes the connection.
	if err := a.Send("node-b", &wire.Frame{Type: wire.TypeRequest, Caller: 0, Chain: "c", Fn: "f"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, "first frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received == 1
	})

	// Now arm a one-shot link kill on the a→b mesh edge and keep sending.
	inj.Add(fault.Rule{Op: fault.OpQueueFull, Function: "net:node-a", Hop: "net:node-b", Probability: 1, MaxCount: 1})
	const more = 20
	for i := 1; i <= more; i++ {
		f := wire.Frame{Type: wire.TypeRequest, Caller: uint32(i), Chain: "c", Fn: "f"}
		if err := a.Send("node-b", &f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		time.Sleep(time.Millisecond) // separate flushes so the kill lands on a live conn
	}
	waitFor(t, "delivery after reconnect", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return received == 1+more
	})

	st := a.Stats().Sent[0]
	if st.Reconnects == 0 {
		t.Fatalf("no reconnect counted after injected link kill")
	}
	if st.FramesSent != 1+more {
		t.Fatalf("FramesSent=%d, want %d", st.FramesSent, 1+more)
	}
	if inj.Stats().Total == 0 {
		t.Fatalf("injector never fired")
	}
}

// TestMeshBacklogRefusal fills a tiny send ring against an unreachable peer:
// Send must refuse with ErrBacklog and count the drop, never block.
func TestMeshBacklogRefusal(t *testing.T) {
	addr := reservedDeadAddr(t)
	a := NewMesh("node-a", Config{SendRing: 2, DialBackoff: time.Second, MaxBackoff: time.Second, MaxAttempts: 1 << 20})
	defer a.Close()
	a.AddPeer("dead", addr)

	sawBacklog := false
	for i := 0; i < 16; i++ {
		f := wire.Frame{Type: wire.TypeRequest, Caller: uint32(i), Chain: "c", Fn: "f"}
		if err := a.Send("dead", &f); errors.Is(err, ErrBacklog) {
			sawBacklog = true
			break
		}
	}
	if !sawBacklog {
		t.Fatalf("16 sends into a 2-slot ring against a dead peer never hit ErrBacklog")
	}
	if a.Stats().Sent[0].Drops[DropBacklog] == 0 {
		t.Fatalf("backlog drop not counted")
	}
}

// TestMeshConnDownDrop exhausts the reconnect budget and asserts the staged
// frame is surrendered through the drop callback with reason conn_down and
// intact metadata, so the origin gateway can fail the pending caller.
func TestMeshConnDownDrop(t *testing.T) {
	addr := reservedDeadAddr(t)

	type droppedFrame struct {
		meta   FrameMeta
		reason string
		err    error
	}
	dropped := make(chan droppedFrame, 4)

	a := NewMesh("node-a", Config{DialBackoff: time.Millisecond, MaxBackoff: time.Millisecond, MaxAttempts: 3})
	defer a.Close()
	a.SetDropHandler(func(meta FrameMeta, reason string, err error) {
		dropped <- droppedFrame{meta, reason, err}
	})
	a.AddPeer("dead", addr)

	f := wire.Frame{Type: wire.TypeRequest, Caller: 99, Chain: "c", Fn: "f"}
	if err := a.Send("dead", &f); err != nil {
		t.Fatalf("send: %v", err)
	}

	select {
	case d := <-dropped:
		if d.reason != DropConnDown {
			t.Fatalf("drop reason %q, want %q", d.reason, DropConnDown)
		}
		if !errors.Is(d.err, ErrPeerDown) {
			t.Fatalf("drop error %v, want ErrPeerDown", d.err)
		}
		if d.meta.Caller != 99 || d.meta.Chain != "c" || d.meta.Fn != "f" || d.meta.Type != wire.TypeRequest {
			t.Fatalf("drop meta mangled: %+v", d.meta)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("drop callback never fired")
	}
	if a.Stats().Sent[0].Drops[DropConnDown] == 0 {
		t.Fatalf("conn_down drop not counted")
	}
	if a.QueuedTo("dead") != 0 {
		t.Fatalf("send ring not drained after drop")
	}
}

// TestMeshCloseDropsQueued shuts the mesh down with frames still staged for
// an unreachable peer: they must surface as reason-closed drops, not leak.
func TestMeshCloseDropsQueued(t *testing.T) {
	addr := reservedDeadAddr(t)
	var mu sync.Mutex
	reasons := map[string]int{}

	a := NewMesh("node-a", Config{DialBackoff: time.Second, MaxBackoff: time.Second, MaxAttempts: 1 << 20})
	a.SetDropHandler(func(meta FrameMeta, reason string, err error) {
		mu.Lock()
		reasons[reason]++
		mu.Unlock()
	})
	a.AddPeer("dead", addr)
	const n = 8
	for i := 0; i < n; i++ {
		f := wire.Frame{Type: wire.TypeRequest, Caller: uint32(i), Chain: "c", Fn: "f"}
		if err := a.Send("dead", &f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	a.Close()

	mu.Lock()
	closed := reasons[DropClosed]
	mu.Unlock()
	if closed != n {
		t.Fatalf("closed drops %d, want %d", closed, n)
	}
	if err := a.Send("dead", &wire.Frame{Type: wire.TypeRequest}); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("send after close: got %v, want ErrMeshClosed", err)
	}
}

// TestMeshCorruptFrameTearsConnDown feeds the receive loop garbage bytes and
// asserts it counts the error and survives (later good connections work).
func TestMeshCorruptFrameTearsConnDown(t *testing.T) {
	b := NewMesh("node-b", Config{})
	defer b.Close()
	if err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}

	// A raw connection writing a hostile length prefix.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// Length prefix claiming > MaxFrame.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, "recv error counted", func() bool { return b.Stats().RecvErrors >= 1 })
	conn.Close()

	// The mesh must still accept well-formed traffic.
	a := NewMesh("node-a", Config{})
	defer a.Close()
	got := make(chan struct{}, 1)
	b.SetHandler(func(from string, f *wire.Frame) { got <- struct{}{} })
	a.AddPeer("node-b", b.Addr())
	if err := a.Send("node-b", &wire.Frame{Type: wire.TypeRequest, Chain: "c", Fn: "f"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatalf("mesh stopped accepting after corrupt connection")
	}
}

package transport

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/wire"
)

// dialTimeout bounds one connect attempt so a dead peer costs at most
// MaxAttempts × (dialTimeout + backoff) before the batch is dropped.
const dialTimeout = 250 * time.Millisecond

// outbox is a run of encoded frames stored back to back (length prefixes
// included), with each frame's encoded length and the header-only metadata
// needed to attribute a drop back to its pending caller.
type outbox struct {
	buf   []byte
	lens  []int
	metas []FrameMeta
}

func (o *outbox) reset() {
	o.buf = o.buf[:0]
	o.lens = o.lens[:0]
	o.metas = o.metas[:0]
}

// Peer is one outbound link: Send encodes frames onto the queued outbox
// under one mutex, and a single writer goroutine swaps that outbox with the
// one it has just written and flushes the whole run with one write. The two
// outboxes take turns, so on a link that is rarely deep the next frame is
// encoded into the buffer just flushed, still in cache. Send never blocks on
// the network and never allocates in steady state; SendRing frames queued or
// being written are explicit backpressure (ErrBacklog), exactly like a full
// SPROXY ring inside a node.
type Peer struct {
	mesh *Mesh
	name string
	addr string

	// mu guards queued, inFlight, closed and drops. The writer's last drain
	// sets closed under it, so every frame Send accepts is either written or
	// dropped: none is left behind in a closed peer.
	mu       sync.Mutex
	queued   outbox
	inFlight int // frames taken by the writer, not yet written or dropped
	closed   bool
	drops    map[string]uint64 // by reason

	// notify wakes the writer; capacity 1 so senders never block on it.
	notify chan struct{}

	// Writer-owned state: only the writer goroutine touches it.
	conn      net.Conn
	connected bool
	out       outbox

	framesSent atomic.Uint64
	bytesSent  atomic.Uint64
	writes     atomic.Uint64
	reconnects atomic.Uint64

	// perWrite records the batch size of every successful flush — the
	// batching-factor distribution exported as a summary.
	perWrite *metrics.StripedHistogram
}

func newPeer(m *Mesh, name, addr string) *Peer {
	return &Peer{
		mesh:     m,
		name:     name,
		addr:     addr,
		notify:   make(chan struct{}, 1),
		drops:    make(map[string]uint64),
		perWrite: metrics.NewStripedHistogram(),
	}
}

// Send encodes f onto the queued outbox and wakes the writer. Non-blocking:
// with SendRing frames already queued or being written it returns ErrBacklog
// (counted), leaving ownership of the request with the caller. The frame is
// copied during encode, so f and its Payload may be reused immediately after
// Send returns.
func (p *Peer) Send(f *wire.Frame) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrMeshClosed
	}
	if len(p.queued.lens)+p.inFlight >= p.mesh.cfg.SendRing {
		p.drops[DropBacklog]++
		p.mu.Unlock()
		return ErrBacklog
	}
	q := &p.queued
	n := len(q.buf)
	buf, err := wire.AppendFrame(slices.Grow(q.buf, wire.EncodedSize(f)), f)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	q.buf = buf
	q.lens = append(q.lens, len(buf)-n)
	q.metas = append(q.metas, FrameMeta{Type: f.Type, Flags: f.Flags, Chain: f.Chain, Fn: f.Fn, Caller: f.Caller})
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return nil
}

// settle retires n in-flight frames the kernel has accepted.
func (p *Peer) settle(n int) {
	p.mu.Lock()
	p.inFlight -= n
	p.mu.Unlock()
}

// writer is the peer's single flush goroutine: take the queued run and
// flush it. Connection failures reconnect with exponential backoff; an
// exhausted attempt budget drops the run with reason conn_down so the origin
// gateway can fail the pending callers attributably. At shutdown the peer
// closes and whatever is queued is dropped with reason closed.
func (p *Peer) writer() {
	defer p.mesh.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	for {
		if p.take(false) > 0 {
			p.flush()
		} else {
			select {
			case <-p.notify:
				continue
			case <-p.mesh.stop:
			}
		}
		select {
		case <-p.mesh.stop:
			p.take(true)
			p.drop(0, DropClosed, ErrMeshClosed)
			return
		default:
		}
	}
}

// take swaps the queued outbox with the one just written and returns how
// many frames the writer now holds; closing also refuses every later Send.
func (p *Peer) take(closing bool) int {
	p.out.reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = p.closed || closing
	p.queued, p.out = p.out, p.queued
	p.inFlight = len(p.out.lens)
	return p.inFlight
}

// flush delivers the writer's outbox. Delivery is at-most-once per frame per
// connection: on a write error, frames the kernel fully accepted are counted
// sent; a partially-written frame is resent in full on a fresh connection
// (the receiver discards the truncated prefix at EOF).
func (p *Peer) flush() {
	cfg := p.mesh.cfg
	attempts := 0
	backoff := cfg.DialBackoff
	first, off := 0, 0 // the first unwritten frame and its byte offset
	for first < len(p.out.lens) {
		if cfg.Injector != nil && p.conn != nil {
			// Chaos hook: a queue-full rule on the net:src→net:dst hop
			// models a link failure by killing the live connection.
			if cfg.Injector.DecideSend("net:"+p.mesh.node, "net:"+p.name) {
				p.conn.Close()
				p.conn = nil
			}
		}
		if p.conn == nil {
			if attempts >= cfg.MaxAttempts {
				p.drop(first, DropConnDown, ErrPeerDown)
				return
			}
			attempts++
			conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err != nil {
				if !p.sleepBackoff(backoff) {
					p.drop(first, DropClosed, ErrMeshClosed)
					return
				}
				backoff *= 2
				if backoff > cfg.MaxBackoff {
					backoff = cfg.MaxBackoff
				}
				continue
			}
			if p.connected {
				p.reconnects.Add(1)
				p.mesh.notifyReconnect(p.name, attempts)
			}
			p.connected = true
			p.conn = conn
			if err := p.sendHello(conn); err != nil {
				conn.Close()
				p.conn = nil
				continue
			}
		}
		batch := len(p.out.lens) - first
		nw, err := p.conn.Write(p.out.buf[off:])
		if err == nil {
			p.writes.Add(1)
			p.perWrite.Observe(p.writes.Load(), float64(batch))
			p.framesSent.Add(uint64(batch))
			p.bytesSent.Add(uint64(len(p.out.buf) - off))
			p.settle(batch)
			return
		}
		// Partial write: credit fully-accepted frames, keep the rest.
		credited := 0
		for first < len(p.out.lens) && nw >= p.out.lens[first] {
			n := p.out.lens[first]
			nw -= n
			off += n
			first++
			credited++
			p.framesSent.Add(1)
			p.bytesSent.Add(uint64(n))
		}
		p.settle(credited)
		p.conn.Close()
		p.conn = nil
	}
}

// sendHello writes the per-connection hello frame announcing this node's
// name, so the receiver attributes inbound counters to the right peer.
func (p *Peer) sendHello(conn net.Conn) error {
	hello, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TypeHello, Fn: p.mesh.node})
	if err != nil {
		return err
	}
	_, err = conn.Write(hello)
	return err
}

func (p *Peer) sleepBackoff(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.mesh.stop:
		return false
	}
}

// drop gives up on the writer's outbox from frame first on: every frame is
// reported to the mesh's drop callback with its attributed reason.
func (p *Peer) drop(first int, reason string, err error) {
	metas := p.out.metas[first:]
	p.mu.Lock()
	p.inFlight -= len(metas)
	p.drops[reason] += uint64(len(metas))
	p.mu.Unlock()
	for _, meta := range metas {
		p.mesh.notifyDrop(meta, reason, err)
	}
}

// queueDepth counts the frames accepted and not yet written or dropped.
func (p *Peer) queueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queued.lens) + p.inFlight
}

func (p *Peer) snapshot(name string) PeerStatsSnapshot {
	p.mu.Lock()
	depth := len(p.queued.lens) + p.inFlight
	drops := make(map[string]uint64, len(p.drops))
	for k, v := range p.drops {
		drops[k] = v
	}
	p.mu.Unlock()
	return PeerStatsSnapshot{
		Peer:           name,
		FramesSent:     p.framesSent.Load(),
		BytesSent:      p.bytesSent.Load(),
		Writes:         p.writes.Load(),
		Reconnects:     p.reconnects.Load(),
		QueueDepth:     depth,
		Drops:          drops,
		FramesPerWrite: p.perWrite.Snapshot(),
	}
}

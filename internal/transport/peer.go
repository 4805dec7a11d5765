package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/ring"
	"github.com/spright-go/spright/internal/wire"
)

// dialTimeout bounds one connect attempt so a dead peer costs at most
// MaxAttempts × (dialTimeout + backoff) before the batch is dropped.
const dialTimeout = 250 * time.Millisecond

// slot is one reusable encode cell of a peer's send ring: the frame bytes
// (length prefix included) plus the header-only metadata needed to attribute
// a drop back to its pending caller.
type slot struct {
	buf  []byte
	meta FrameMeta
}

// Peer is one outbound link: a fixed pool of encode slots that move from a
// free stack to the staged rte_ring and back, and a single writer goroutine
// that drains staged slots in bursts and flushes each burst as one
// writev-style net.Buffers write. Send never blocks and never allocates in
// steady state — a full ring is explicit backpressure (ErrBacklog), exactly
// like a full SPROXY ring inside a node.
type Peer struct {
	mesh *Mesh
	name string
	addr string

	slots []slot
	send  *ring.Ring // slot indices staged for the writer (MP prod, SP cons)

	// free holds the idle slot indices, last freed on top, so the next frame
	// is encoded into the buffer the writer has just flushed while it is
	// still in cache. Handing slots out in turn instead would touch all of
	// them — 1024 buffers of the largest frame seen, 16 MiB at 16 KiB
	// frames — and run every encode and every kernel copy on cold memory.
	// LIFO also means only as many buffers grow as the link is ever deep.
	freeMu sync.Mutex
	free   []uint64

	// notify wakes the writer; capacity 1 so senders never block on it.
	notify chan struct{}

	// Writer-owned state: only the writer goroutine touches it. iov is the
	// slice a flush hands to WriteTo, which consumes it — header advanced past
	// everything written, capacity gone with it — so every flush re-slices it
	// from iovAll, the whole backing array, instead of growing a new one.
	conn      net.Conn
	connected bool
	iov       net.Buffers
	iovAll    net.Buffers

	framesSent atomic.Uint64
	bytesSent  atomic.Uint64
	writes     atomic.Uint64
	reconnects atomic.Uint64

	dropMu sync.Mutex
	drops  map[string]uint64

	// perWrite records the batch size of every successful flush — the
	// batching-factor distribution exported as a summary.
	perWrite *metrics.StripedHistogram
}

func newPeer(m *Mesh, name, addr string) *Peer {
	send, err := ring.New(m.cfg.SendRing, ring.MP)
	if err != nil {
		panic("transport: bad send ring size: " + err.Error())
	}
	// One slot per ring entry, so staging a slot taken from free cannot
	// find the ring full.
	n := send.Capacity()
	p := &Peer{
		mesh:     m,
		name:     name,
		addr:     addr,
		slots:    make([]slot, n),
		send:     send,
		free:     make([]uint64, n),
		notify:   make(chan struct{}, 1),
		iovAll:   make(net.Buffers, m.cfg.MaxBatch),
		drops:    make(map[string]uint64),
		perWrite: metrics.NewStripedHistogram(),
	}
	for i := range p.free {
		p.free[i] = uint64(n - 1 - i) // slot 0 on top
	}
	return p
}

// Name returns the peer's node name.
func (p *Peer) Name() string { return p.name }

// Send encodes f into a free slot and stages it for the writer. Non-blocking:
// a full ring returns ErrBacklog (counted), leaving ownership of the request
// with the caller. The frame is copied during encode, so f and its Payload
// may be reused immediately after Send returns.
func (p *Peer) Send(f *wire.Frame) error {
	select {
	case <-p.mesh.stop:
		return ErrMeshClosed
	default:
	}
	ix, ok := p.takeSlot()
	if !ok {
		p.countDrop(DropBacklog)
		return ErrBacklog
	}
	s := &p.slots[ix]
	buf, err := wire.AppendFrame(s.buf[:0], f)
	if err != nil {
		p.freeSlot(ix)
		return err
	}
	s.buf = buf
	s.meta = FrameMeta{Type: f.Type, Flags: f.Flags, Chain: f.Chain, Fn: f.Fn, Caller: f.Caller}
	var one [1]uint64
	one[0] = ix
	// Cannot fail: free+send+in-flight never exceed the slot count, and we
	// hold one slot out of the free stack right now.
	if p.send.EnqueueBulk(one[:]) != 1 {
		p.freeSlot(ix)
		p.countDrop(DropBacklog)
		return ErrBacklog
	}
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return nil
}

// takeSlot pops the most recently freed slot; false means every slot is
// staged or being written.
func (p *Peer) takeSlot() (uint64, bool) {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	n := len(p.free)
	if n == 0 {
		return 0, false
	}
	ix := p.free[n-1]
	p.free = p.free[:n-1]
	return ix, true
}

func (p *Peer) freeSlot(ix uint64) {
	p.freeMu.Lock()
	p.free = append(p.free, ix) // within the capacity newPeer allocated
	p.freeMu.Unlock()
}

func (p *Peer) countDrop(reason string) {
	p.dropMu.Lock()
	p.drops[reason]++
	p.dropMu.Unlock()
}

// writer is the peer's single flush goroutine: drain staged slots in bursts
// of MaxBatch, write each burst as one net.Buffers (writev) call, return the
// slots to the free stack. Connection failures reconnect with exponential
// backoff; an exhausted attempt budget drops the burst with reason conn_down
// so the origin gateway can fail the pending callers attributably.
func (p *Peer) writer() {
	defer p.mesh.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	idxs := make([]uint64, p.mesh.cfg.MaxBatch)
	for {
		n := p.send.DequeueBurst(idxs)
		if n == 0 {
			select {
			case <-p.notify:
				continue
			case <-p.mesh.stop:
				p.drainClosed(idxs)
				return
			}
		}
		p.flush(idxs[:n])
		select {
		case <-p.mesh.stop:
			p.drainClosed(idxs)
			return
		default:
		}
	}
}

// flush delivers one burst. Delivery is at-most-once per frame per
// connection: on a write error, frames the kernel fully accepted are counted
// sent and freed; a partially-written frame is resent in full on a fresh
// connection (the receiver discards the truncated prefix at EOF).
func (p *Peer) flush(idxs []uint64) {
	cfg := p.mesh.cfg
	attempts := 0
	backoff := cfg.DialBackoff
	for len(idxs) > 0 {
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
				p.dropBatch(idxs, DropConnDown, ErrPeerDown)
				return
			}
			attempts++
			conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err != nil {
				if !p.sleepBackoff(backoff) {
					p.dropBatch(idxs, DropClosed, ErrMeshClosed)
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
		p.iov = p.iovAll[:0]
		total := 0
		for _, ix := range idxs {
			b := p.slots[ix].buf
			p.iov = append(p.iov, b)
			total += len(b)
		}
		batch := len(idxs)
		// net.Buffers.WriteTo consumes the slice (writev under the hood);
		// iov is rebuilt from the slots on every attempt.
		nw, err := p.iov.WriteTo(p.conn)
		if err == nil {
			p.writes.Add(1)
			p.perWrite.Observe(p.writes.Load(), float64(batch))
			p.framesSent.Add(uint64(batch))
			p.bytesSent.Add(uint64(total))
			p.freeBatch(idxs)
			return
		}
		// Partial write: credit fully-accepted frames, keep the rest.
		written := nw
		for len(idxs) > 0 {
			b := p.slots[idxs[0]].buf
			if written < int64(len(b)) {
				break
			}
			written -= int64(len(b))
			p.framesSent.Add(1)
			p.bytesSent.Add(uint64(len(b)))
			p.freeSlot(idxs[0])
			idxs = idxs[1:]
		}
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

func (p *Peer) freeBatch(idxs []uint64) {
	for _, ix := range idxs {
		p.freeSlot(ix)
	}
}

// dropBatch gives up on a burst: every frame is reported to the mesh's drop
// callback with its attributed reason, then its slot is recycled.
func (p *Peer) dropBatch(idxs []uint64, reason string, err error) {
	for _, ix := range idxs {
		meta := p.slots[ix].meta
		p.countDrop(reason)
		p.freeSlot(ix)
		p.mesh.notifyDrop(meta, reason, err)
	}
}

// drainClosed empties the send ring at shutdown, dropping staged frames
// with reason closed.
func (p *Peer) drainClosed(idxs []uint64) {
	for {
		n := p.send.DequeueBurst(idxs)
		if n == 0 {
			return
		}
		p.dropBatch(idxs[:n], DropClosed, ErrMeshClosed)
	}
}

func (p *Peer) snapshot(name string) PeerStatsSnapshot {
	p.dropMu.Lock()
	drops := make(map[string]uint64, len(p.drops))
	for k, v := range p.drops {
		drops[k] = v
	}
	p.dropMu.Unlock()
	return PeerStatsSnapshot{
		Peer:           name,
		FramesSent:     p.framesSent.Load(),
		BytesSent:      p.bytesSent.Load(),
		Writes:         p.writes.Load(),
		Reconnects:     p.reconnects.Load(),
		QueueDepth:     p.send.Len(),
		Drops:          drops,
		FramesPerWrite: p.perWrite.Snapshot(),
	}
}

// Package transport is the inter-node half of D-SPRIGHT: a batched,
// length-prefixed TCP transport (stdlib net only) connecting the SPRIGHT
// gateways of different nodes. Within a node descriptors never touch it —
// intra-node hops stay on the zero-copy shm + SPROXY path. Between nodes,
// frames (wire.Frame: descriptor-equivalent + payload + trace context) are
// encoded back to back onto a per-peer outbox, and a per-peer writer
// goroutine flushes whatever run has queued with one write — Palladium's
// rule that cross-node descriptor passing must stay off the per-request
// allocation path, applied to a TCP fabric.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/metrics"
	"github.com/spright-go/spright/internal/wire"
)

// Transport errors.
var (
	ErrBacklog    = errors.New("transport: peer send backlog full")
	ErrMeshClosed = errors.New("transport: mesh closed")
	ErrNoPeer     = errors.New("transport: unknown peer")
	ErrPeerDown   = errors.New("transport: peer unreachable")
)

// Drop reasons for the reason-attributed drop counters.
const (
	DropBacklog  = "backlog"   // SendRing frames already queued at Send
	DropConnDown = "conn_down" // reconnect budget exhausted
	DropClosed   = "closed"    // mesh shut down with frames queued
)

// Config tunes a node's mesh endpoint. The zero value picks defaults
// suitable for tests and the loopback benchmarks.
type Config struct {
	// SendRing bounds the frames queued or being written per peer
	// (default 1024); Send refuses the next one with ErrBacklog.
	SendRing int
	// DialBackoff is the base reconnect backoff (default 1ms), doubled per
	// attempt up to MaxBackoff (default 100ms).
	DialBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts bounds connect/write attempts per batch before its
	// frames are dropped with reason conn_down (default 8).
	MaxAttempts int
	// Injector, when set, is consulted before every flush with the
	// src/dst pair ("net:<node>", "net:<peer>"): a firing queue-full rule
	// kills the connection mid-stream (chaos: link failure).
	Injector *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.SendRing <= 0 {
		c.SendRing = 1024
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 100 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	return c
}

// FrameMeta is the header-only view of a queued frame handed to the drop
// callback, so an undeliverable request can fail its pending caller.
type FrameMeta struct {
	Type   uint8
	Flags  uint8
	Chain  string
	Fn     string
	Caller uint32
}

// Handler consumes one received frame. from is the sender's node name (from
// its hello frame; "" if the peer never identified). The frame — which the
// receive loop reuses — and its Payload and Obj — which alias the read
// buffer — are only valid for the duration of the call; its strings may be
// kept.
type Handler func(from string, f *wire.Frame)

// DropFunc is notified for every frame the mesh gives up on, with the
// attributed reason (DropBacklog frames are refused at Send and never reach
// this callback — the caller still owns them there).
type DropFunc func(meta FrameMeta, reason string, err error)

// Mesh is one node's transport endpoint: a listener for inbound frames and
// one batched sender per peer.
type Mesh struct {
	node string
	cfg  Config

	ln net.Listener

	handlerMu sync.RWMutex
	handler   Handler

	dropMu sync.RWMutex
	dropCb DropFunc

	reconnMu sync.RWMutex
	reconnCb ReconnectFunc

	peerMu sync.RWMutex
	peers  map[string]*Peer

	recvMu sync.Mutex
	recv   map[string]*recvStats // by remote node name ("" before hello)

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // inbound connections, for Close

	readPool sync.Pool // *[]byte receive buffers

	recvErrors atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type recvStats struct {
	frames atomic.Uint64
	bytes  atomic.Uint64
}

// NewMesh creates a mesh endpoint for the named node. Call Listen to accept
// inbound frames and AddPeer to wire outbound links.
func NewMesh(node string, cfg Config) *Mesh {
	return &Mesh{
		node:  node,
		cfg:   cfg.withDefaults(),
		peers: make(map[string]*Peer),
		recv:  make(map[string]*recvStats),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
}

// Node returns the mesh's node name.
func (m *Mesh) Node() string { return m.node }

// SetHandler installs the inbound-frame consumer. Install before Listen to
// avoid dropping early frames.
func (m *Mesh) SetHandler(h Handler) {
	m.handlerMu.Lock()
	m.handler = h
	m.handlerMu.Unlock()
}

// SetDropHandler installs the undeliverable-frame callback.
func (m *Mesh) SetDropHandler(f DropFunc) {
	m.dropMu.Lock()
	m.dropCb = f
	m.dropMu.Unlock()
}

func (m *Mesh) notifyDrop(meta FrameMeta, reason string, err error) {
	m.dropMu.RLock()
	cb := m.dropCb
	m.dropMu.RUnlock()
	if cb != nil {
		cb(meta, reason, err)
	}
}

// ReconnectFunc is notified when a peer link is re-established after a
// failure (the writer redialed a previously connected peer). attempts is
// how many dial attempts the writer made for this flush.
type ReconnectFunc func(peer string, attempts int)

// SetReconnectHandler installs the link-recovery callback — the flight
// recorder's mesh_reconnect feed. The callback runs on the peer's writer
// goroutine and must not block.
func (m *Mesh) SetReconnectHandler(f ReconnectFunc) {
	m.reconnMu.Lock()
	m.reconnCb = f
	m.reconnMu.Unlock()
}

func (m *Mesh) notifyReconnect(peer string, attempts int) {
	m.reconnMu.RLock()
	cb := m.reconnCb
	m.reconnMu.RUnlock()
	if cb != nil {
		cb(peer, attempts)
	}
}

// Listen starts accepting inbound connections on addr (e.g. "127.0.0.1:0").
func (m *Mesh) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	m.ln = ln
	m.wg.Add(1)
	go m.acceptLoop(ln)
	return nil
}

// Addr returns the listener's address ("" before Listen).
func (m *Mesh) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// AddPeer wires an outbound link to the named peer at addr. The connection
// is dialed lazily on first send. Re-adding an existing peer updates nothing
// and returns the existing link.
func (m *Mesh) AddPeer(name, addr string) *Peer {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	if p, ok := m.peers[name]; ok {
		return p
	}
	p := newPeer(m, name, addr)
	m.peers[name] = p
	m.wg.Add(1)
	go p.writer()
	return p
}

// Send queues one frame for the named peer. It is non-blocking: a full
// backlog refuses the frame with ErrBacklog (counted as a backlog drop) — the
// caller still owns the request and must fail it attributably.
func (m *Mesh) Send(peer string, f *wire.Frame) error {
	m.peerMu.RLock()
	p := m.peers[peer]
	m.peerMu.RUnlock()
	if p == nil {
		return fmt.Errorf("%w: %q", ErrNoPeer, peer)
	}
	return p.Send(f)
}

// QueuedTo returns the number of frames accepted for peer but not yet
// written or dropped — the per-peer send backlog the autoscaler folds into
// its demand signal. Unknown peers report 0.
func (m *Mesh) QueuedTo(peer string) int {
	m.peerMu.RLock()
	p := m.peers[peer]
	m.peerMu.RUnlock()
	if p == nil {
		return 0
	}
	return p.queueDepth()
}

// acceptLoop accepts inbound connections until the listener closes.
func (m *Mesh) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.connMu.Lock()
		m.conns[conn] = struct{}{}
		m.connMu.Unlock()
		m.wg.Add(1)
		go m.serveConn(conn)
	}
}

func (m *Mesh) getReadBuf(n int) *[]byte {
	bp, _ := m.readPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// readBufSize is each inbound connection's read buffer. A frame that fits it
// prefix and all (every frame of a chain whose pool buffers are 16–32 KiB) is
// decoded where the kernel put it; four of the benchmark's 16 KiB frames fit
// at once, so a loaded link drains several frames per read.
const readBufSize = 64 << 10

// serveConn is the receive loop of one inbound connection. It reads through
// one fixed buffer: peek the length prefix, and when prefix and body fit the
// buffer, decode the frame in place and discard it once the handler has
// returned — one read brings the prefix, the body and whatever frames follow.
// A larger frame is read from the same buffered reader into a pooled buffer.
// A framing error tears the connection down (counted); the peer's writer will
// reconnect and resend what the kernel had not accepted. EOF mid-frame is the
// torn frame of that protocol and is discarded silently.
func (m *Mesh) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer func() {
		conn.Close()
		m.connMu.Lock()
		delete(m.conns, conn)
		m.connMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	var dec wire.Decoder
	from := ""
	var rs *recvStats // from's counters, looked up on its first frame
	for {
		prefix, err := br.Peek(wire.PrefixLen)
		if err != nil {
			return // EOF or peer reset: normal teardown
		}
		n := int(binary.LittleEndian.Uint32(prefix))
		if n <= 0 || n > wire.MaxFrame {
			m.recvErrors.Add(1)
			return
		}
		var body []byte
		var big *[]byte
		if wire.PrefixLen+n <= readBufSize {
			framed, err := br.Peek(wire.PrefixLen + n)
			if err != nil {
				return
			}
			body = framed[wire.PrefixLen:]
		} else {
			big = m.getReadBuf(n)
			br.Discard(wire.PrefixLen) // buffered: cannot fail
			if _, err := io.ReadFull(br, *big); err != nil {
				m.readPool.Put(big)
				return
			}
			body = *big
		}
		f, err := dec.Decode(body)
		switch {
		case err != nil:
			m.recvErrors.Add(1)
		case f.Type == wire.TypeHello:
			from, rs = f.Fn, nil
		default:
			if rs == nil {
				rs = m.recvStatsFor(from)
			}
			rs.frames.Add(1)
			rs.bytes.Add(uint64(wire.PrefixLen + n))
			m.handlerMu.RLock()
			h := m.handler
			m.handlerMu.RUnlock()
			if h != nil {
				h(from, f)
			}
		}
		if big != nil {
			m.readPool.Put(big)
		} else {
			br.Discard(wire.PrefixLen + n) // buffered: cannot fail
		}
		if err != nil {
			return
		}
	}
}

func (m *Mesh) recvStatsFor(from string) *recvStats {
	m.recvMu.Lock()
	defer m.recvMu.Unlock()
	rs, ok := m.recv[from]
	if !ok {
		rs = &recvStats{}
		m.recv[from] = rs
	}
	return rs
}

// Close stops the mesh: the listener, every inbound connection, and every
// peer writer (queued frames are dropped with reason closed).
func (m *Mesh) Close() {
	m.once.Do(func() {
		close(m.stop)
		if m.ln != nil {
			m.ln.Close()
		}
		m.connMu.Lock()
		for c := range m.conns {
			c.Close()
		}
		m.connMu.Unlock()
	})
	m.wg.Wait()
}

// PeerStatsSnapshot is one outbound link's counters.
type PeerStatsSnapshot struct {
	Peer       string
	FramesSent uint64
	BytesSent  uint64
	// Writes counts successful flushes, one write each; FramesSent/Writes
	// is the mean batching factor.
	Writes     uint64
	Reconnects uint64
	// QueueDepth is the frames accepted and not yet written or dropped.
	QueueDepth int
	// Drops by reason (backlog, conn_down, closed).
	Drops map[string]uint64
	// FramesPerWrite is the distribution of batch sizes per flush.
	FramesPerWrite *metrics.Histogram
}

// RecvStatsSnapshot is the inbound counters attributed to one remote peer.
type RecvStatsSnapshot struct {
	Peer           string
	FramesReceived uint64
	BytesReceived  uint64
}

// MeshStats is a point-in-time snapshot of one node's transport activity.
type MeshStats struct {
	Node       string
	Sent       []PeerStatsSnapshot
	Received   []RecvStatsSnapshot
	RecvErrors uint64
}

// Stats snapshots the mesh's counters (approximate under load, exact when
// quiescent) — the source of truth the exporter conformance test compares
// the /metrics exposition against.
func (m *Mesh) Stats() MeshStats {
	st := MeshStats{Node: m.node, RecvErrors: m.recvErrors.Load()}
	m.peerMu.RLock()
	for name, p := range m.peers {
		st.Sent = append(st.Sent, p.snapshot(name))
	}
	m.peerMu.RUnlock()
	m.recvMu.Lock()
	for name, rs := range m.recv {
		st.Received = append(st.Received, RecvStatsSnapshot{
			Peer:           name,
			FramesReceived: rs.frames.Load(),
			BytesReceived:  rs.bytes.Load(),
		})
	}
	m.recvMu.Unlock()
	return st
}

package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/spright-go/spright/internal/wire"
)

// dribbleConn is a net.Conn whose Read hands out a stream 1…max bytes at a
// time, so frame boundaries land wherever the random sizes put them: a prefix
// split across reads, a body split, many frames in one read. max 0 gives
// every Read all it asks for.
type dribbleConn struct {
	stream *bytes.Reader
	rng    *rand.Rand
	max    int
	reads  int
}

func (c *dribbleConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.reads++
	if c.max == 0 {
		return c.stream.Read(p)
	}
	return c.stream.Read(p[:1+c.rng.Intn(min(c.max, len(p)))])
}

func (c *dribbleConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *dribbleConn) Close() error                     { return nil }
func (c *dribbleConn) LocalAddr() net.Addr              { return nil }
func (c *dribbleConn) RemoteAddr() net.Addr             { return nil }
func (c *dribbleConn) SetDeadline(time.Time) error      { return nil }
func (c *dribbleConn) SetReadDeadline(time.Time) error  { return nil }
func (c *dribbleConn) SetWriteDeadline(time.Time) error { return nil }

// seen is what the handler keeps of one frame it was handed.
type seen struct {
	from, chain, fn, topic, errMsg string
	typ, flags                     uint8
	caller                         uint32
	n                              int    // payload length
	sum                            uint32 // payload CRC
}

func seenOf(from string, f *wire.Frame) seen {
	return seen{from: from, chain: f.Chain, fn: f.Fn, topic: f.Topic, errMsg: f.Err,
		typ: f.Type, flags: f.Flags, caller: f.Caller,
		n: len(f.Payload), sum: crc32.ChecksumIEEE(f.Payload)}
}

// TestServeConnAdversarialStream drives the receive loop over streams cut
// into arbitrary reads. Whatever the cut, the handler sees the same frames in
// the same order, per-peer frames and bytes count the same, and recvErrors
// counts exactly the streams that end in a framing error — a torn frame at
// EOF is not one.
func TestServeConnAdversarialStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	body := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// fit is the payload size that makes prefix + body exactly size bytes.
	fit := func(f wire.Frame, size int) int {
		return size - wire.EncodedSize(&f)
	}
	req := wire.Frame{Type: wire.TypeRequest, Caller: 1, Chain: "xnode", Fn: "f1", Topic: "/t"}

	var frames []wire.Frame
	add := func(f wire.Frame, n int) {
		f.Caller = uint32(len(frames) + 1)
		f.Payload = body(n)
		frames = append(frames, f)
	}
	add(req, 0)
	add(req, 16<<10)
	add(wire.Frame{Type: wire.TypeResponse, Chain: "xnode"}, 16<<10)
	add(wire.Frame{Type: wire.TypeResponse, Chain: "xnode", Flags: wire.FlagError, Err: "boom"}, 0)
	add(req, fit(req, readBufSize))   // exactly the read buffer: decoded in place
	add(req, fit(req, readBufSize)+1) // one byte more: the pooled path
	add(req, 100<<10)
	for i := 0; i < 40; i++ { // many frames per read
		add(wire.Frame{Type: wire.TypeRequest, Chain: "other", Fn: "g", Topic: ""}, rng.Intn(64))
	}
	add(req, 16<<10)

	var good []byte
	var want []seen
	wantBytes := uint64(0)
	hello, err := wire.AppendFrame(nil, &wire.Frame{Type: wire.TypeHello, Fn: "node-a"})
	if err != nil {
		t.Fatal(err)
	}
	good = append(good, hello...)
	for i := range frames {
		before := len(good)
		if good, err = wire.AppendFrame(good, &frames[i]); err != nil {
			t.Fatal(err)
		}
		wantBytes += uint64(len(good) - before)
		want = append(want, seenOf("node-a", &frames[i]))
	}

	prefix := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	oneMore, _ := wire.AppendFrame(nil, &frames[1])
	badVersion := append([]byte(nil), oneMore...)
	badVersion[wire.PrefixLen] = 99
	tails := []struct {
		name     string
		tail     []byte
		recvErrs uint64
	}{
		{"clean EOF", nil, 0},
		{"EOF mid-prefix", oneMore[:2], 0},
		{"EOF mid-body", oneMore[:len(oneMore)/2], 0},
		{"EOF mid-body of a frame larger than the buffer", append(prefix(200<<10), body(70<<10)...), 0},
		{"zero length", prefix(0), 1},
		{"oversized length", prefix(wire.MaxFrame + 1), 1},
		{"undecodable body", badVersion, 1},
	}
	for _, tc := range tails {
		for _, max := range []int{1, 3, 7, 1000, 4096, readBufSize, 0} {
			if max == 1 && tc.name != "clean EOF" {
				continue // byte-at-a-time over 400 KiB once is enough
			}
			t.Run(fmt.Sprintf("%s/reads of up to %d", tc.name, max), func(t *testing.T) {
				m := NewMesh("node-b", Config{})
				defer m.Close()
				var got []seen
				m.SetHandler(func(from string, f *wire.Frame) { got = append(got, seenOf(from, f)) })
				stream := append(append([]byte(nil), good...), tc.tail...)
				conn := &dribbleConn{stream: bytes.NewReader(stream), rng: rand.New(rand.NewSource(int64(max))), max: max}
				m.wg.Add(1)
				m.serveConn(conn) // returns at EOF or on the framing error

				if len(got) != len(want) {
					t.Fatalf("%d frames delivered, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("frame %d: got %+v want %+v", i, got[i], want[i])
					}
				}
				st := m.Stats()
				if st.RecvErrors != tc.recvErrs {
					t.Errorf("recvErrors %d, want %d", st.RecvErrors, tc.recvErrs)
				}
				if len(st.Received) != 1 || st.Received[0].Peer != "node-a" ||
					st.Received[0].FramesReceived != uint64(len(want)) || st.Received[0].BytesReceived != wantBytes {
					t.Errorf("received %+v, want node-a: %d frames, %d bytes", st.Received, len(want), wantBytes)
				}
				// The loop this one replaced read every prefix and every body
				// separately: two reads a frame at the very least.
				if max == 0 && conn.reads >= len(want) {
					t.Errorf("%d reads for %d frames offered whole", conn.reads, len(want))
				}
				if _, err := conn.stream.ReadByte(); tc.recvErrs == 0 && err != io.EOF {
					t.Errorf("receive loop stopped before the end of a well-formed stream")
				}
			})
		}
	}
}

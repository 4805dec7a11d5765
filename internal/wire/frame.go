// Package wire defines the length-prefixed binary framing of the inter-node
// transport: one frame carries one descriptor-equivalent (caller, routing
// target, trace context) plus its payload between the SPRIGHT gateways of two
// nodes. The format is fixed little-endian (matching shm.Descriptor), fully
// self-delimiting, and deliberately free of reflection or interface boxing so
// encoding reuses a pooled byte slice with zero per-frame allocation in
// steady state.
//
// Layout (after the u32 length prefix, which counts the bytes that follow):
//
//	u8  version (1)
//	u8  type    (request | response | hello)
//	u8  flags   (no-reply, error-response)
//	u8  reserved (must be zero)
//	u32 caller          — the ORIGIN node's pending-table slot
//	u64 traceHi, u64 traceLo, u64 span, u32 traceFlags
//	u16-prefixed chain name
//	u16-prefixed function name (hello: the sender's node name)
//	u16-prefixed topic
//	u16-prefixed error message (error responses)
//	u32-prefixed payload
//	u32-prefixed object bytes (only when flags carry FlagObject)
//
// Decoding never panics: truncated or corrupt input returns an error, which
// the receive loop converts into a counted connection teardown.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame types.
const (
	// TypeRequest asks the receiving node to invoke Fn of Chain with
	// Payload and return a response frame carrying the same Caller.
	TypeRequest = 1
	// TypeResponse completes the origin node's pending request Caller.
	TypeResponse = 2
	// TypeHello is the first frame of every connection: Fn carries the
	// sender's node name so the receiver can attribute per-peer counters.
	TypeHello = 3
)

// Frame flags.
const (
	// FlagNoReply marks fire-and-forget requests: no response frame comes.
	FlagNoReply = 1 << 0
	// FlagError marks a response that carries Err instead of Payload.
	FlagError = 1 << 1
	// FlagObject marks a request whose origin message carried an attached
	// shared-memory object alongside its in-buffer payload: the object's
	// bytes travel in the frame's object section and are re-materialized
	// into the receiving node's object store, so cross-node forwarding
	// never silently sheds an attachment.
	FlagObject = 1 << 2
)

// Version is the only wire version this package speaks.
const Version = 1

// MaxFrame bounds one frame's encoded size (length prefix excluded): a
// corrupt or hostile length prefix must not make the receive loop allocate
// unbounded memory.
const MaxFrame = 16 << 20

// PrefixLen is the size of the length prefix preceding every frame body.
const PrefixLen = 4

// Frame is one decoded inter-node message. String fields decoded from a
// byte stream are copies; Payload is a subslice of the decode input and is
// only valid while that buffer is.
type Frame struct {
	Type  uint8
	Flags uint8

	// Caller is the origin node's pending-request slot; a response frame
	// echoes the request's value so the origin can complete its waiter.
	Caller uint32

	// Trace context riding the wire (the shm buffer header's identity, so
	// cross-node spans parent correctly).
	TraceHi    uint64
	TraceLo    uint64
	TraceSpan  uint64
	TraceFlags uint32

	Chain string // chain name on the origin node (hello: unused)
	Fn    string // target function (hello: the sender's node name)
	Topic string // DFR topic for the remote dispatch

	Err     string // error message of an error response
	Payload []byte

	// Obj carries an attached object's bytes (FlagObject requests): the
	// origin's auxiliary shared-memory object riding alongside Payload.
	// Like Payload it aliases the decode input.
	Obj []byte
}

// hasObj reports whether f encodes an object section: either the flag is
// already set or object bytes are present (encoding then sets the flag).
func (f *Frame) hasObj() bool {
	return f.Flags&FlagObject != 0 || len(f.Obj) > 0
}

// Framing errors.
var (
	ErrTruncated    = errors.New("wire: truncated frame")
	ErrBadVersion   = errors.New("wire: unsupported frame version")
	ErrBadType      = errors.New("wire: unknown frame type")
	ErrFrameTooBig  = errors.New("wire: frame exceeds MaxFrame")
	ErrStringTooBig = errors.New("wire: string field exceeds 64KiB")
	ErrTrailing     = errors.New("wire: trailing bytes after payload")
)

// fixedLen is the size of the fixed header fields after the length prefix.
const fixedLen = 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 4

// EncodedSize returns the full encoded size of f, length prefix included.
func EncodedSize(f *Frame) int {
	n := PrefixLen + fixedLen +
		2 + len(f.Chain) + 2 + len(f.Fn) + 2 + len(f.Topic) + 2 + len(f.Err) +
		4 + len(f.Payload)
	if f.hasObj() {
		n += 4 + len(f.Obj)
	}
	return n
}

// AppendFrame appends f's encoding — length prefix plus body — to dst and
// returns the extended slice. Callers reuse dst's capacity across frames, so
// the steady-state encode path does not allocate.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if len(f.Chain) > 0xFFFF || len(f.Fn) > 0xFFFF || len(f.Topic) > 0xFFFF || len(f.Err) > 0xFFFF {
		return dst, ErrStringTooBig
	}
	body := EncodedSize(f) - PrefixLen
	if body > MaxFrame {
		return dst, ErrFrameTooBig
	}
	flags := f.Flags
	if f.hasObj() {
		flags |= FlagObject
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, Version, f.Type, flags, 0)
	dst = binary.LittleEndian.AppendUint32(dst, f.Caller)
	dst = binary.LittleEndian.AppendUint64(dst, f.TraceHi)
	dst = binary.LittleEndian.AppendUint64(dst, f.TraceLo)
	dst = binary.LittleEndian.AppendUint64(dst, f.TraceSpan)
	dst = binary.LittleEndian.AppendUint32(dst, f.TraceFlags)
	for _, s := range [4]string{f.Chain, f.Fn, f.Topic, f.Err} {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	if f.hasObj() {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Obj)))
		dst = append(dst, f.Obj...)
	}
	return dst, nil
}

// DecodeFrame decodes one frame body (the bytes following the length
// prefix). The returned Frame's Payload aliases b; string fields are copies.
func DecodeFrame(b []byte) (Frame, error) {
	var d Decoder
	f, err := d.Decode(b)
	return *f, err
}

// Decoder decodes the frames of one connection without allocating per
// frame. A link carries the same few chain, function and topic names over
// and over, so the decoder keeps the last value it saw in each of those
// fields and hands the same string out again when the bytes match; only a
// name it has not just seen (and a non-empty error message) is copied. The
// zero value is ready to use. Not safe for concurrent use.
type Decoder struct {
	f                Frame
	chain, fn, topic string
}

// Decode decodes one frame body exactly as DecodeFrame does, into a Frame
// the decoder owns: the result (and, as ever, its Payload and Obj, which
// alias b) is valid until the next Decode.
func (d *Decoder) Decode(b []byte) (*Frame, error) {
	d.f = Frame{}
	f := &d.f
	if len(b) > MaxFrame {
		return f, ErrFrameTooBig
	}
	if len(b) < fixedLen {
		return f, fmt.Errorf("%w: %d byte header", ErrTruncated, len(b))
	}
	if b[0] != Version {
		return f, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	f.Type = b[1]
	if f.Type != TypeRequest && f.Type != TypeResponse && f.Type != TypeHello {
		return f, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	f.Flags = b[2]
	if b[3] != 0 {
		return f, fmt.Errorf("wire: non-zero reserved byte %d", b[3])
	}
	f.Caller = binary.LittleEndian.Uint32(b[4:])
	f.TraceHi = binary.LittleEndian.Uint64(b[8:])
	f.TraceLo = binary.LittleEndian.Uint64(b[16:])
	f.TraceSpan = binary.LittleEndian.Uint64(b[24:])
	f.TraceFlags = binary.LittleEndian.Uint32(b[32:])
	rest := b[fixedLen:]
	var err error
	if f.Chain, rest, err = takeString(rest, &d.chain); err != nil {
		return f, err
	}
	if f.Fn, rest, err = takeString(rest, &d.fn); err != nil {
		return f, err
	}
	if f.Topic, rest, err = takeString(rest, &d.topic); err != nil {
		return f, err
	}
	if f.Err, rest, err = takeString(rest, nil); err != nil {
		return f, err
	}
	if f.Payload, rest, err = takeBytes(rest, "payload"); err != nil {
		return f, err
	}
	if f.Flags&FlagObject != 0 {
		if f.Obj, rest, err = takeBytes(rest, "object"); err != nil {
			return f, err
		}
	}
	if len(rest) != 0 {
		return f, fmt.Errorf("%w: %d", ErrTrailing, len(rest))
	}
	return f, nil
}

// takeBytes consumes one u32-prefixed byte section, returning it (aliasing
// b) and the remaining bytes.
func takeBytes(b []byte, what string) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, b, fmt.Errorf("%w: %s length", ErrTruncated, what)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, b, fmt.Errorf("%w: %s %d of %d bytes", ErrTruncated, what, len(b), n)
	}
	return b[:n:n], b[n:], nil
}

// takeString consumes one u16-prefixed string and returns it and the
// remaining bytes. The string is a copy of the input, or — when last is given
// and still holds these very bytes — *last again, without copying. An empty
// string leaves *last alone: responses carry no function or topic, and must
// not evict the name the requests between them keep repeating.
func takeString(b []byte, last *string) (string, []byte, error) {
	if len(b) < 2 {
		return "", b, fmt.Errorf("%w: string length", ErrTruncated)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", b, fmt.Errorf("%w: string %d of %d bytes", ErrTruncated, len(b), n)
	}
	if n == 0 || last == nil {
		return string(b[:n]), b[n:], nil
	}
	if *last != string(b[:n]) { // the comparison does not allocate
		*last = string(b[:n])
	}
	return *last, b[n:], nil
}

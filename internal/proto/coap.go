package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// CoAP-lite: RFC 7252's fixed 4-byte header + Uri-Path option + payload
// marker, enough to carry the parking-camera snapshots of §4.1 over a
// constrained-device protocol. Options other than Uri-Path (11) are
// rejected to keep the decoder small and strict.

// CoAP method codes.
const (
	CoAPGet  byte = 1
	CoAPPost byte = 2
)

const coapVersion = 1
const coapPayloadMarker = 0xFF
const coapOptionUriPath = 11

// coapMaxOption is the longest option value an option header can encode:
// length nibble 14, then a 16-bit extension offset by 269.
const coapMaxOption = 0xFFFF + 269

// MarshalCoAP builds a confirmable CoAP request with a Uri-Path. A path
// longer than one option holds is cut at slashes into several Uri-Path
// options, which UnmarshalCoAP joins back with "/"; a path that cannot be
// cut so is refused.
func MarshalCoAP(code byte, messageID uint16, uriPath string, payload []byte) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(coapVersion<<6 | 0<<4 | 0) // CON, no token
	b.WriteByte(code)
	var mid [2]byte
	binary.BigEndian.PutUint16(mid[:], messageID)
	b.Write(mid[:])
	// Cut at the last slash that leaves the option short enough. Only the
	// first option must not be empty: the decoder drops a leading one.
	delta, rest := coapOptionUriPath, uriPath
	for len(rest) > coapMaxOption {
		cut := strings.LastIndexByte(rest[:coapMaxOption+1], '/')
		if cut < 0 || cut == 0 && delta != 0 {
			return nil, fmt.Errorf("%w: CoAP Uri-Path cannot be cut into options of at most %d bytes", ErrMalformed, coapMaxOption)
		}
		writeCoAPOption(&b, delta, []byte(rest[:cut]))
		delta, rest = 0, rest[cut+1:]
	}
	if rest != "" || delta == 0 {
		writeCoAPOption(&b, delta, []byte(rest))
	}
	if len(payload) > 0 {
		b.WriteByte(coapPayloadMarker)
		b.Write(payload)
	}
	return b.Bytes(), nil
}

func writeCoAPOption(b *bytes.Buffer, delta int, val []byte) {
	d, dx := coapNibble(delta)
	l, lx := coapNibble(len(val))
	b.WriteByte(byte(d)<<4 | byte(l))
	b.Write(dx)
	b.Write(lx)
	b.Write(val)
}

func coapNibble(n int) (nib int, ext []byte) {
	switch {
	case n < 13:
		return n, nil
	case n < 269:
		return 13, []byte{byte(n - 13)}
	default:
		var e [2]byte
		binary.BigEndian.PutUint16(e[:], uint16(n-269))
		return 14, e[:]
	}
}

func readCoAPNibble(nib int, data []byte) (n, used int, err error) {
	switch nib {
	case 13:
		if len(data) < 1 {
			return 0, 0, fmt.Errorf("%w: short CoAP option ext", ErrMalformed)
		}
		return int(data[0]) + 13, 1, nil
	case 14:
		if len(data) < 2 {
			return 0, 0, fmt.Errorf("%w: short CoAP option ext", ErrMalformed)
		}
		return int(binary.BigEndian.Uint16(data)) + 269, 2, nil
	case 15:
		return 0, 0, fmt.Errorf("%w: reserved CoAP nibble", ErrMalformed)
	default:
		return nib, 0, nil
	}
}

// UnmarshalCoAP parses a request built by MarshalCoAP.
func UnmarshalCoAP(data []byte) (code byte, messageID uint16, uriPath string, payload []byte, err error) {
	if len(data) < 4 {
		return 0, 0, "", nil, fmt.Errorf("%w: short CoAP header", ErrMalformed)
	}
	if data[0]>>6 != coapVersion {
		return 0, 0, "", nil, fmt.Errorf("%w: bad CoAP version", ErrMalformed)
	}
	tkl := int(data[0] & 0x0F)
	code = data[1]
	messageID = binary.BigEndian.Uint16(data[2:4])
	p := 4 + tkl
	if len(data) < p {
		return 0, 0, "", nil, fmt.Errorf("%w: truncated CoAP token", ErrMalformed)
	}
	optNum := 0
	for p < len(data) {
		if data[p] == coapPayloadMarker {
			payload = append([]byte(nil), data[p+1:]...)
			if len(payload) == 0 {
				return 0, 0, "", nil, fmt.Errorf("%w: empty payload after marker", ErrMalformed)
			}
			break
		}
		deltaNib := int(data[p] >> 4)
		lenNib := int(data[p] & 0x0F)
		p++
		delta, used, derr := readCoAPNibble(deltaNib, data[p:])
		if derr != nil {
			return 0, 0, "", nil, derr
		}
		p += used
		olen, used, lerr := readCoAPNibble(lenNib, data[p:])
		if lerr != nil {
			return 0, 0, "", nil, lerr
		}
		p += used
		if len(data) < p+olen {
			return 0, 0, "", nil, fmt.Errorf("%w: truncated CoAP option", ErrMalformed)
		}
		optNum += delta
		if optNum != coapOptionUriPath {
			return 0, 0, "", nil, fmt.Errorf("%w: unsupported CoAP option %d", ErrMalformed, optNum)
		}
		if uriPath != "" {
			uriPath += "/"
		}
		uriPath += string(data[p : p+olen])
		p += olen
	}
	return code, messageID, uriPath, payload, nil
}

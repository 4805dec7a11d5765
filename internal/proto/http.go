package proto

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrMalformed reports an unparsable wire message.
var ErrMalformed = errors.New("proto: malformed message")

const crlf = "\r\n"

// MarshalHTTPRequest serializes a Message as an HTTP/1.1 request.
func MarshalHTTPRequest(m *Message) []byte {
	var b bytes.Buffer
	method := m.Method
	if method == "" {
		method = "GET"
	}
	path := m.Path
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(&b, "%s %s HTTP/1.1%s", method, path, crlf)
	for _, k := range sortedHeaderKeys(m.Headers) {
		fmt.Fprintf(&b, "%s: %s%s", k, m.Headers[k], crlf)
	}
	fmt.Fprintf(&b, "Content-Length: %d%s%s", len(m.Body), crlf, crlf)
	b.Write(m.Body)
	return b.Bytes()
}

// UnmarshalHTTPRequest parses an HTTP/1.1 request.
func UnmarshalHTTPRequest(data []byte) (*Message, error) {
	head, body, ok := bytes.Cut(data, []byte(crlf+crlf))
	if !ok {
		return nil, fmt.Errorf("%w: no header terminator", ErrMalformed)
	}
	lines := strings.Split(string(head), crlf)
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformed, lines[0])
	}
	m := &Message{Method: parts[0], Path: parts[1], Headers: map[string]string{}}
	cl := -1
	for _, ln := range lines[1:] {
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return nil, fmt.Errorf("%w: bad header %q", ErrMalformed, ln)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if strings.EqualFold(k, "Content-Length") {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformed, v)
			}
			cl = n
			continue
		}
		m.Headers[k] = v
	}
	if cl >= 0 {
		if len(body) < cl {
			return nil, fmt.Errorf("%w: truncated body: have %d want %d", ErrMalformed, len(body), cl)
		}
		body = body[:cl]
	}
	m.Body = append([]byte(nil), body...)
	return m, nil
}

// MarshalHTTPResponse serializes a status + body as an HTTP/1.1 response.
func MarshalHTTPResponse(status int, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s%s", status, statusText(status), crlf)
	fmt.Fprintf(&b, "Content-Length: %d%s%s", len(body), crlf, crlf)
	b.Write(body)
	return b.Bytes()
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 202:
		return "Accepted"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

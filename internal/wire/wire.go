// Package wire implements a small TCP protocol exposing the broker over
// the network, plus the matching client. Frames are 4-byte big-endian
// length prefixes followed by a JSON message body.
//
// The protocol is strictly request/response from the client's point of
// view — subscribe and publish each receive exactly one ok/error reply,
// in order — while event deliveries are pushed asynchronously by the
// server and never acknowledged.
package wire

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/geometry"
)

// MaxFrame bounds a single frame's body size to keep a malicious or
// buggy peer from exhausting memory.
const MaxFrame = 1 << 20

// Type discriminates protocol messages.
type Type string

// Protocol message types.
const (
	TypeSubscribe   Type = "subscribe"   // client -> server
	TypeUnsubscribe Type = "unsubscribe" // client -> server
	TypePublish     Type = "publish"     // client -> server
	TypePing        Type = "ping"        // either direction (keepalive probe)
	TypePong        Type = "pong"        // client -> server (keepalive answer, unsolicited)
	TypeEvent       Type = "event"       // server -> client (async)
	TypeOK          Type = "ok"          // server -> client (reply)
	TypeError       Type = "error"       // server -> client (reply)
)

// Interval is the wire form of a half-open interval. Nil bounds encode
// the infinities, which JSON numbers cannot represent.
type Interval struct {
	Lo *float64 `json:"lo"`
	Hi *float64 `json:"hi"`
}

// Rect is the wire form of a subscription rectangle.
type Rect []Interval

// RectToWire converts a geometry rectangle to its wire form.
func RectToWire(r geometry.Rect) Rect {
	out := make(Rect, len(r))
	for i, iv := range r {
		w := Interval{}
		if !math.IsInf(iv.Lo, -1) {
			lo := iv.Lo
			w.Lo = &lo
		}
		if !math.IsInf(iv.Hi, 1) {
			hi := iv.Hi
			w.Hi = &hi
		}
		out[i] = w
	}
	return out
}

// WireToRect converts a wire rectangle back to geometry form.
func WireToRect(w Rect) (geometry.Rect, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("wire: empty rectangle")
	}
	r := make(geometry.Rect, len(w))
	for i, iv := range w {
		lo, hi := math.Inf(-1), math.Inf(1)
		if iv.Lo != nil {
			lo = *iv.Lo
		}
		if iv.Hi != nil {
			hi = *iv.Hi
		}
		r[i] = geometry.NewInterval(lo, hi)
		if r[i].Empty() {
			return nil, fmt.Errorf("wire: dimension %d is empty: (%v, %v]", i, lo, hi)
		}
	}
	return r, nil
}

// Message is one protocol frame body. Only the fields relevant to the
// type are populated.
type Message struct {
	Type Type `json:"type"`

	// Subscribe fields.
	Rects []Rect `json:"rects,omitempty"`
	// Buffer is what the subscription adds to its connection's queue;
	// zero selects the server broker's DefaultBuffer.
	Buffer int `json:"buffer,omitempty"`
	// FromOffset, when nonzero, asks a durability-enabled server to
	// stream the publication log from that offset (clamped to the oldest
	// retained record) before the subscription goes live; with no rects
	// it requests a pure log replay and no live subscription. Optional
	// like TraceID: zero is omitted from the frame, so a client that
	// never sets it produces byte-identical frames to a pre-offset
	// client, and an old server ignores the unknown key (the replayed
	// history is simply not sent).
	FromOffset uint64 `json:"from_offset,omitempty"`
	// Group announces that the sender understands grouped event frames
	// (SubIDs): from the first subscribe carrying it, the server may send
	// one event frame per publication for all of the connection's
	// matching subscriptions. Optional like FromOffset: false is omitted,
	// an old server ignores the key and keeps sending one frame per
	// subscription, which a grouping client reads all the same.
	Group bool `json:"group,omitempty"`

	// Publish / Event fields.
	Point   []float64 `json:"point,omitempty"`
	Payload []byte    `json:"payload,omitempty"`
	Seq     uint64    `json:"seq,omitempty"`
	// TraceID correlates a publication across processes. Optional: a
	// zero id is omitted from the frame, an old peer that does not know
	// the field ignores it (encoding/json skips unknown keys), and a new
	// server assigns a fresh id when a publish arrives without one. On
	// publish frames it is the client-assigned id; on the matching OK
	// reply the server echoes the id it used; on event frames it is the
	// originating publication's id.
	TraceID uint64 `json:"trace_id,omitempty"`

	// OK fields; on an event frame SubID names the one subscription the
	// event is for.
	SubID int `json:"sub_id,omitempty"`
	// SubIDs, on an event frame sent to a peer that announced Group,
	// takes SubID's place as the frame's last key: every subscription of
	// the connection the publication is delivered to by this frame. A
	// publication may still arrive as several frames; no id repeats
	// across them.
	SubIDs    []int `json:"sub_ids,omitempty"`
	Delivered int   `json:"delivered,omitempty"`

	// Error field.
	Error string `json:"error,omitempty"`
}

// eventOverhead bounds everything in an event frame that is neither a
// coordinate nor payload: the length prefix, the fixed keys and
// punctuation (about 75 bytes), and seq, trace_id and one sub_id —
// alone or as a one-element sub_ids list — at maxIDLen digits each.
const eventOverhead = 160

// maxIDLen is the longest decimal rendering of a uint64 or an int.
const maxIDLen = 20

// eventFrameBound is an upper bound on the size of the event frame that
// carries a point of dims coordinates and a payload of n bytes. A
// float64 renders in at most 24 bytes, plus its comma.
func eventFrameBound(dims, n int) int {
	return eventOverhead + 25*dims + base64.StdEncoding.EncodedLen(n)
}

// errDecode marks a frame whose body did not decode. Its length prefix
// held and the body was consumed, so the stream is intact.
var errDecode = errors.New("wire: decoding message")

// errEncode marks a message that could not be framed — not
// representable in JSON, or larger than MaxFrame. It says nothing about
// the connection, which stays usable.
var errEncode = errors.New("wire: encoding message")

// appendFrame appends m's frame — length prefix, then body — to dst.
// Every message but an error reply takes the reflection-free encoder;
// error replies (and any message it declines) go through json.Marshal,
// and the bytes are the same either way. On error, which
// always wraps errEncode, dst is returned at its original length.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, ok := appendFastBody(dst, m)
	if !ok {
		body, err := json.Marshal(m)
		if err != nil {
			return dst[:start], fmt.Errorf("%w: %v", errEncode, err)
		}
		dst = append(dst[:start+4], body...)
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("%w: message of %d bytes exceeds frame limit", errEncode, n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// WriteMessage frames one message and writes it with a single Write.
func WriteMessage(w io.Writer, m *Message) error {
	// Sized for an event or a small control frame; anything else grows.
	frame, err := appendFrame(make([]byte, 0, eventFrameBound(len(m.Point), len(m.Payload))), m)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// decodeBody decodes one frame body into m, overwriting it.
func decodeBody(body []byte, m *Message) error {
	*m = Message{}
	if decodeFastBody(body, m) {
		return nil
	}
	*m = Message{} // the fast path may have filled some fields before declining
	if err := json.Unmarshal(body, m); err != nil {
		return fmt.Errorf("%w: %w", errDecode, err)
	}
	return nil
}

// frameLen decodes and checks a frame's 4-byte length prefix.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	return int(n), nil
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", midFrame(err))
	}
	m := new(Message)
	if err := decodeBody(body, m); err != nil {
		return nil, err
	}
	return m, nil
}

// maxKeptBuf is the largest body buffer a connection's reader keeps for
// reuse; one oversized frame must not pin a megabyte.
const maxKeptBuf = 64 << 10

// frameReader is a connection's read side: a small fixed bufio.Reader,
// so a burst of frames costs one Read, and frames that fit its window
// are decoded in place. Larger frames go through a body buffer that is
// reused while it stays under maxKeptBuf.
type frameReader struct {
	br   *bufio.Reader
	body []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 4096)}
}

// midFrame turns the io.EOF that a short Peek reports, or a ReadFull
// that got nothing, into io.ErrUnexpectedEOF: the stream ended inside a
// frame, which is not the clean shutdown io.EOF stands for.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// read decodes the next frame into m, overwriting it. Nothing in m
// aliases the reader's buffers.
func (fr *frameReader) read(m *Message) error {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			return midFrame(err) // cut inside the length prefix
		}
		return err // io.EOF between frames is a clean shutdown
	}
	n, err := frameLen(hdr)
	if err != nil {
		return err
	}
	_, _ = fr.br.Discard(4) // cannot fail: Peek just buffered them
	if n <= fr.br.Size() {
		body, err := fr.br.Peek(n)
		if err != nil {
			return fmt.Errorf("wire: reading frame body: %w", midFrame(err))
		}
		err = decodeBody(body, m)
		_, _ = fr.br.Discard(n)
		return err
	}
	if cap(fr.body) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if n > maxKeptBuf {
		fr.body = nil
	}
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return fmt.Errorf("wire: reading frame body: %w", midFrame(err))
	}
	return decodeBody(body, m)
}

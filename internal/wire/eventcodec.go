package wire

import (
	"bytes"
	"encoding/base64"
	"math"
	"strconv"
)

// The fast codec is the reflection-free path for every frame of a live
// session but the error reply: the three a publication costs — the
// publish, its ok reply and the event frames, whose count scales with
// fan-out — and the subscribe, unsubscribe, ping and pong frames that
// set a session up and keep it alive. Message's keys, in struct order,
// are type, rects, buffer, from_offset, group, point, payload, seq,
// trace_id, sub_id, sub_ids and delivered; each type uses its own subset
// of the optional ones (fastTypes). The encoder's output is
// byte-identical to json.Marshal of the same Message, so old peers and
// compat_test.go see no difference; the decoder accepts exactly the
// layout the encoder (and json.Marshal) produces and declines anything
// else, leaving it to encoding/json. Errors never come here: they need
// JSON string escaping and are never on a steady path.

// keySet is a set of Message's optional keys, one bit per key.
type keySet uint16

const (
	keyRects keySet = 1 << iota
	keyBuffer
	keyFromOffset
	keyGroup
	keyPoint
	keyPayload
	keySeq
	keyTraceID
	keySubID
	keySubIDs
	keyDelivered
	keyError
)

// publicationKeys are the keys of an event, publish or ok frame.
const publicationKeys = keyPoint | keyPayload | keySeq | keyTraceID | keySubID | keySubIDs | keyDelivered

// fastTypes lists the frame types the fast codec serves, each with the
// optional keys its frames may carry. A frame of another type, or one
// that carries a key outside its type's set, is declined.
var fastTypes = [...]struct {
	t    Type
	keys keySet
}{
	{TypeEvent, publicationKeys},
	{TypePublish, publicationKeys},
	{TypeOK, publicationKeys},
	{TypeSubscribe, keyRects | keyBuffer | keyFromOffset | keyGroup},
	{TypeUnsubscribe, keySubID},
	{TypePing, 0},
	{TypePong, 0},
}

// typeKeys returns the keys frames of type t may carry, and false for a
// type the fast codec does not serve.
func typeKeys(t Type) (keySet, bool) {
	for _, f := range fastTypes {
		if f.t == t {
			return f.keys, true
		}
	}
	return 0, false
}

// presentKeys returns the optional keys json.Marshal writes for m: its
// non-zero fields.
func presentKeys(m *Message) keySet {
	return keyIf(len(m.Rects) > 0, keyRects) | keyIf(m.Buffer != 0, keyBuffer) |
		keyIf(m.FromOffset != 0, keyFromOffset) | keyIf(m.Group, keyGroup) |
		keyIf(len(m.Point) > 0, keyPoint) | keyIf(len(m.Payload) > 0, keyPayload) |
		keyIf(m.Seq != 0, keySeq) | keyIf(m.TraceID != 0, keyTraceID) |
		keyIf(m.SubID != 0, keySubID) | keyIf(len(m.SubIDs) > 0, keySubIDs) |
		keyIf(m.Delivered != 0, keyDelivered) | keyIf(m.Error != "", keyError)
}

// keyIf returns k when set holds, and the empty set otherwise.
func keyIf(set bool, k keySet) keySet {
	if set {
		return k
	}
	return 0
}

// appendFastBody appends the JSON body of m to dst. It declines (ok
// false, dst's contents past its original length unspecified) when m's
// type is not in fastTypes, a field outside its type's key set is
// populated, or a coordinate or bound is NaN or infinite — so the
// caller falls back to json.Marshal for the bytes or the exact error.
//
//pubsub:hotpath
func appendFastBody(dst []byte, m *Message) (out []byte, ok bool) {
	keys, ok := typeKeys(m.Type)
	if !ok || presentKeys(m)&^keys != 0 {
		return dst, false
	}
	dst = append(dst, `{"type":"`...)
	dst = append(dst, m.Type...)
	dst = append(dst, '"')
	if len(m.Rects) > 0 {
		dst = append(dst, `,"rects":[`...)
		for i, r := range m.Rects {
			if i > 0 {
				dst = append(dst, ',')
			}
			if r == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, iv := range r {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"lo":`...)
				if dst, ok = appendBound(dst, iv.Lo); !ok {
					return dst, false
				}
				dst = append(dst, `,"hi":`...)
				if dst, ok = appendBound(dst, iv.Hi); !ok {
					return dst, false
				}
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if m.Buffer != 0 {
		dst = append(dst, `,"buffer":`...)
		dst = strconv.AppendInt(dst, int64(m.Buffer), 10)
	}
	if m.FromOffset != 0 {
		dst = append(dst, `,"from_offset":`...)
		dst = strconv.AppendUint(dst, m.FromOffset, 10)
	}
	if m.Group {
		dst = append(dst, `,"group":true`...)
	}
	if len(m.Point) > 0 {
		dst = append(dst, `,"point":[`...)
		for i, f := range m.Point {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendJSONFloat(dst, f); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if len(m.Payload) > 0 {
		dst = append(dst, `,"payload":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, m.Payload)
		dst = append(dst, '"')
	}
	if m.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, m.Seq, 10)
	}
	if m.TraceID != 0 {
		dst = append(dst, `,"trace_id":`...)
		dst = strconv.AppendUint(dst, m.TraceID, 10)
	}
	if m.SubID != 0 {
		dst = append(dst, `,"sub_id":`...)
		dst = strconv.AppendInt(dst, int64(m.SubID), 10)
	}
	if len(m.SubIDs) > 0 {
		dst = append(dst, `,"sub_ids":[`...)
		for i, id := range m.SubIDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(id), 10)
		}
		dst = append(dst, ']')
	}
	if m.Delivered != 0 {
		dst = append(dst, `,"delivered":`...)
		dst = strconv.AppendInt(dst, int64(m.Delivered), 10)
	}
	return append(dst, '}'), true
}

// appendBound appends an interval bound: null for nil, the number
// otherwise.
func appendBound(dst []byte, p *float64) ([]byte, bool) {
	if p == nil {
		return append(dst, "null"...), true
	}
	return appendJSONFloat(dst, *p)
}

// appendJSONFloat formats f exactly as encoding/json does: shortest
// round-trip digits, %f notation except for exponents below -6 or at
// least 21, and a two-digit exponent trimmed to one. It declines NaN
// and the infinities, which JSON cannot represent.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// decodeFastBody is the decoder's fast path. It fills m and reports
// true only when body is exactly the canonical layout of a type in
// fastTypes — the keys the encoder writes for that type, each at most
// once, in its order, with no whitespace, escapes or unknown keys. On
// false m may be partly written and the caller must reset it and use
// json.Unmarshal, which also produces the error for a malformed body.
// Whenever it reports true, m equals what json.Unmarshal would have
// produced.
//
// Every cut function below returns a nil rest when it fails, and fails
// on an empty input, so in a chain of them only the last ok counts: a
// failure anywhere leaves rest nil, and the closing brace unfound. A key
// outside the type's set is left unread (cutKey), with the same end.
func decodeFastBody(body []byte, m *Message) bool {
	rest, ok := cutLit(body, `{"type":"`)
	end := bytes.IndexByte(rest, '"')
	if !ok || end < 0 {
		return false
	}
	keys, ok := keySet(0), false
	for _, f := range fastTypes { // compares the bytes in place, unlike a call taking a string
		if string(rest[:end]) == string(f.t) {
			m.Type, keys, ok = f.t, f.keys, true
		}
	}
	if !ok {
		return false
	}
	rest = rest[end+1:]
	if r, ok := cutKey(rest, keys, keyRects, `,"rects":[`); ok {
		// The frame's intervals share one backing array, and so do their
		// numeric bounds; counting the body's intervals sizes both for at
		// least as many as are parsed, so neither grows.
		n := bytes.Count(body, []byte(`{"lo":`))
		ivs, bounds := make([]Interval, 0, n), make([]float64, 0, 2*n)
		m.Rects = make([]Rect, 0, bytes.Count(body, []byte(`],[`))+1)
		rest, _ = cutList(r, func(b []byte) ([]byte, bool) {
			start := len(ivs)
			b, _ = cutLit(b, `[`)
			b, ok := cutList(b, func(b []byte) ([]byte, bool) {
				var iv Interval
				b, _ = cutLit(b, `{"lo":`)
				iv.Lo, b, _ = cutBound(b, &bounds)
				b, _ = cutLit(b, `,"hi":`)
				iv.Hi, b, _ = cutBound(b, &bounds)
				ivs = append(ivs, iv)
				return cutLit(b, `}`)
			})
			m.Rects = append(m.Rects, ivs[start:len(ivs):len(ivs)])
			return b, ok
		})
	}
	if r, ok := cutKey(rest, keys, keyBuffer, `,"buffer":`); ok {
		m.Buffer, rest, _ = cutInt(r)
	}
	if r, ok := cutKey(rest, keys, keyFromOffset, `,"from_offset":`); ok {
		m.FromOffset, rest, _ = cutUint(r)
	}
	if r, ok := cutKey(rest, keys, keyGroup, `,"group":true`); ok {
		m.Group, rest = true, r
	}
	if r, ok := cutKey(rest, keys, keyPoint, `,"point":[`); ok {
		m.Point = make([]float64, 0, listLen(r))
		rest, _ = cutList(r, func(b []byte) ([]byte, bool) {
			f, b, ok := cutFloat(b)
			m.Point = append(m.Point, f)
			return b, ok
		})
	}
	if r, ok := cutKey(rest, keys, keyPayload, `,"payload":"`); ok {
		end := bytes.IndexByte(r, '"')
		if end < 0 {
			return false
		}
		enc := r[:end]
		// The base64 decoder skips raw CR and LF, which JSON forbids
		// inside a string; every other non-alphabet byte — a backslash
		// of an escape included — makes Decode fail.
		if bytes.IndexByte(enc, '\n') >= 0 || bytes.IndexByte(enc, '\r') >= 0 {
			return false
		}
		buf := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
		n, err := base64.StdEncoding.Decode(buf, enc)
		if err != nil {
			return false
		}
		m.Payload = buf[:n]
		rest = r[end+1:]
	}
	if r, ok := cutKey(rest, keys, keySeq, `,"seq":`); ok {
		m.Seq, rest, _ = cutUint(r)
	}
	if r, ok := cutKey(rest, keys, keyTraceID, `,"trace_id":`); ok {
		m.TraceID, rest, _ = cutUint(r)
	}
	if r, ok := cutKey(rest, keys, keySubID, `,"sub_id":`); ok {
		m.SubID, rest, _ = cutInt(r)
	}
	if r, ok := cutKey(rest, keys, keySubIDs, `,"sub_ids":[`); ok {
		m.SubIDs = make([]int, 0, listLen(r))
		rest, _ = cutList(r, func(b []byte) ([]byte, bool) {
			id, b, ok := cutInt(b)
			m.SubIDs = append(m.SubIDs, id)
			return b, ok
		})
	}
	if r, ok := cutKey(rest, keys, keyDelivered, `,"delivered":`); ok {
		m.Delivered, rest, _ = cutInt(r)
	}
	return len(rest) == 1 && rest[0] == '}'
}

// cutList parses a list's elements with elem, one or more of them
// separated by commas, and its closing bracket. An empty list fails:
// json.Marshal omits an empty slice, and json.Unmarshal of [] yields a
// non-nil one.
func cutList(b []byte, elem func([]byte) ([]byte, bool)) ([]byte, bool) {
	for {
		var ok bool
		if b, ok = elem(b); !ok {
			return nil, false
		}
		if len(b) == 0 || b[0] != ',' {
			return cutLit(b, `]`)
		}
		b = b[1:]
	}
}

// listLen bounds the length of the list whose elements b starts with:
// one more than its commas before the first closing bracket.
func listLen(b []byte) int {
	if end := bytes.IndexByte(b, ']'); end >= 0 {
		b = b[:end]
	}
	return bytes.Count(b, []byte{','}) + 1
}

// cutBound parses an interval bound: null, or a number stored in the
// next slot of *bounds.
func cutBound(b []byte, bounds *[]float64) (*float64, []byte, bool) {
	if r, ok := cutLit(b, `null`); ok {
		return nil, r, true
	}
	f, r, ok := cutFloat(b)
	*bounds = append(*bounds, f)
	return &(*bounds)[len(*bounds)-1], r, ok
}

// cutKey cuts key off the front of b when k is in the set of keys the
// frame's type allows.
func cutKey(b []byte, allowed, k keySet, key string) ([]byte, bool) {
	if allowed&k == 0 {
		return nil, false
	}
	return cutLit(b, key)
}

// cutLit cuts the literal lit off the front of b.
func cutLit(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return nil, false
	}
	return b[len(lit):], true
}

// cutFloat parses a leading JSON number literal as a float64. It
// fails on one out of float64's range, which json reports as an error.
func cutFloat(b []byte) (f float64, rest []byte, ok bool) {
	n := numberLen(b)
	if n == 0 {
		return 0, nil, false
	}
	if f, err := strconv.ParseFloat(string(b[:n]), 64); err == nil {
		return f, b[n:], true
	}
	return 0, nil, false
}

// cutInt parses a leading JSON integer literal that fits an int: an
// optional minus sign, then what cutUint accepts.
func cutInt(b []byte) (v int, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, rest, ok := cutUint(b)
	switch {
	case ok && neg && u <= -math.MinInt:
		return int(-u), rest, true
	case ok && !neg && u <= math.MaxInt:
		return int(u), rest, true
	}
	return 0, nil, false
}

// cutUint parses a leading JSON non-negative integer literal (no sign,
// fraction, exponent or leading zero) that fits a uint64.
func cutUint(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, nil, false
		}
		v = v*10 + d
	}
	if i == 0 || (i > 1 && b[0] == '0') {
		return 0, nil, false
	}
	return v, b[i:], true
}

// numberLen returns the length of the JSON number literal at the front
// of b — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or 0 when it
// holds none. strconv.ParseFloat alone accepts more (hex, "Inf", a bare
// ".5"). The caller checks that a delimiter follows.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = skipDigits(b, i); i < 0 {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); i < 0 {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = skipDigits(b, i); i < 0 {
			return 0
		}
	}
	return i
}

// skipDigits returns the index after the run of decimal digits starting
// at i, or -1 when there is none.
func skipDigits(tok []byte, i int) int {
	start := i
	for i < len(tok) && tok[i] >= '0' && tok[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

package wire

import (
	"bytes"
	"encoding/base64"
	"math"
	"strconv"
)

// The fast codec is the reflection-free path for the three frame types
// a publication costs: the publish, its ok reply, and the event frames,
// whose count scales with fan-out. They share one key sequence — type,
// point, payload, seq, trace_id, sub_id, sub_ids, delivered — each key
// optional. The encoder's output is byte-identical to json.Marshal of
// the same Message, so old peers and compat_test.go see no difference;
// the decoder accepts exactly the layout the encoder (and json.Marshal)
// produces and declines anything else, leaving it to encoding/json.
// Subscribes, errors and keepalives never come here.

// appendFastBody appends the JSON body of an event, publish or ok
// message to dst. It declines (ok false, dst's contents past its
// original length unspecified) when m is of another type, a field
// outside the shared key sequence is populated, or a coordinate is NaN
// or infinite — so the caller falls back to json.Marshal for the bytes
// or the exact error.
//
//pubsub:hotpath
func appendFastBody(dst []byte, m *Message) (out []byte, ok bool) {
	if (m.Type != TypeEvent && m.Type != TypePublish && m.Type != TypeOK) ||
		len(m.Rects) != 0 || m.Buffer != 0 || m.FromOffset != 0 || m.Group || m.Error != "" {
		return dst, false
	}
	dst = append(dst, `{"type":"`...)
	dst = append(dst, m.Type...)
	dst = append(dst, '"')
	if len(m.Point) > 0 {
		dst = append(dst, `,"point":[`...)
		for i, f := range m.Point {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, false
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, f)
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

// appendJSONFloat formats a finite float64 exactly as encoding/json
// does: shortest round-trip digits, %f notation except for exponents
// below -6 or at least 21, and a two-digit exponent trimmed to one.
func appendJSONFloat(dst []byte, f float64) []byte {
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
	return dst
}

// decodeFastBody is the decoder's fast path. It fills m and reports
// true only when body is exactly the canonical layout of an event,
// publish or ok — the keys the encoder writes, each at most once, in its
// order, with no whitespace, escapes or unknown keys. On false m may be
// partly written and the caller must reset it and use json.Unmarshal,
// which also produces the error for a malformed body. Whenever it
// reports true, m equals what json.Unmarshal would have produced.
func decodeFastBody(body []byte, m *Message) bool {
	rest, ok := bytes.CutPrefix(body, []byte(`{"type":"`))
	end := bytes.IndexByte(rest, '"')
	if !ok || end < 0 {
		return false
	}
	switch string(rest[:end]) {
	case "event":
		m.Type = TypeEvent
	case "publish":
		m.Type = TypePublish
	case "ok":
		m.Type = TypeOK
	default:
		return false
	}
	rest = rest[end+1:]
	if r, ok := bytes.CutPrefix(rest, []byte(`,"point":[`)); ok {
		end := bytes.IndexByte(r, ']')
		if end <= 0 {
			return false // unterminated, or an empty array (json yields a non-nil empty slice)
		}
		nums := r[:end]
		m.Point = make([]float64, 0, bytes.Count(nums, []byte{','})+1)
		for len(nums) > 0 {
			tok := nums
			if i := bytes.IndexByte(nums, ','); i >= 0 {
				tok, nums = nums[:i], nums[i+1:]
				if len(nums) == 0 {
					return false // trailing comma
				}
			} else {
				nums = nil
			}
			if !isJSONNumber(tok) {
				return false
			}
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return false // out of range: json reports it as an error
			}
			m.Point = append(m.Point, f)
		}
		rest = r[end+1:]
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"payload":"`)); ok {
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
	if r, ok := bytes.CutPrefix(rest, []byte(`,"seq":`)); ok {
		if m.Seq, rest, ok = cutUint(r); !ok {
			return false
		}
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"trace_id":`)); ok {
		if m.TraceID, rest, ok = cutUint(r); !ok {
			return false
		}
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"sub_id":`)); ok {
		if m.SubID, rest, ok = cutInt(r); !ok {
			return false
		}
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"sub_ids":[`)); ok {
		end := bytes.IndexByte(r, ']')
		if end <= 0 {
			return false // unterminated, or an empty list (json yields a non-nil empty slice)
		}
		m.SubIDs = make([]int, 0, bytes.Count(r[:end], []byte{','})+1)
		for {
			var id int
			if id, r, ok = cutInt(r); !ok {
				return false
			}
			m.SubIDs = append(m.SubIDs, id)
			if r[0] == ']' { // cutInt stops at a non-digit, and r still holds the ']' found above
				break
			}
			if r[0] != ',' {
				return false
			}
			r = r[1:]
		}
		rest = r[1:]
	}
	if r, ok := bytes.CutPrefix(rest, []byte(`,"delivered":`)); ok {
		if m.Delivered, rest, ok = cutInt(r); !ok {
			return false
		}
	}
	return len(rest) == 1 && rest[0] == '}'
}

// cutInt parses a leading JSON integer literal that fits an int: an
// optional minus sign, then what cutUint accepts.
func cutInt(b []byte) (v int, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, rest, ok := cutUint(b)
	if neg {
		return int(-u), rest, ok && u <= -math.MinInt
	}
	return int(u), rest, ok && u <= math.MaxInt
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

// isJSONNumber reports whether tok is a JSON number literal:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat
// alone accepts more (hex, "Inf", a bare ".5").
func isJSONNumber(tok []byte) bool {
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	if i < len(tok) && tok[i] == '0' {
		i++
	} else if i = skipDigits(tok, i); i < 0 {
		return false
	}
	if i < len(tok) && tok[i] == '.' {
		if i = skipDigits(tok, i+1); i < 0 {
			return false
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if i = skipDigits(tok, i); i < 0 {
			return false
		}
	}
	return i == len(tok)
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

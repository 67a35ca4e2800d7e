package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// checkEncode holds the fast encoder to its contract for one message:
// byte-identical to json.Marshal when it accepts, and a decline exactly
// when json.Marshal is needed (a non-event field set) or fails.
func checkEncode(t *testing.T, m *Message) {
	t.Helper()
	want, wantErr := json.Marshal(m)
	got, ok := appendFastBody(nil, m)
	if ok {
		if wantErr != nil {
			t.Fatalf("fast encoder accepted %+v, json.Marshal fails: %v", m, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fast encoder differs for %+v:\n got %s\nwant %s", m, got, want)
		}
	}
	// The framed form carries the same bytes, or the same failure.
	frame, err := appendFrame([]byte("prefix"), m)
	if wantErr != nil || len(want) > MaxFrame {
		if err == nil {
			t.Fatalf("appendFrame accepted %+v, want an error (json: %v, %d bytes)", m, wantErr, len(want))
		}
		if string(frame) != "prefix" {
			t.Fatalf("appendFrame left %d bytes behind on error", len(frame)-len("prefix"))
		}
		return
	}
	if err != nil {
		t.Fatalf("appendFrame(%+v): %v", m, err)
	}
	frame = frame[len("prefix"):]
	if n := binary.BigEndian.Uint32(frame); int(n) != len(want) || !bytes.Equal(frame[4:], want) {
		t.Fatalf("frame differs for %+v:\n got %d %s\nwant %d %s", m, n, frame[4:], len(want), want)
	}
}

// checkDecode holds the fast decoder to its contract for one body: it
// declines, or it returns exactly what json.Unmarshal returns.
func checkDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var fast Message
	if !decodeFastBody(body, &fast) {
		return false
	}
	var want Message
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("fast decoder accepted %q, json.Unmarshal fails: %v", body, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast decoder differs for %q:\n got %+v\nwant %+v", body, fast, want)
	}
	// DeepEqual treats -0 and 0 alike and NaN as unequal to itself;
	// compare the coordinates and bounds bit for bit.
	for i := range want.Point {
		if math.Float64bits(fast.Point[i]) != math.Float64bits(want.Point[i]) {
			t.Fatalf("coordinate %d of %q: got %v want %v", i, body, fast.Point[i], want.Point[i])
		}
	}
	for i, r := range want.Rects {
		for j, iv := range r {
			for _, b := range [][2]*float64{{fast.Rects[i][j].Lo, iv.Lo}, {fast.Rects[i][j].Hi, iv.Hi}} {
				if b[1] != nil && math.Float64bits(*b[0]) != math.Float64bits(*b[1]) {
					t.Fatalf("bound of interval %d of rect %d of %q: got %v want %v", j, i, body, *b[0], *b[1])
				}
			}
		}
	}
	return true
}

func TestEventEncodeMatchesJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	points := [][]float64{
		nil, {}, {0}, {negZero}, {1}, {-1.5}, {100, 37.25, 9.99},
		{1e20, 1e21, 1.5e21, -1e21, 1e-6, 1e-7, 9.9e-7, 1e-9, 1e-10, 1e100, 1e-100},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9406564584124654e-324},
		{0.1, 0.2, 0.30000000000000004, 1.0 / 3, 123456789.123456789, 1 << 53, 1<<63 - 1},
	}
	payloads := [][]byte{nil, {}, {0}, []byte("x"), []byte("tick"), []byte("<>&\u2028\"\\"), bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 100)}
	ids := []uint64{0, 1, 9, 10, 123456, math.MaxUint64}
	subs := []int{0, 1, 17, -1, math.MaxInt, math.MinInt}
	n := 0
	for _, p := range points {
		for _, pl := range payloads {
			for i, id := range ids {
				m := &Message{Type: TypeEvent, Point: p, Payload: pl, Seq: id, TraceID: ids[len(ids)-1-i], SubID: subs[i]}
				checkEncode(t, m)
				if _, ok := appendFastBody(nil, m); !ok {
					t.Fatalf("fast encoder declined a plain event: %+v", m)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no cases ran")
	}
	// Publishes and their replies share the layout.
	for _, m := range []*Message{
		{Type: TypePublish}, {Type: TypeOK},
		{Type: TypePublish, Point: []float64{100, 37.25}, Payload: []byte("tick"), TraceID: math.MaxUint64},
		{Type: TypePublish, Point: []float64{1e21}, Seq: 3},
		{Type: TypeOK, SubID: 17}, {Type: TypeOK, SubID: -1, Delivered: math.MinInt},
		{Type: TypeOK, TraceID: 9, Delivered: 32},
		{Type: TypeOK, Point: []float64{1}, Payload: []byte("x"), Seq: 1, TraceID: 2, SubID: 3, SubIDs: []int{4}, Delivered: math.MaxInt},
		{Type: TypeEvent, Point: []float64{1}, Delivered: 2},
	} {
		checkEncode(t, m)
		if _, ok := appendFastBody(nil, m); !ok {
			t.Fatalf("fast encoder declined %+v", m)
		}
	}
	// The grouped layout: sub_ids as the last key.
	for _, ids := range [][]int{{}, {1}, {17, 3}, {-1, 0, math.MaxInt, math.MinInt}} {
		for _, m := range []*Message{
			{Type: TypeEvent, SubIDs: ids},
			{Type: TypeEvent, Point: []float64{100, 37.25}, Payload: []byte("tick"), Seq: 9, TraceID: 1, SubIDs: ids},
			{Type: TypeEvent, Point: []float64{1}, Seq: 9, SubID: 4, SubIDs: ids},
		} {
			checkEncode(t, m)
			if _, ok := appendFastBody(nil, m); !ok {
				t.Fatalf("fast encoder declined a grouped event: %+v", m)
			}
		}
	}
}

// The allocfree analyzer takes strconv's and base64's append-style
// formatters on trust: they allocate only when the caller's slice has to
// grow. This is the other half of that argument — into a buffer with
// room for the frame, the encoder does not touch the heap.
func TestEventEncodeAllocatesNothing(t *testing.T) {
	m := benchEvent()
	buf := make([]byte, 0, eventFrameBound(len(m.Point), len(m.Payload)))
	allocs := testing.AllocsPerRun(100, func() {
		out, ok := appendFastBody(buf, m)
		if !ok || len(out) == 0 || &out[0] != &buf[:1][0] {
			t.Fatal("encoder declined, or left the caller's buffer")
		}
	})
	if allocs != 0 {
		t.Errorf("appendFastBody: %g allocs per frame into a pre-sized buffer, want 0", allocs)
	}
}

func TestEventEncodeDeclines(t *testing.T) {
	lo := 1.0
	for _, m := range []*Message{
		{Type: TypeError, Error: "x"}, {Type: "bogus"}, {Type: ""}, {Type: `ok"`},
		{Type: TypeOK, SubID: 3, Error: "x"},
		{Type: TypePublish, Point: []float64{1}, Buffer: 4},
		{Type: TypeEvent, Point: []float64{1}, Error: "x"},
		{Type: TypeEvent, Point: []float64{1}, Buffer: 4},
		{Type: TypeEvent, Point: []float64{1}, FromOffset: 9},
		{Type: TypeEvent, Point: []float64{1}, Group: true},
		{Type: TypeEvent, Point: []float64{1}, Rects: []Rect{{{Lo: &lo}}}},
	} {
		if _, ok := appendFastBody(nil, m); ok {
			t.Errorf("fast encoder accepted a message outside its layout: %+v", m)
		}
		checkEncode(t, m) // and the frame still equals json.Marshal's
	}
}

// Non-finite coordinates must fail exactly as json.Marshal fails, as an
// encode error.
func TestEventEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := &Message{Type: TypeEvent, Point: []float64{1, f}, Payload: []byte("x"), Seq: 1}
		_, wantErr := json.Marshal(m)
		if wantErr == nil {
			t.Fatalf("json.Marshal accepted %v", f)
		}
		if _, ok := appendFastBody(nil, m); ok {
			t.Errorf("fast encoder accepted %v", f)
		}
		var buf bytes.Buffer
		err := WriteMessage(&buf, m)
		if err == nil || !errors.Is(err, errEncode) || !bytes.Contains([]byte(err.Error()), []byte(wantErr.Error())) {
			t.Errorf("WriteMessage(%v) = %v, want an encode error carrying %q", f, err, wantErr)
		}
		if buf.Len() != 0 {
			t.Errorf("WriteMessage(%v) wrote %d bytes", f, buf.Len())
		}
	}
}

func TestEventDecodeCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, m := range []*Message{
		{Type: TypeEvent},
		{Type: TypeEvent, Point: []float64{negZero, 1e21, 1e-7, 4.9406564584124654e-324}},
		{Type: TypeEvent, Point: []float64{100, 37.25}, Payload: []byte("tick"), Seq: 123456, TraceID: math.MaxUint64, SubID: 17},
		{Type: TypeEvent, Payload: []byte{0}, SubID: -4},
		{Type: TypeEvent, Point: []float64{5}, Seq: 1},
		{Type: TypeEvent, SubIDs: []int{7}},
		{Type: TypeEvent, Point: []float64{5}, Payload: []byte("tick"), Seq: 1, TraceID: 2, SubIDs: []int{3, -4, 0, math.MaxInt}},
		{Type: TypeEvent, Seq: 1, SubID: 3, SubIDs: []int{4, 5}},
		{Type: TypePublish}, {Type: TypeOK},
		{Type: TypePublish, Point: []float64{100, 37.25}, Payload: []byte("tick"), TraceID: math.MaxUint64},
		{Type: TypeOK, SubID: 17}, {Type: TypeOK, TraceID: 9, Delivered: 32},
		{Type: TypeOK, SubID: -1, Delivered: -5},
	} {
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDecode(t, body) {
			t.Errorf("fast decoder declined the canonical frame %s", body)
		}
	}
}

func TestEventDecodeDeclines(t *testing.T) {
	for _, body := range []string{
		``, `{}`, `{"type":"event"`, `{"type":"event"}x`, `{"type":"event"} `,
		`{"type":"error","error":"x"}`, `{"type":""}`,
		`{"type":"ok"`, `{"type":"ok`, `{"type":"oke"}`, `{"type":"o\u006b"}`, `{"type":"OK"}`,
		`{"type":"ok","error":"x"}`,
		`{"type":"ok","delivered":1,"sub_id":1}`, // reordered keys
		`{"type":"ok","delivered":1,"delivered":2}`,
		`{"type":"ok","delivered":1.0}`,
		`{"type":"ok","delivered":9223372036854775808}`,
		`{"type":"ok","delivered":}`,
		`{"type":"ok","delivered":1,}`,
		`{"type":"publish","rects":[],"point":[1]}`,
		`{"type":"publish","point":[1],"buffer":4}`,
		`{"seq":1,"type":"event"}`,                           // reordered keys
		`{"type":"event","seq":1,"point":[1]}`,               // reordered keys
		`{"type":"event", "seq":1}`,                          // whitespace
		`{"type":"event","point":[1, 2]}`,                    // whitespace
		`{"type":"event","point":[ ]}`,                       // whitespace
		`{"type":"event","color":"red"}`,                     // unknown field
		`{"type":"event","seq":1,"color":"red"}`,             // unknown field
		`{"type":"event","seq":1,"seq":2}`,                   // duplicate key
		`{"type":"event","type":"event"}`,                    // duplicate key
		`{"type":"event","payload":"dGljaw==","payload":""}`, // duplicate key
		`{"type":"event","payload":"dGlja\u0077=="}`,         // escaped string
		`{"type":"event","payload":"dGl\"ja"}`,               // escaped quote
		`{"type":"ev\u0065nt"}`,                              // escaped string
		"{\"type\":\"event\",\"payload\":\"dGlj\naw==\"}",    // raw LF: invalid JSON, but base64 skips it
		"{\"type\":\"event\",\"payload\":\"dGlj\raw==\"}",    // raw CR
		`{"type":"event","payload":"dGlj\naw=="}`,            // escaped LF: valid JSON, base64 skips it
		`{"type":"event","payload":"!!!!"}`,
		`{"type":"event","payload":null}`,
		`{"type":"event","point":null}`,
		`{"type":"event","point":[]}`,
		`{"type":"event","point":[1,]}`,
		`{"type":"event","point":[,1]}`,
		`{"type":"event","point":[1,,2]}`,
		`{"type":"event","point":[01]}`,
		`{"type":"event","point":[.5]}`,
		`{"type":"event","point":[1.]}`,
		`{"type":"event","point":[+1]}`,
		`{"type":"event","point":[0x10]}`,
		`{"type":"event","point":[Inf]}`,
		`{"type":"event","point":[NaN]}`,
		`{"type":"event","point":[1e]}`,
		`{"type":"event","point":[1e999]}`,
		`{"type":"event","point":["1"]}`,
		`{"type":"event","point":[[1]]}`,
		`{"type":"event","point":[1}`,
		`{"type":"event","seq":01}`,
		`{"type":"event","seq":-1}`,
		`{"type":"event","seq":1.0}`,
		`{"type":"event","seq":1e3}`,
		`{"type":"event","seq":18446744073709551616}`,
		`{"type":"event","seq":}`,
		`{"type":"event","sub_id":9223372036854775808}`,
		`{"type":"event","sub_id":-}`,
		`{"type":"event","sub_id":--1}`,
		`{"type":"event","sub_id":1`,
		`{"type":"event","sub_ids":[]}`, // json yields a non-nil empty slice
		`{"type":"event","sub_ids":null}`,
		`{"type":"event","sub_ids":[1,]}`,
		`{"type":"event","sub_ids":[,1]}`,
		`{"type":"event","sub_ids":[1,,2]}`,
		`{"type":"event","sub_ids":[1 ,2]}`,
		`{"type":"event","sub_ids":[1, 2]}`,
		`{"type":"event","sub_ids":[01]}`,
		`{"type":"event","sub_ids":[1.0]}`,
		`{"type":"event","sub_ids":[1e1]}`,
		`{"type":"event","sub_ids":[-]}`,
		`{"type":"event","sub_ids":["1"]}`,
		`{"type":"event","sub_ids":[[1]]}`,
		`{"type":"event","sub_ids":[9223372036854775808]}`,
		`{"type":"event","sub_ids":[1}`,
		`{"type":"event","sub_ids":[1]`,
		`{"type":"event","sub_ids":[1]]}`,
		`{"type":"event","sub_ids":1}`,
		`{"type":"event","sub_ids":[1],"sub_ids":[2]}`, // duplicate key
		`{"type":"event","sub_ids":[1],"sub_id":2}`,    // reordered keys
		`{"type":"event","sub_ids":[1],"seq":2}`,       // reordered keys
	} {
		if checkDecode(t, []byte(body)) {
			t.Errorf("fast decoder accepted the non-canonical body %s", body)
		}
	}
	// Accepting is allowed, not required, for valid variants of the
	// canonical layout; whatever it does must agree with encoding/json.
	for _, body := range []string{
		`{"type":"event","seq":0}`,
		`{"type":"event","sub_id":-0}`,
		`{"type":"event","sub_ids":[-0,0]}`,
		`{"type":"event","point":[1E2,1e+2,-0.0,1.50]}`,
		`{"type":"event","payload":""}`,
		`{"type":"event","payload":"dGljaw"}`,   // missing padding
		`{"type":"event","payload":"dGljaX=="}`, // non-zero trailing bits
	} {
		checkDecode(t, []byte(body))
	}
}

func FuzzEventEncode(f *testing.F) {
	f.Add(1.5, 2.0, []byte("tick"), uint64(7), uint64(99), 17, 2)
	f.Add(math.Copysign(0, -1), 1e21, []byte(nil), uint64(0), uint64(0), 0, 2)
	f.Add(1e-7, 4.9406564584124654e-324, []byte{}, uint64(math.MaxUint64), uint64(1), -3, 1)
	f.Add(math.NaN(), math.Inf(-1), []byte{0xff}, uint64(1), uint64(1), 1, 2)
	f.Add(0.0, 0.0, []byte("x"), uint64(1), uint64(2), 3, 0)
	f.Add(5.0, 5.0, []byte("tick"), uint64(0), uint64(99), 0, 2|1<<2)
	f.Add(0.0, 0.0, []byte(nil), uint64(32), uint64(99), 0, 2<<2)
	f.Fuzz(func(t *testing.T, a, b float64, payload []byte, seq, traceID uint64, subID, dims int) {
		m := &Message{Type: TypeEvent, Payload: payload, Seq: seq, TraceID: traceID, SubID: subID}
		switch dims >> 2 & 3 { // the publish and ok layouts too
		case 1:
			m.Type = TypePublish
		case 2:
			m.Type, m.Delivered = TypeOK, subID^int(seq)
		}
		switch dims & 3 {
		case 1:
			m.Point = []float64{a}
		case 2:
			m.Point = []float64{a, b}
		case 3:
			m.Point = []float64{a, b, a, b, b}
		}
		checkEncode(t, m)
		// What it encodes, both decoders read back alike.
		if body, ok := appendFastBody(nil, m); ok && !checkDecode(t, body) {
			t.Fatalf("fast decoder declined the fast encoder's output %s", body)
		}
	})
}

// FuzzPublishDecode and FuzzOKDecode hold the decoder to the same
// contract from the other two layouts' corners of the input space.
func FuzzPublishDecode(f *testing.F) {
	for _, m := range []*Message{
		{Type: TypePublish},
		{Type: TypePublish, Point: []float64{100, 37.25}, Payload: []byte("tick"), TraceID: 1 << 60},
		{Type: TypePublish, Point: []float64{-0.5, 1e21}, Seq: 4},
	} {
		body, _ := json.Marshal(m)
		f.Add(body)
	}
	f.Add([]byte(`{"type":"publish","point":[1],"buffer":4}`))
	f.Add([]byte(`{"type":"publish","point":[1e999],"trace_id":1}`))
	f.Add([]byte(`{"type":"publish","payload":"dGlj\naw=="}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

func FuzzOKDecode(f *testing.F) {
	for _, m := range []*Message{
		{Type: TypeOK},
		{Type: TypeOK, SubID: 17},
		{Type: TypeOK, TraceID: 1 << 60, Delivered: 32},
		{Type: TypeOK, SubID: -4, Delivered: -1},
	} {
		body, _ := json.Marshal(m)
		f.Add(body)
	}
	f.Add([]byte(`{"type":"ok","delivered":1,"sub_id":1}`))
	f.Add([]byte(`{"type":"ok","delivered":01}`))
	f.Add([]byte(`{"type":"ok","error":"x"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

func FuzzEventDecode(f *testing.F) {
	for _, m := range []*Message{
		{Type: TypeEvent},
		{Type: TypeEvent, Point: []float64{100, 37.25}, Payload: []byte("tick"), Seq: 123456, TraceID: 1 << 60, SubID: 17},
		{Type: TypeEvent, Point: []float64{-0.5, 1e21}, SubID: -4},
	} {
		body, _ := json.Marshal(m)
		f.Add(body)
	}
	f.Add([]byte(`{"type":"event","seq":1,"seq":2}`))
	f.Add([]byte("{\"type\":\"event\",\"payload\":\"dGlj\naw==\"}"))
	f.Add([]byte(`{"type":"event","point":[1e999]}`))
	f.Add([]byte(`{"type":"event","sub_id":-0}`))
	f.Add([]byte(`{"type":"event","point":[5],"payload":"dGljaw==","seq":7,"trace_id":9,"sub_ids":[3,1,-2]}`))
	f.Add([]byte(`{"type":"event","sub_ids":[1,]}`))
	f.Add([]byte(`{"type":"event","sub_ids":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// controlMessages are subscribe, unsubscribe and keepalive frames in
// every layout the fast encoder writes: nil and signed-zero bounds,
// floats on both sides of the exponent thresholds, a negative buffer,
// and the ends of the integer ranges.
func controlMessages() []*Message {
	f := func(v float64) *float64 { return &v }
	negZero := math.Copysign(0, -1)
	return []*Message{
		{Type: TypeSubscribe}, {Type: TypeUnsubscribe, SubID: 3}, {Type: TypePing}, {Type: TypePong},
		{Type: TypeUnsubscribe}, {Type: TypeUnsubscribe, SubID: math.MinInt}, {Type: TypeUnsubscribe, SubID: math.MaxInt},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: f(20), Hi: f(30)}}}},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: f(20), Hi: f(30)}, {}, {Lo: f(negZero)}, {Hi: f(0)}}}, Group: true},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: f(1e-7), Hi: f(1e-6)}}, {{Lo: f(9.9e20), Hi: f(1e21)}, {Lo: f(-1e100), Hi: f(math.MaxFloat64)}}}, Buffer: 64, Group: true},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: f(0.1), Hi: f(4.9406564584124654e-324)}}}, Buffer: -1, FromOffset: math.MaxUint64},
		{Type: TypeSubscribe, FromOffset: 1},
		{Type: TypeSubscribe, Buffer: math.MinInt, FromOffset: 7, Group: true},
		{Type: TypeSubscribe, Rects: []Rect{nil}},
		{Type: TypeSubscribe, Rects: []Rect{{}, {{Lo: f(1)}}}},
	}
}

// fastDecodable reports whether the fast decoder reads m's encoding:
// all of it but empty and null rectangles, which json.Marshal writes
// and no server accepts, so the decoder leaves them to encoding/json.
func fastDecodable(m *Message) bool {
	for _, r := range m.Rects {
		if len(r) == 0 {
			return false
		}
	}
	return true
}

func TestControlEncodeMatchesJSON(t *testing.T) {
	for _, m := range controlMessages() {
		checkEncode(t, m)
		if _, ok := appendFastBody(nil, m); !ok {
			t.Errorf("fast encoder declined %+v", m)
		}
	}
}

// A subscribe frame into a buffer with room for it touches the heap as
// little as an event frame does: not at all.
func TestSubscribeEncodeAllocatesNothing(t *testing.T) {
	lo, hi := 20.5, 30.25
	iv := Interval{Lo: &lo, Hi: &hi}
	m := &Message{Type: TypeSubscribe, Rects: []Rect{{iv, iv, iv, iv}}, FromOffset: 9, Group: true}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		out, ok := appendFastBody(buf, m)
		if !ok || len(out) == 0 || &out[0] != &buf[:1][0] {
			t.Fatal("encoder declined, or left the caller's buffer")
		}
	})
	if allocs != 0 {
		t.Errorf("appendFastBody: %g allocs per subscribe frame into a pre-sized buffer, want 0", allocs)
	}
}

// The decoder takes a frame's rectangles from three allocations — the
// rectangle list, one array of intervals and one of bounds — however
// many bounds the frame carries.
func TestSubscribeDecodeAllocations(t *testing.T) {
	for _, dims := range []int{1, 4, 16} {
		lo, hi := 20.5, 30.25
		r := make(Rect, dims)
		for i := range r {
			r[i] = Interval{Lo: &lo, Hi: &hi}
		}
		body, err := json.Marshal(&Message{Type: TypeSubscribe, Rects: []Rect{r, r}, Group: true})
		if err != nil {
			t.Fatal(err)
		}
		var m Message
		allocs := testing.AllocsPerRun(100, func() {
			m = Message{}
			if !decodeFastBody(body, &m) {
				t.Fatalf("fast decoder declined %s", body)
			}
		})
		if allocs > 3 {
			t.Errorf("%d-d subscribe: %g allocs per decode, want at most 3", dims, allocs)
		}
	}
}

func TestControlEncodeDeclines(t *testing.T) {
	one, nan, inf := 1.0, math.NaN(), math.Inf(-1)
	for _, m := range []*Message{
		{Type: TypeSubscribe, Point: []float64{1}},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: &one}}}, SubID: 2},
		{Type: TypeSubscribe, Payload: []byte("x")},
		{Type: TypeSubscribe, Error: "x"},
		{Type: TypeUnsubscribe, SubID: 1, Buffer: 4},
		{Type: TypeUnsubscribe, SubID: 1, Group: true},
		{Type: TypeUnsubscribe, SubID: 1, Seq: 4},
		{Type: TypePing, SubID: 1},
		{Type: TypePing, Rects: []Rect{{{Lo: &one}}}},
		{Type: TypePong, Delivered: 1},
		{Type: TypePong, FromOffset: 1},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: &nan}}}},
		{Type: TypeSubscribe, Rects: []Rect{{{Lo: &one}, {Hi: &inf}}}, Group: true},
	} {
		if _, ok := appendFastBody(nil, m); ok {
			t.Errorf("fast encoder accepted a message outside its layout: %+v", m)
		}
		checkEncode(t, m) // and the frame still equals json.Marshal's, or fails as it does
	}
}

func TestControlDecodeCanonical(t *testing.T) {
	for _, m := range controlMessages() {
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if canonical := fastDecodable(m); checkDecode(t, body) != canonical {
			t.Errorf("fast decoder on %s: accepted %v, want %v", body, !canonical, canonical)
		}
	}
}

func TestControlDecodeDeclines(t *testing.T) {
	for _, body := range []string{
		`{"type":"subscribe","rects":[]}`,
		`{"type":"subscribe","rects":[[]]}`,
		`{"type":"subscribe","rects":[null]}`,
		`{"type":"subscribe","rects":null}`,
		`{"type":"subscribe","rects":[[null]]}`,
		`{"type":"subscribe","rects":[[{}]]}`,
		`{"type":"subscribe","rects":[[{"hi":1}]]}`,                     // lo missing
		`{"type":"subscribe","rects":[[{"lo":1}]]}`,                     // hi missing
		`{"type":"subscribe","rects":[[{"hi":1,"lo":0}]]}`,              // reordered keys
		`{"type":"subscribe","rects":[[{"lo":0,"lo":0,"hi":1}]]}`,       // duplicate key
		`{"type":"subscribe","rects":[[{"lo":0,"hi":1,"hi":1}]]}`,       // duplicate key
		`{"type":"subscribe","rects":[[{"lo":0,"hi":1,"x":1}]]}`,        // unknown field
		`{"type":"subscribe","rects":[[{"LO":0,"hi":1}]]}`,              // json folds case
		`{"type":"subscribe","rects":[[{"lo":0,"hi":1}],]}`,             // trailing comma
		`{"type":"subscribe","rects":[[{"lo":0,"hi":1},]]}`,             // trailing comma
		`{"type":"subscribe","rects":[[{"lo":0,"hi":1}]}`,               // unterminated
		`{"type":"subscribe","rects":[[{"lo":0,"hi":1}`,                 // unterminated
		`{"type":"subscribe","rects":[{"lo":0,"hi":1}]}`,                // a rectangle that is not a list
		`{"type":"subscribe","rects":[[{"lo":0, "hi":1}]]}`,             // whitespace
		`{"type":"subscribe", "rects":[[{"lo":0,"hi":1}]]}`,             // whitespace
		`{"type":"subscribe","rects":[[{"lo":1.,"hi":2}]]}`,             // not a JSON number
		`{"type":"subscribe","rects":[[{"lo":01,"hi":2}]]}`,             // leading zero
		`{"type":"subscribe","rects":[[{"lo":1,"hi":1e400}]]}`,          // out of range
		`{"type":"subscribe","rects":[[{"lo":NaN,"hi":1}]]}`,            // not JSON
		`{"type":"subscribe","rects":[[{"lo":"1","hi":2}]]}`,            // a string
		`{"type":"subscribe","rects":[[{"lo":nul,"hi":2}]]}`,            // truncated null
		`{"type":"subscribe","group":true,"rects":[[{"lo":0,"hi":1}]]}`, // reordered keys
		`{"type":"subscribe","buffer":1,"rects":[[{"lo":0,"hi":1}]]}`,   // reordered keys
		`{"type":"subscribe","group":true,"buffer":1}`,                  // reordered keys
		`{"type":"subscribe","from_offset":1,"buffer":1}`,               // reordered keys
		`{"type":"subscribe","group":true,"group":true}`,                // duplicate key
		`{"type":"subscribe","buffer":1,"buffer":2}`,                    // duplicate key
		`{"type":"subscribe","group":false}`,                            // never written
		`{"type":"subscribe","group":1}`,
		`{"type":"subscribe","group":"true"}`,
		`{"type":"subscribe","buffer":1.0}`,
		`{"type":"subscribe","buffer":9223372036854775808}`,
		`{"type":"subscribe","from_offset":-1}`,
		`{"type":"subscribe","from_offset":18446744073709551616}`,
		`{"type":"subscribe","point":[1]}`, // another type's key
		`{"type":"subscribe","sub_id":1}`,
		`{"type":"subscribe","error":"x"}`,
		`{"type":"unsubscribe","buffer":1}`,
		`{"type":"unsubscribe","sub_id":1,"sub_id":1}`,
		`{"type":"unsubscribe","sub_id":1,"delivered":1}`,
		`{"type":"unsubscribe","sub_id":01}`,
		`{"type":"unsubscribe","sub_id": 1}`,
		`{"type":"ping","sub_id":1}`,
		`{"type":"ping","rects":[[{"lo":0,"hi":1}]]}`,
		`{"type":"pong","group":true}`,
		`{"type":"ping" }`,
		`{"type":"pong"}}`,
		`{"type":"pinG"}`,
		`{"type":"event","group":true}`,
		`{"type":"event","buffer":1}`,
		`{"type":"publish","rects":[[{"lo":0,"hi":1}]],"point":[1]}`,
		`{"type":"ok","from_offset":1}`,
	} {
		if checkDecode(t, []byte(body)) {
			t.Errorf("fast decoder accepted the non-canonical body %s", body)
		}
	}
	// Valid variants the encoder never writes: accepting them is allowed,
	// and must agree with encoding/json.
	for _, body := range []string{
		`{"type":"subscribe","buffer":0}`,
		`{"type":"subscribe","buffer":-0,"from_offset":0}`,
		`{"type":"subscribe","rects":[[{"lo":-0.0,"hi":1E2},{"lo":1e+2,"hi":1.50}]]}`,
		`{"type":"unsubscribe","sub_id":0}`,
	} {
		checkDecode(t, []byte(body))
	}
}

// FuzzSubscribeEncode holds the encoder to json.Marshal over the
// control frames: a shape word picks the type, a stray field of another
// type's key set, the rectangles' count and dimensionality, which
// bounds are nil and the group flag; the bounds draw on two fuzzed
// floats, so ±0, tiny and huge values and the non-finite ones (which
// must decline as json.Marshal fails) all come up.
func FuzzSubscribeEncode(f *testing.F) {
	f.Add(20.0, 30.0, 0, uint64(0), 0, uint16(0x1<<3|0x1<<5|0x1<<12))
	f.Add(math.Copysign(0, -1), 1e21, -4, uint64(9), 0, uint16(0x2<<3|0x3<<5|0x55<<7))
	f.Add(1e-7, 9.9e-7, 64, uint64(math.MaxUint64), 0, uint16(0x3<<3|0x2<<5|0x1f<<7|1<<12))
	f.Add(math.NaN(), 1.0, 0, uint64(0), 0, uint16(0x1<<3|0x1<<5))
	f.Add(1.0, math.Inf(1), 0, uint64(0), 0, uint16(0x1<<3|0x2<<5))
	f.Add(0.0, 0.0, 0, uint64(0), 7, uint16(1))
	f.Add(0.0, 0.0, 3, uint64(0), -7, uint16(1|1<<2))
	f.Add(0.0, 0.0, 0, uint64(0), 0, uint16(2))
	f.Add(0.0, 0.0, 0, uint64(1), 0, uint16(3|1<<2))
	f.Add(1.0, 2.0, 0, uint64(0), 0, uint16(0x1<<3))
	f.Fuzz(func(t *testing.T, a, b float64, buffer int, from uint64, subID int, shape uint16) {
		m := &Message{Type: [...]Type{TypeSubscribe, TypeUnsubscribe, TypePing, TypePong}[shape&3]}
		stray := shape>>2&1 == 1
		switch m.Type {
		case TypeSubscribe:
			m.Buffer, m.FromOffset, m.Group = buffer, from, shape>>12&1 == 1
			if stray {
				m.SubID = subID
			}
			nils := shape >> 7 // a bit per bound: nil when set
			for range shape >> 3 & 3 {
				var r Rect
				if dims := int(shape >> 5 & 3); dims > 0 || nils&1 == 0 {
					r = make(Rect, dims) // else a null rectangle
				}
				for i := range r {
					lo, hi := a, b
					if nils&1 == 0 {
						r[i].Lo = &lo
					}
					if nils&2 == 0 {
						r[i].Hi = &hi
					}
					nils >>= 2
				}
				m.Rects = append(m.Rects, r)
			}
		case TypeUnsubscribe:
			m.SubID = subID
			if stray {
				m.Buffer = buffer
			}
		default:
			if stray {
				m.FromOffset = from
			}
		}
		checkEncode(t, m)
		// What it encodes, both decoders read back alike.
		body, ok := appendFastBody(nil, m)
		if accepted, canonical := ok && checkDecode(t, body), ok && fastDecodable(m); accepted != canonical {
			t.Fatalf("fast decoder on the fast encoder's output %s: accepted %v, want %v", body, accepted, canonical)
		}
	})
}

// FuzzSubscribeDecode holds the decoder to json.Unmarshal from the
// control frames' corner of the input space.
func FuzzSubscribeDecode(f *testing.F) {
	for _, m := range controlMessages() {
		body, _ := json.Marshal(m)
		f.Add(body)
	}
	for _, body := range []string{
		`{"type":"subscribe","rects":[]}`,
		`{"type":"subscribe","rects":[[]]}`,
		`{"type":"subscribe","rects":[null]}`,
		`{"type":"subscribe","rects":[[{"hi":1}]]}`,
		`{"type":"subscribe","group":true,"rects":[[{"lo":0,"hi":1}]]}`,
		`{"type":"subscribe","group":true,"group":true}`,
		`{"type":"subscribe","group":false}`,
		`{"type":"subscribe","rects":[[{"lo":0, "hi":1}]]}`,
		`{"type":"subscribe","rects":[[{"lo":1.,"hi":2}]]}`,
		`{"type":"subscribe","rects":[[{"lo":01,"hi":2}]]}`,
		`{"type":"subscribe","rects":[[{"lo":1,"hi":1e400}]]}`,
		`{"type":"unsubscribe","sub_id":1,"buffer":1}`,
		`{"type":"ping","sub_id":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

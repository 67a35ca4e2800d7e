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
	// compare the coordinates bit for bit.
	for i := range want.Point {
		if math.Float64bits(fast.Point[i]) != math.Float64bits(want.Point[i]) {
			t.Fatalf("coordinate %d of %q: got %v want %v", i, body, fast.Point[i], want.Point[i])
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
		{Type: TypeSubscribe}, {Type: TypeUnsubscribe, SubID: 3}, {Type: TypePing}, {Type: TypePong},
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
		`{"type":"subscribe"}`, `{"type":"error","error":"x"}`, `{"type":"ping"}`, `{"type":""}`,
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

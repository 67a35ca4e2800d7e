package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// sameFrameResult compares what ReadMessage and a connection's
// frameReader made of the same bytes: the same message, or the same
// class of failure — a clean io.EOF between frames, io.ErrUnexpectedEOF
// for a stream cut inside one, or some other rejection.
func sameFrameResult(t *testing.T, data []byte, m *Message, err error) {
	t.Helper()
	got := new(Message)
	gotErr := newFrameReader(bytes.NewReader(data)).read(got)
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case err == io.EOF:
			return "clean EOF"
		case errors.Is(err, io.ErrUnexpectedEOF):
			return "cut mid-frame"
		}
		return "rejected"
	}
	if class(gotErr) != class(err) {
		t.Fatalf("frameReader: %v (%s), ReadMessage: %v (%s)", gotErr, class(gotErr), err, class(err))
	}
	if err == nil && !reflect.DeepEqual(got, m) {
		t.Fatalf("frameReader decoded %+v, ReadMessage %+v", got, m)
	}
}

// FuzzReadMessage feeds arbitrary bytes to the frame decoder: it must
// never panic, the connection reader must agree with it, and any message
// it accepts must re-encode and re-decode to the same type.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteMessage(&seed, &Message{Type: TypePublish, Point: []float64{1, 2}, Payload: []byte("x")})
	f.Add(seed.Bytes())
	_ = seed
	var seed2 bytes.Buffer
	lo := 1.0
	_ = WriteMessage(&seed2, &Message{Type: TypeSubscribe, Rects: []Rect{{{Lo: &lo, Hi: nil}}}})
	f.Add(seed2.Bytes())
	// Event frames take the reflection-free codec on both sides: the
	// canonical layout, and near misses that must fall back to JSON.
	for _, m := range []*Message{
		{Type: TypeEvent},
		{Type: TypeEvent, Point: []float64{100, 37.25}, Payload: []byte("tick"), Seq: 123456, TraceID: 1 << 60, SubID: 17},
		{Type: TypeEvent, Point: []float64{-0.5, 1e21, 1e-7}, SubID: -4},
	} {
		var ev bytes.Buffer
		_ = WriteMessage(&ev, m)
		f.Add(ev.Bytes())
	}
	for _, body := range []string{
		`{"type":"event","seq":1,"seq":2}`,
		`{"type":"event", "point":[1, 2]}`,
		`{"sub_id":3,"type":"event","payload":"dGljaw=="}`,
		`{"type":"event","point":[1e999]}`,
	} {
		f.Add(append([]byte{0, 0, 0, byte(len(body))}, body...))
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	// Streams cut inside the length prefix and inside the body.
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 9, '{', '"', 't'})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		sameFrameResult(t, data, m, err)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		m2, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Type != m.Type || len(m2.Point) != len(m.Point) || len(m2.Rects) != len(m.Rects) {
			t.Fatalf("round trip changed message: %+v vs %+v", m, m2)
		}
	})
}

// FuzzWireRect checks that any wire rectangle the validator accepts
// round-trips through geometry form.
func FuzzWireRect(f *testing.F) {
	f.Add(1.0, 5.0, true, true)
	f.Add(0.0, 0.0, false, true)
	f.Add(-3.5, 100.25, true, false)
	f.Fuzz(func(t *testing.T, lo, hi float64, hasLo, hasHi bool) {
		w := Rect{Interval{}}
		if hasLo {
			w[0].Lo = &lo
		}
		if hasHi {
			w[0].Hi = &hi
		}
		r, err := WireToRect(w)
		if err != nil {
			return
		}
		back := RectToWire(r)
		r2, err := WireToRect(back)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !r2.Equal(r) {
			t.Fatalf("round trip changed rect: %v vs %v", r, r2)
		}
	})
}

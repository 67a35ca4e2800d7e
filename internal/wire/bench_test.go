package wire

import (
	"bytes"
	"net"
	"runtime"
	"testing"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// benchEvent is the frame the ledger's wire workload carries: a
// nine-dimensional point and a 128-byte payload.
func benchEvent() *Message {
	return &Message{
		Type:    TypeEvent,
		Point:   []float64{101.25, 37.5, 9.99, 1200, 0.125, 64, 3.75, 88.8, 5},
		Payload: bytes.Repeat([]byte{0xa5}, 128),
		Seq:     123_456,
		TraceID: 0x9e3779b97f4a7c15,
		SubID:   17,
	}
}

func BenchmarkEventEncode(b *testing.B) {
	m := benchEvent()
	buf, err := appendFrame(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = appendFrame(buf[:0], m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventEncodeGrouped is what a grouping connection's queue does
// for one publication matching 32 of its subscriptions: one frame
// listing them.
func BenchmarkEventEncodeGrouped(b *testing.B) {
	m := benchEvent()
	m.SubID, m.SubIDs = 0, make([]int, 32)
	for i := range m.SubIDs {
		m.SubIDs[i] = 17 + i
	}
	buf, err := appendFrame(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = appendFrame(buf[:0], m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventDecode(b *testing.B) {
	frame, err := appendFrame(nil, benchEvent())
	if err != nil {
		b.Fatal(err)
	}
	body := frame[4:]
	var m Message
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeBody(body, &m); err != nil {
			b.Fatal(err)
		}
	}
	if m.Seq != 123_456 {
		b.Fatalf("decoded %+v", m)
	}
}

// benchSubscribe is the frame the ledger's wire workload sends per
// subscription: one four-dimensional rectangle, group announced.
func benchSubscribe() *Message {
	return &Message{Type: TypeSubscribe, Group: true, Rects: []Rect{RectToWire(geometry.NewRect(
		20.5, 31.25, 0.125, 977.0625, 1e-3, 55, 4096, 8191.5))}}
}

// BenchmarkSubscribeFrame is a subscribe frame's codec cost on each
// side of the connection: the client's encode, the server's decode.
func BenchmarkSubscribeFrame(b *testing.B) {
	m := benchSubscribe()
	frame, err := appendFrame(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(frame))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = appendFrame(buf[:0], m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var got Message
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decodeBody(frame[4:], &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFanout32 is one publication through a loopback server to 32
// of one connection's 64 subscriptions, closed on receipt: the next
// publish is sent when all 32 events have arrived. The server and both
// clients write to private flight recorders, and records/op is what the
// three wrote per publication.
func BenchmarkFanout32(b *testing.B) {
	serverRec := telemetry.NewRecorder(telemetry.DefaultRecorderCapacity)
	br := broker.New(broker.Options{Recorder: serverRec})
	defer br.Close()
	s := NewServerWith(br, ServerOptions{Recorder: serverRec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer s.Close()

	subRec, pubRec := telemetry.NewRecorder(telemetry.DefaultRecorderCapacity), telemetry.NewRecorder(telemetry.DefaultRecorderCapacity)
	written := func() uint64 { return serverRec.Written() + subRec.Written() + pubRec.Written() }
	sub, err := DialWith(ln.Addr().String(), ClientOptions{Recorder: subRec})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	pub, err := DialWith(ln.Addr().String(), ClientOptions{Recorder: pubRec})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	// Even subscriptions cover the published point, odd ones do not.
	for i := 0; i < 64; i++ {
		r := geometry.NewRect(0, 10)
		if i%2 == 1 {
			r = geometry.NewRect(20, 30)
		}
		if _, err := sub.Subscribe(r); err != nil {
			b.Fatal(err)
		}
	}
	payload := bytes.Repeat([]byte{0xa5}, 128)
	b.ReportAllocs()
	b.ResetTimer()
	before := written()
	for i := 0; i < b.N; i++ {
		n, err := pub.Publish(geometry.Point{5}, payload)
		if err != nil || n != 32 {
			b.Fatalf("publish: n=%d err=%v", n, err)
		}
		for k := 0; k < n; k++ {
			if _, open := <-sub.Events(); !open {
				b.Fatal("subscriber connection closed")
			}
		}
	}
	b.StopTimer()
	// The last frame's client_recv record follows its events onto
	// Events(); the read loop handles the ping's reply only after it.
	if err := sub.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(written()-before)/float64(b.N), "records/op")
	if d := sub.Dropped(); d != 0 {
		b.Fatalf("client dropped %d events", d)
	}
}

// BenchmarkClientRoundTrip is a publish round trip through a loopback
// server with no subscribers, the ledger's point and payload: serial,
// one requester at a time, and parallel, four requesters sharing the
// one Client (at -cpu 1, 2 and 4), their requests in flight together.
func BenchmarkClientRoundTrip(b *testing.B) {
	br := broker.New(broker.Options{})
	defer br.Close()
	s := NewServer(br)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer s.Close()
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	m := benchEvent()
	publish := func() {
		if _, err := cli.Publish(m.Point, m.Payload); err != nil {
			b.Error(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			publish()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(max(1, 4/runtime.GOMAXPROCS(0)))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				publish()
			}
		})
	})
}

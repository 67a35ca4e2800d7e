package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
)

func TestRectWireRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		r    geometry.Rect
	}{
		{name: "bounded", r: geometry.NewRect(0, 1, -5, 5)},
		{name: "right-unbounded", r: geometry.Rect{geometry.AtLeast(999), {Lo: 0, Hi: 1}}},
		{name: "left-unbounded", r: geometry.Rect{geometry.AtMost(3)}},
		{name: "full", r: geometry.FullRect(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := WireToRect(RectToWire(tt.r))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tt.r) {
				t.Errorf("round trip = %v, want %v", got, tt.r)
			}
		})
	}
}

func TestWireToRectValidation(t *testing.T) {
	if _, err := WireToRect(nil); err == nil {
		t.Error("empty rect accepted")
	}
	five := 5.0
	if _, err := WireToRect(Rect{{Lo: &five, Hi: &five}}); err == nil {
		t.Error("empty interval accepted")
	}
}

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: TypePublish, Point: []float64{1, 2, 3}, Payload: []byte("x")}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TypePublish || len(out.Point) != 3 || string(out.Payload) != "x" {
		t.Errorf("round trip = %+v", out)
	}
}

func TestReadMessageRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("huge frame accepted")
	}
}

func TestReadMessageRejectsBadJSON(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("{{{")
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestTruncatedStreamIsNotCleanEOF: only a stream that ends between
// frames reads as io.EOF, the clean shutdown; one cut anywhere inside a
// frame — the length prefix included — is io.ErrUnexpectedEOF, from
// ReadMessage and from the connection reader alike.
func TestTruncatedStreamIsNotCleanEOF(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteMessage(&frame, &Message{Type: TypeEvent, Point: []float64{1}, Payload: bytes.Repeat([]byte("x"), 8192), Seq: 7}); err != nil {
		t.Fatal(err)
	}
	whole := frame.Bytes() // larger than the reader's window: the body-buffer path
	small := []byte{0, 0, 0, 2, '{', '}'}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"one header byte", small[:1], io.ErrUnexpectedEOF},
		{"three header bytes", small[:3], io.ErrUnexpectedEOF},
		{"header only", small[:4], io.ErrUnexpectedEOF},
		{"half a small body", small[:5], io.ErrUnexpectedEOF},
		{"half a large body", whole[:len(whole)/2], io.ErrUnexpectedEOF},
		{"whole frame", small, nil},
	}
	for _, tc := range cases {
		_, err := ReadMessage(bytes.NewReader(tc.data))
		frErr := newFrameReader(bytes.NewReader(tc.data)).read(new(Message))
		for who, got := range map[string]error{"ReadMessage": err, "frameReader": frErr} {
			if tc.want == io.EOF && got != io.EOF {
				t.Errorf("%s, %s: %v, want a bare io.EOF", tc.name, who, got)
			}
			if !errors.Is(got, tc.want) {
				t.Errorf("%s, %s: %v, want %v", tc.name, who, got, tc.want)
			}
		}
	}
	// After a whole frame the stream ends cleanly.
	fr := newFrameReader(bytes.NewReader(small))
	if err := fr.read(new(Message)); err != nil {
		t.Fatal(err)
	}
	if err := fr.read(new(Message)); err != io.EOF {
		t.Errorf("end of stream after a whole frame: %v, want io.EOF", err)
	}
}

// startServer runs a broker+server on a loopback listener.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	b := broker.New(broker.Options{DefaultBuffer: 64}) // pubsubd's default -buffer
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return s, ln.Addr().String()
}

func TestEndToEndPubSub(t *testing.T) {
	_, addr := startServer(t)

	subCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subCli.Close()
	pubCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pubCli.Close()

	subID, err := subCli.Subscribe(geometry.NewRect(0, 10, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if subID < 0 {
		t.Fatalf("subID = %d", subID)
	}

	n, err := pubCli.Publish(geometry.Point{5, 5}, []byte("tick"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered = %d, want 1", n)
	}
	select {
	case ev := <-subCli.Events():
		if string(ev.Payload) != "tick" || ev.Point[0] != 5 {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no event within deadline")
	}

	// Non-matching publish delivers to nobody.
	n, err = pubCli.Publish(geometry.Point{50, 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("delivered = %d, want 0", n)
	}
}

func TestEndToEndUnboundedSubscription(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// volume >= 1000 with no upper bound, as in the paper's example.
	if _, err := cli.Subscribe(geometry.Rect{geometry.AtLeast(999)}); err != nil {
		t.Fatal(err)
	}
	n, err := cli.Publish(geometry.Point{math.MaxFloat64 / 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("delivered = %d, want 1", n)
	}
}

func TestServerRejectsBadMessages(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Unknown type gets an error reply.
	if err := WriteMessage(conn, &Message{Type: "bogus"}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || !strings.Contains(reply.Error, "unknown") {
		t.Errorf("reply = %+v", reply)
	}

	// Publish without a point: refused, with the publisher's trace id
	// echoed like every other publish refusal.
	if err := WriteMessage(conn, &Message{Type: TypePublish, TraceID: 77}); err != nil {
		t.Fatal(err)
	}
	reply, err = ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || reply.TraceID != 77 {
		t.Errorf("reply = %+v, want an error carrying trace id 77", reply)
	}

	// Subscribe with a bad rectangle.
	five := 5.0
	bad := &Message{Type: TypeSubscribe, Rects: []Rect{{{Lo: &five, Hi: &five}}}}
	if err := WriteMessage(conn, bad); err != nil {
		t.Fatal(err)
	}
	reply, err = ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError {
		t.Errorf("reply = %+v", reply)
	}
}

func TestClientSubscribeValidation(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(); err == nil {
		t.Error("no-rectangle subscribe accepted client-side")
	}
}

func TestDisconnectCancelsSubscriptions(t *testing.T) {
	b := broker.New(broker.Options{})
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	defer func() { s.Close(); b.Close() }()

	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Subscribe(geometry.NewRect(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Subscriptions; got != 1 {
		t.Fatalf("subscriptions = %d", got)
	}
	cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for b.Stats().Subscriptions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not cancelled after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Subscribe(geometry.NewRect(0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	select {
	case _, open := <-cli.Events():
		if open {
			t.Error("expected closed event channel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event channel not closed after server shutdown")
	}
	if _, err := cli.Publish(geometry.Point{0.5}, nil); err == nil {
		t.Error("publish succeeded after server close")
	}
}

func TestManyClientsFanOut(t *testing.T) {
	_, addr := startServer(t)
	const clients = 8
	subs := make([]*Client, clients)
	for i := range subs {
		cli, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if _, err := cli.Subscribe(geometry.NewRect(0, 100)); err != nil {
			t.Fatal(err)
		}
		subs[i] = cli
	}
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	n, err := pub.Publish(geometry.Point{50}, []byte("fan"))
	if err != nil {
		t.Fatal(err)
	}
	if n != clients {
		t.Fatalf("delivered = %d, want %d", n, clients)
	}
	for i, cli := range subs {
		select {
		case ev := <-cli.Events():
			if string(ev.Payload) != "fan" {
				t.Errorf("client %d payload %q", i, ev.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("client %d got no event", i)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	id, err := cli.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := pub.Publish(geometry.Point{5}, nil); n != 1 {
		t.Fatalf("delivered %d before unsubscribe", n)
	}
	if err := cli.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if n, _ := pub.Publish(geometry.Point{5}, nil); n != 0 {
		t.Fatalf("delivered %d after unsubscribe", n)
	}
	// Double unsubscribe is a protocol error, not a connection failure.
	if err := cli.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe succeeded")
	}
	// The connection is still usable afterwards.
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after protocol error: %v", err)
	}
}

// The reply to an unsubscribe is the last frame that concerns the
// subscription: what the connection still held for it — here most of a
// burst the peer had not read yet — is dropped, while the connection's
// other subscription gets every event of the burst.
func TestNoFrameNamesSubscriptionAfterUnsubscribeReply(t *testing.T) {
	for _, group := range []bool{true, false} {
		_, b, addr := startHardenedServer(t, ServerOptions{})
		peer := dialRaw(t, addr)
		const burst = 2000
		gone := peer.subscribe(&Message{Group: group, Buffer: burst}, nil)
		kept := peer.subscribe(&Message{Buffer: burst}, nil)
		// The peer is not reading: the burst must be more than the loopback
		// socket absorbs, so that most of it is still in the connection's
		// queue and sink when the unsubscribe arrives.
		payload := make([]byte, 8<<10)
		for i := 0; i < burst; i++ {
			if n, err := b.Publish(geometry.Point{5}, payload); err != nil || n != 2 {
				t.Fatalf("publish %d: n=%d err=%v", i, n, err)
			}
		}
		peer.send(&Message{Type: TypeUnsubscribe, SubID: gone})
		replied, before, keptGot := false, 0, 0
		for keptGot < burst { // the sink held the whole burst: none of it was dropped
			m, body := peer.recv()
			ids := m.SubIDs
			if m.Type == TypeEvent && len(ids) == 0 {
				ids = []int{m.SubID}
			}
			switch {
			case m.Type == TypeOK && !replied && m.SubID == gone:
				replied = true
			case m.Type != TypeEvent:
				t.Fatalf("unexpected %s frame of %d bytes", m.Type, len(body))
			}
			for _, id := range ids {
				switch {
				case id == kept:
					keptGot++
				case id == gone && replied:
					t.Fatalf("group=%v: after the reply to its unsubscribe (and %d of its events before), the frame of Seq %d names subscription %d",
						group, before, m.Seq, gone)
				case id == gone:
					before++
				}
			}
		}
		if !replied {
			t.Fatalf("group=%v: the burst went out before the unsubscribe was handled; the test looked at nothing", group)
		}
		t.Logf("group=%v: %d of %d events reached the cancelled subscription before the reply", group, before, burst)
	}
}

func TestUnsubscribeForeignIDRejected(t *testing.T) {
	_, addr := startServer(t)
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	id, err := a.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// b cannot cancel a's subscription.
	if err := b.Unsubscribe(id); err == nil {
		t.Error("foreign unsubscribe succeeded")
	}
	// a's subscription still works.
	if n, _ := b.Publish(geometry.Point{5}, nil); n != 1 {
		t.Error("subscription lost after foreign unsubscribe attempt")
	}
}

func TestPing(t *testing.T) {
	s, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if err := cli.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := cli.Ping(); err == nil {
		t.Error("ping succeeded after server close")
	}
}

func TestTruncatedFrameDisconnects(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising more bytes than sent: the server must
	// simply wait; closing mid-frame must disconnect cleanly without
	// wedging the server.
	if _, err := conn.Write([]byte{0, 0, 0, 100, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Server still serves other clients.
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatalf("server wedged after truncated frame: %v", err)
	}
}

func TestClientDroppedCounter(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Dropped() != 0 {
		t.Errorf("fresh client dropped = %d", cli.Dropped())
	}
}

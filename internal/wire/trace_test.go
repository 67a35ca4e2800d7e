package wire

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// One wire-crossing publication must yield a correlated trace across
// both processes' recorders: client-publish on the sending side;
// ingest, match, decision, deliver and the publish summary on the
// server; client-recv on the receiving side, one per subscription
// however many frames carried them — all under the trace id
// PublishTraced returned.
func TestWireTraceRoundTrip(t *testing.T) {
	serverRec := telemetry.NewRecorder(1024)
	b := broker.New(broker.Options{Recorder: serverRec})
	defer b.Close()
	s := NewServerWith(b, ServerOptions{Recorder: serverRec})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()

	clientRec := telemetry.NewRecorder(1024)
	sub, err := DialWith(ln.Addr().String(), ClientOptions{Recorder: clientRec})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := DialWith(ln.Addr().String(), ClientOptions{Recorder: clientRec})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	subIDs := make(map[int64]bool)
	for i := 0; i < 2; i++ {
		id, err := sub.Subscribe(geometry.NewRect(0, 10, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		subIDs[int64(id)] = true
	}
	n, trace, err := pub.PublishTraced(geometry.Point{5, 5}, []byte("tick"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("delivered = %d, want 2", n)
	}
	if trace == 0 {
		t.Fatal("PublishTraced returned a zero trace id")
	}

	// The events crossing back carry the same trace id.
	for i := 0; i < 2; i++ {
		select {
		case ev := <-sub.Events():
			if ev.TraceID != trace {
				t.Fatalf("event trace = %x, want %x", ev.TraceID, trace)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no event within deadline")
		}
	}

	// Server-side chain, correlated under the client's id.
	wantServer := []telemetry.RecordKind{
		telemetry.KindIngest,
		telemetry.KindMatch,
		telemetry.KindDecision,
		telemetry.KindDeliver,
		telemetry.KindPublish,
	}
	got := map[telemetry.RecordKind]int{}
	for _, r := range serverRec.SnapshotFilter(trace, telemetry.KindNone, 0) {
		got[r.Kind]++
	}
	for _, k := range wantServer {
		want := 1
		if k == telemetry.KindDeliver {
			want = 2
		}
		if got[k] != want {
			t.Errorf("server records for trace: %s = %d, want %d (all: %v)", k, got[k], want, got)
		}
	}

	// Client-side bookends. The receive record lands asynchronously in
	// the subscriber's read loop, so poll briefly.
	if recs := clientRec.SnapshotFilter(trace, telemetry.KindClientPublish, 0); len(recs) != 1 {
		t.Errorf("client publish records = %d, want 1", len(recs))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if recs := clientRec.SnapshotFilter(trace, telemetry.KindClientRecv, 0); len(recs) == 2 {
			for _, r := range recs {
				if r.Args[1] != int64(len("tick")) || !subIDs[r.Args[0]] {
					t.Errorf("client recv record %+v, want %d payload bytes for one of %v", r, len("tick"), subIDs)
				}
			}
			if recs[0].Args[0] == recs[1].Args[0] {
				t.Errorf("both client recv records name subscription %d", recs[0].Args[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no two client-recv records within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

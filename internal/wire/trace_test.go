package wire

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// One wire-crossing publication must yield a correlated trace across
// both processes' recorders: client-publish on the sending side;
// ingest, match, decision, deliver and the publish summary on the
// server; client-recv on the receiving side — all under the trace id
// PublishTraced returned. The two subscriptions share one connection,
// so the multicast is booked once on each side: one deliver record for
// the sink element and one client-recv record for the grouped frame,
// each counting both.
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
		if got[k] != 1 {
			t.Errorf("server records for trace: %s = %d, want 1 (all: %v)", k, got[k], got)
		}
	}
	for _, r := range serverRec.SnapshotFilter(trace, telemetry.KindDeliver, 0) {
		if r.Args[2] != 2 || !subIDs[r.Args[0]] {
			t.Errorf("deliver record %+v, want subs=2 naming one of %v", r, subIDs)
		}
	}

	// Client-side bookends. The receive record lands asynchronously in
	// the subscriber's read loop, so poll briefly.
	if recs := clientRec.SnapshotFilter(trace, telemetry.KindClientPublish, 0); len(recs) != 1 {
		t.Errorf("client publish records = %d, want 1", len(recs))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if recs := clientRec.SnapshotFilter(trace, telemetry.KindClientRecv, 0); len(recs) > 0 {
			if len(recs) != 1 || recs[0].Args[1] != 2 || recs[0].Args[2] != 0 || !subIDs[recs[0].Args[0]] {
				t.Errorf("client recv records %+v, want one delivering subs=2 from one of %v", recs, subIDs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no client-recv record within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// A wire multicast is booked once per element and once per frame, not
// once per subscription: one publication to 32 subscriptions of one
// grouping connection writes six server records (ingest, stages, match,
// decision, one deliver counting all 32, publish), one client_publish
// and one client_recv counting all 32: eight in all.
func TestMulticastRecordBudget(t *testing.T) {
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

	subRec, pubRec := telemetry.NewRecorder(1024), telemetry.NewRecorder(1024)
	sub, err := DialWith(ln.Addr().String(), ClientOptions{Recorder: subRec})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := DialWith(ln.Addr().String(), ClientOptions{Recorder: pubRec})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ids := map[int64]bool{}
	for i := 0; i < 32; i++ {
		id, err := sub.Subscribe(geometry.NewRect(0, 10))
		if err != nil {
			t.Fatal(err)
		}
		ids[int64(id)] = true
	}
	n, trace, err := pub.PublishTraced(geometry.Point{5}, []byte("x"))
	if err != nil || n != 32 {
		t.Fatalf("publish delivered to %d (err %v), want 32", n, err)
	}
	for i := 0; i < n; i++ {
		select {
		case <-sub.Events():
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}

	got := map[telemetry.RecordKind]int{}
	for _, r := range serverRec.SnapshotFilter(trace, telemetry.KindNone, 0) {
		got[r.Kind]++
		if r.Kind == telemetry.KindDeliver && (r.Args[2] != int64(n) || !ids[r.Args[0]]) {
			t.Errorf("deliver record %+v, want subs=%d naming one of the subscriptions", r, n)
		}
	}
	want := map[telemetry.RecordKind]int{
		telemetry.KindIngest: 1, telemetry.KindStages: 1, telemetry.KindMatch: 1,
		telemetry.KindDecision: 1, telemetry.KindDeliver: 1, telemetry.KindPublish: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("server records for the trace: %v, want %v", got, want)
	}
	if recs := pubRec.SnapshotFilter(trace, telemetry.KindNone, 0); len(recs) != 1 || recs[0].Kind != telemetry.KindClientPublish {
		t.Errorf("publisher records %+v, want one client_publish", recs)
	}
	// The receive record follows the frame's last event onto Events().
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := subRec.SnapshotFilter(trace, telemetry.KindNone, 0)
		if len(recs) > 0 {
			if r := recs[0]; len(recs) != 1 || r.Kind != telemetry.KindClientRecv || r.Args[1] != int64(n) || r.Args[2] != 0 || !ids[r.Args[0]] {
				t.Errorf("subscriber records %+v, want one client_recv delivering subs=%d", recs, n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no client_recv record within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// A frame that fills the client's buffer part-way costs one record for
// the ids delivered and one per id dropped, and each loss window — from
// the first drop to ClearFirstDropped — marks exactly one drop
// first_drop.
func TestClientRecvRecordBudgetUnderLoss(t *testing.T) {
	rec := telemetry.NewRecorder(4096)
	server, clientConn := net.Pipe()
	cli := NewClientWith(clientConn, ClientOptions{Recorder: rec})
	defer cli.Close()
	defer server.Close()
	frame := func(seq uint64, n int) {
		t.Helper()
		ids := make([]int, n)
		for i := range ids {
			ids[i] = 100 + i
		}
		if err := WriteMessage(server, &Message{Type: TypeEvent, Point: []float64{1}, Seq: seq, TraceID: seq, SubIDs: ids}); err != nil {
			t.Fatal(err)
		}
	}
	barrier := func() {
		t.Helper()
		if err := WriteMessage(server, &Message{Type: TypePing}); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadMessage(server); err != nil || m.Type != TypePong {
			t.Fatalf("barrier pong = %v/%v", m, err)
		}
	}
	// The buffer holds 1024. Window one: 1000 fit, then 24 of 30, then
	// none of 3. Window two, after a drain: 1024 of 1030.
	frame(1, 1000)
	frame(2, 30)
	frame(3, 3)
	barrier()
	cli.ClearFirstDropped()
	for i := 0; i < 1024; i++ {
		<-cli.Events()
	}
	frame(4, 1030)
	barrier()
	if d := cli.Dropped(); d != 6+3+6 {
		t.Fatalf("dropped = %d, want 15", d)
	}

	type want struct{ delivered, drops, firsts int }
	wants := map[uint64]want{1: {1000, 0, 0}, 2: {24, 6, 1}, 3: {0, 3, 0}, 4: {1024, 6, 1}}
	got := map[uint64]*want{}
	for seq := range wants {
		got[seq] = &want{}
	}
	delivering := map[uint64]int{}
	for _, r := range rec.SnapshotFilter(0, telemetry.KindClientRecv, 0) {
		g := got[r.Seq]
		switch {
		case r.Args[2] == 0:
			delivering[r.Seq]++
			g.delivered += int(r.Args[1])
			if r.Args[0] != 100 {
				t.Errorf("Seq %d delivery record names subscription %d, want the frame's first, 100", r.Seq, r.Args[0])
			}
		case r.Args[1] != 1:
			t.Errorf("drop record %+v, want subs=1", r)
		default:
			g.drops++
			g.firsts += int(r.Args[3])
		}
	}
	for seq, w := range wants {
		if *got[seq] != w {
			t.Errorf("Seq %d: records delivered %d, dropped %d, first_drop %d; want %+v", seq, got[seq].delivered, got[seq].drops, got[seq].firsts, w)
		}
		if w.delivered > 0 && delivering[seq] != 1 {
			t.Errorf("Seq %d: %d delivery records, want one", seq, delivering[seq])
		}
	}
}

package broker

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// A traced publish must leave a correlated record chain in the flight
// recorder: match stats, the dispatch decision, one deliver per target
// (a channel is an element of one), and the closing publish summary,
// all under the caller's trace id.
func TestPublishTracedWritesCorrelatedRecords(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	b := New(Options{Recorder: rec})
	defer b.Close()
	if _, err := b.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(geometry.NewRect(0, 5)); err != nil {
		t.Fatal(err)
	}

	trace := telemetry.NewTraceID()
	n, err := b.PublishTraced(geometry.Point{3}, []byte("x"), trace)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("delivered = %d, want 2", n)
	}

	byKind := map[telemetry.RecordKind][]telemetry.Record{}
	for _, r := range rec.SnapshotFilter(trace, telemetry.KindNone, 0) {
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	match := byKind[telemetry.KindMatch]
	if len(match) != 1 || match[0].Args[3] != 2 {
		t.Fatalf("match records = %+v, want one with matched=2", match)
	}
	dec := byKind[telemetry.KindDecision]
	if len(dec) != 1 {
		t.Fatalf("decision records = %+v, want 1", dec)
	}
	if dec[0].Args[1] != 2 || dec[0].Args[2] != 2 || dec[0].Args[3] != 1_000_000 {
		t.Fatalf("decision interested/group/ratio = %v, want 2/2/1000000", dec[0].Args)
	}
	// A channel delivery is an element of one.
	if got := byKind[telemetry.KindDeliver]; len(got) != 2 || got[0].Args[2] != 1 || got[1].Args[2] != 1 {
		t.Fatalf("deliver records = %+v, want 2 with subs=1", got)
	}
	pub := byKind[telemetry.KindPublish]
	if len(pub) != 1 || pub[0].Args[0] != 2 || pub[0].Args[1] != 2 {
		t.Fatalf("publish record = %+v, want fanout=2 delivered=2", pub)
	}
	if pub[0].Seq == 0 {
		t.Fatal("publish record carries no event seq")
	}
	// The publish summary closes the trace: nothing sorts after it.
	all := rec.SnapshotFilter(trace, telemetry.KindNone, 0)
	if all[len(all)-1].Kind != telemetry.KindPublish {
		t.Fatalf("last record = %v, want publish", all[len(all)-1].Kind)
	}
}

// An untraced in-process publish stays cheap: one compact publish
// summary under a broker-assigned id, no per-stage or per-subscriber
// records.
func TestUntracedPublishRecordsSummaryOnly(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	b := New(Options{Recorder: rec})
	defer b.Close()
	if _, err := b.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(geometry.Point{3}, nil); err != nil {
		t.Fatal(err)
	}
	recs := rec.Snapshot()
	if len(recs) != 1 || recs[0].Kind != telemetry.KindPublish {
		t.Fatalf("untraced publish records = %+v, want a single publish summary", recs)
	}
	if recs[0].TraceID == 0 {
		t.Fatal("broker did not assign a trace id to the untraced publish")
	}
}

// Queue overflow under a traced publish records the drop with the
// victim subscription and its policy.
func TestTracedPublishRecordsDrop(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	b := New(Options{Recorder: rec, DefaultBuffer: 1})
	defer b.Close()
	s, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTraceID()
	for i := 0; i < 2; i++ {
		if _, err := b.PublishTraced(geometry.Point{3}, nil, trace); err != nil {
			t.Fatal(err)
		}
	}
	drops := rec.SnapshotFilter(trace, telemetry.KindDrop, 0)
	if len(drops) != 1 {
		t.Fatalf("drop records = %+v, want 1", drops)
	}
	if int(drops[0].Args[0]) != s.ID() {
		t.Fatalf("drop victim = %d, want %d", drops[0].Args[0], s.ID())
	}
	if OverflowPolicy(drops[0].Args[1]) != DropNewest {
		t.Fatalf("drop policy = %d, want drop-newest", drops[0].Args[1])
	}
}

// Under DropOldest the event that is lost is the one evicted from the
// queue, not the incoming one: the drop record must sit on the evicted
// publication's trace, and the incoming publication's trace must show a
// clean delivery.
func TestDropOldestBooksEvictionAgainstEvictedEvent(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	b := New(Options{Recorder: rec, DefaultBuffer: 1, Overflow: DropOldest})
	defer b.Close()
	s, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := telemetry.NewTraceID(), telemetry.NewTraceID()
	for _, trace := range []uint64{t1, t2} {
		if n, err := b.PublishTraced(geometry.Point{3}, nil, trace); err != nil || n != 1 {
			t.Fatalf("publish delivered to %d, err %v; want 1, nil", n, err)
		}
	}
	queued := <-s.Events()
	if queued.TraceID != t2 || queued.Seq != 2 {
		t.Fatalf("queued event trace=%x seq=%d, want the second publication", queued.TraceID, queued.Seq)
	}
	drops := rec.SnapshotFilter(t1, telemetry.KindDrop, 0)
	if len(drops) != 1 || drops[0].Seq != 1 || int(drops[0].Args[0]) != s.ID() || OverflowPolicy(drops[0].Args[1]) != DropOldest {
		t.Fatalf("drop records on the evicted trace = %+v, want one: seq 1, sub %d, drop-oldest", drops, s.ID())
	}
	if drops := rec.SnapshotFilter(t2, telemetry.KindDrop, 0); len(drops) != 0 {
		t.Fatalf("the delivered publication's trace carries drop records: %+v", drops)
	}
	for _, trace := range []uint64{t1, t2} {
		if got := len(rec.SnapshotFilter(trace, telemetry.KindDeliver, 0)); got != 1 {
			t.Fatalf("trace %x has %d deliver records, want 1", trace, got)
		}
	}
	if got := s.Dropped(); got != 1 {
		t.Fatalf("subscription dropped = %d, want 1", got)
	}
}

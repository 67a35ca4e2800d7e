package broker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func openLog(t *testing.T, dir string, opts wal.Options) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func rect1(lo, hi float64) geometry.Rect {
	return geometry.NewRect(lo, hi)
}

// TestDurablePublishAppendsBeforeDeliver: every published event lands
// in the log with the event's Seq as its offset, payload and point
// intact.
func TestDurablePublishAppendsBeforeDeliver(t *testing.T) {
	log := openLog(t, t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	b := New(Options{Log: log})
	defer b.Close()

	sub, err := b.Subscribe(rect1(-1, 100))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := b.Publish(geometry.Point{float64(i)}, []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	// Delivered events carry log offsets as Seq, in order.
	for i := 0; i < n; i++ {
		ev := <-sub.Events()
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want the log offset %d", i, ev.Seq, i+1)
		}
	}
	// And the log holds exactly those records.
	r, err := log.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if rec.Offset != uint64(i+1) || string(rec.Payload) != fmt.Sprintf("p%d", i) {
			t.Fatalf("replayed record %d = %+v", i, rec)
		}
		if len(rec.Point) != 1 || rec.Point[0] != float64(i) {
			t.Fatalf("replayed point %d = %v", i, rec.Point)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("log holds extra records: %v", err)
	}
	if st := b.Stats(); st.Published != n {
		t.Fatalf("Stats.Published = %d, want %d", st.Published, n)
	}
}

// TestDurableSeqContinuesAcrossRestart: a broker opened over an
// existing log continues the offset sequence instead of restarting at
// 1, so replay offsets stay unambiguous.
func TestDurableSeqContinuesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	log := openLog(t, dir, wal.Options{Sync: wal.SyncAlways})
	b := New(Options{Log: log})
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(geometry.Point{1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	log.Close()

	log2 := openLog(t, dir, wal.Options{Sync: wal.SyncAlways})
	b2 := New(Options{Log: log2})
	defer b2.Close()
	sub, _ := b2.Subscribe(rect1(-1, 10))
	if _, err := b2.Publish(geometry.Point{1}, nil); err != nil {
		t.Fatal(err)
	}
	if ev := <-sub.Events(); ev.Seq != 6 {
		t.Fatalf("post-restart Seq = %d, want 6", ev.Seq)
	}
	if st := b2.Stats(); st.Published != 6 {
		t.Fatalf("post-restart Stats.Published = %d, want 6", st.Published)
	}
}

// TestDurableAppendFailureRefusesPublish: once the log fail-stops, the
// broker refuses publications instead of delivering undurable events.
func TestDurableAppendFailureRefusesPublish(t *testing.T) {
	dir := t.TempDir()
	log := openLog(t, dir, wal.Options{Sync: wal.SyncAlways})
	b := New(Options{Log: log})
	defer b.Close()
	sub, _ := b.Subscribe(rect1(-1, 10))

	if _, err := b.Publish(geometry.Point{1}, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	log.Close() // stands in for a failed disk: appends now error

	if _, err := b.Publish(geometry.Point{1}, []byte("lost")); err == nil {
		t.Fatal("Publish succeeded after the log stopped accepting appends")
	}
	// The subscriber saw only the durable event.
	ev := <-sub.Events()
	if string(ev.Payload) != "ok" {
		t.Fatalf("delivered %q", ev.Payload)
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("undurable event %q was delivered", ev.Payload)
	default:
	}
}

// TestClosedDurableBrokerDoesNotAppend: a publication refused because
// the broker is closed must leave no trace in the log — otherwise a
// later replay delivers an event whose publisher was told it failed.
func TestClosedDurableBrokerDoesNotAppend(t *testing.T) {
	log := openLog(t, t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	b := New(Options{Log: log})
	b.Close()
	before := log.NextOffset()
	if _, err := b.Publish(geometry.Point{1}, []byte("late")); !errors.Is(err, errClosed) {
		t.Fatalf("Publish on a closed broker = %v, want errClosed", err)
	}
	if after := log.NextOffset(); after != before {
		t.Fatalf("refused publication moved the log offset %d -> %d", before, after)
	}
	if st := b.Stats(); st.Published != 0 {
		t.Fatalf("Stats.Published = %d after a refused publication, want 0", st.Published)
	}
}

// TestRefusedPublishIsObserved: a publication the log refuses still
// closes its trace — a sampled span with an error attribute, a publish
// record flagged delivered = -1 — and burns SLO budget; one refused by
// a closed broker is observed too but is no SLO event.
func TestRefusedPublishIsObserved(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(slog.New(slog.NewJSONHandler(&buf, nil)), 1)
	rec := telemetry.NewRecorder(1024)
	slo := health.NewSLO(health.SLOOptions{ObjectiveSeconds: 10})
	d := faultnet.NewDisk(faultnet.DiskOptions{FailWriteAfter: 2})
	log := openLog(t, t.TempDir(), wal.Options{
		Sync:        wal.SyncNever,
		OpenSegment: func(path string) (wal.File, error) { return d.Create(path) },
	})
	b := New(Options{Log: log, Tracer: tr, Recorder: rec, SLO: slo})
	defer b.Close()

	if _, err := b.Publish(geometry.Point{1}, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	_, err := b.Publish(geometry.Point{1}, []byte("doomed"))
	if !errors.Is(err, faultnet.ErrInjectedWrite) {
		t.Fatalf("Publish over a failing disk = %v, want ErrInjectedWrite", err)
	}
	if out := buf.String(); !strings.Contains(out, `"msg":"publish"`) || !strings.Contains(out, `"error":`) {
		t.Fatalf("refused publish logged no span with an error attribute: %q", out)
	}
	pubs := rec.SnapshotFilter(0, telemetry.KindPublish, 0)
	if len(pubs) != 2 || pubs[1].Args[1] != -1 {
		t.Fatalf("publish records = %+v, want the second flagged delivered=-1", pubs)
	}
	if st := slo.Status(); st.SlowTotal != 2 || st.SlowBad != 1 {
		t.Fatalf("SLO saw total=%d bad=%d, want 2 and 1", st.SlowTotal, st.SlowBad)
	}

	b.Close()
	buf.Reset()
	if _, err := b.Publish(geometry.Point{1}, nil); !errors.Is(err, errClosed) {
		t.Fatalf("Publish on a closed broker = %v, want errClosed", err)
	}
	if out := buf.String(); !strings.Contains(out, `"error":"broker: closed"`) {
		t.Fatalf("closed-broker refusal logged no span with the error: %q", out)
	}
	if got := len(rec.SnapshotFilter(0, telemetry.KindPublish, 0)); got != 3 {
		t.Fatalf("%d publish records after three publications", got)
	}
	if st := slo.Status(); st.SlowTotal != 2 || st.SlowBad != 1 {
		t.Fatalf("closed-broker refusal reached the SLO: total=%d bad=%d", st.SlowTotal, st.SlowBad)
	}
}

// TestDurableStagesShareTheLogClock: a broker and its log writing to
// two different recorders still read one clock, so the log's own
// append latency and the broker's wal stage of one traced publication
// are the same number, inside the publication's total.
func TestDurableStagesShareTheLogClock(t *testing.T) {
	logRec, brokerRec := telemetry.NewRecorder(1024), telemetry.NewRecorder(1024)
	log := openLog(t, t.TempDir(), wal.Options{Sync: wal.SyncEvery, Recorder: logRec})
	b := New(Options{Log: log, Recorder: brokerRec})
	defer b.Close()
	sub, err := b.Subscribe(rect1(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTraceID()
	if _, err := b.PublishTraced(geometry.Point{5}, []byte("x"), trace); err != nil {
		t.Fatal(err)
	}
	<-sub.Events()
	one := func(r *telemetry.Recorder, kind telemetry.RecordKind) telemetry.Record {
		t.Helper()
		recs := r.SnapshotFilter(trace, kind, 0)
		if len(recs) != 1 {
			t.Fatalf("%d %s records, want 1", len(recs), kind)
		}
		return recs[0]
	}
	appendNS := one(logRec, telemetry.KindWALAppend).Args[2]
	walNS := one(brokerRec, telemetry.KindStages).Args[0]
	totalNS := one(brokerRec, telemetry.KindPublish).Args[3]
	if appendNS != walNS {
		t.Fatalf("wal_append append_ns = %d, stages wal = %d: want one number", appendNS, walNS)
	}
	if walNS < 0 || walNS > totalNS {
		t.Fatalf("stages wal = %d ns, want within [0, publish total_ns = %d]", walNS, totalNS)
	}
}

// TestNonDurableSeqUnchanged guards the default path: without a log,
// Seq comes from the in-memory counter starting at 1.
func TestNonDurableSeqUnchanged(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	sub, _ := b.Subscribe(rect1(-1, 10))
	for i := 1; i <= 3; i++ {
		if _, err := b.Publish(geometry.Point{1}, nil); err != nil {
			t.Fatal(err)
		}
		if ev := <-sub.Events(); ev.Seq != uint64(i) {
			t.Fatalf("Seq = %d, want %d", ev.Seq, i)
		}
	}
}

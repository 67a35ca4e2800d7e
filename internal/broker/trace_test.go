package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/telemetry"
	"repro/internal/wal"
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

// A sampled publication is traced like a wire-crossing one and logged
// as one event rendered from its records: the log line holds exactly
// the kinds and arguments the recorder holds for its trace, on an
// in-memory and on a durable broker. Only the durable one spends time
// in the wal stage, and the stage split fits in the publication's
// latency on one part. A publication the tracer skips writes no stages
// record.
func TestSampledLogMatchesRecorder(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var buf bytes.Buffer
			rec := telemetry.NewRecorder(1024)
			opts := Options{Recorder: rec, Tracer: telemetry.NewTracer(slog.New(slog.NewJSONHandler(&buf, nil)), 2)}
			if durable {
				opts.Log = openLog(t, t.TempDir(), wal.Options{Sync: wal.SyncNever})
			}
			b := New(opts)
			defer b.Close()
			for _, r := range []geometry.Rect{geometry.NewRect(0, 10), geometry.NewRect(0, 5)} {
				if _, err := b.Subscribe(r); err != nil {
					t.Fatal(err)
				}
			}
			if b.numParts() != 1 {
				t.Fatalf("broker has %d parts, want 1", b.numParts())
			}
			// 1 in 2: the first publication is skipped, the second logged.
			for i := 0; i < 2; i++ {
				if n, err := b.Publish(geometry.Point{3}, []byte("x")); err != nil || n != 2 {
					t.Fatalf("publish delivered to %d (err %v), want 2", n, err)
				}
			}

			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) != 1 {
				t.Fatalf("%d log lines, want 1: %q", len(lines), buf.String())
			}
			var ev map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
				t.Fatal(err)
			}
			var msg, id string
			if json.Unmarshal(ev["msg"], &msg); msg != "publish" {
				t.Fatalf("msg = %q, want publish", msg)
			}
			json.Unmarshal(ev["trace_id"], &id)
			trace, err := telemetry.ParseTraceID(id)
			if err != nil {
				t.Fatal(err)
			}

			got := map[string][]map[string]int64{}
			for key, raw := range ev {
				switch key {
				case "time", "level", "msg", "trace_id":
					continue
				}
				var one map[string]int64
				var list []map[string]int64
				switch {
				case json.Unmarshal(raw, &one) == nil:
					list = []map[string]int64{one}
				case json.Unmarshal(raw, &list) != nil:
					t.Fatalf("%s = %s is neither a record nor a list of them", key, raw)
				}
				got[key] = list
			}
			want := map[string][]map[string]int64{}
			var stages, total int64
			recs := rec.SnapshotFilter(trace, telemetry.KindNone, 0)
			for _, r := range recs {
				args := map[string]int64{}
				for i, name := range r.Kind.ArgNames() {
					if name != "" {
						args[name] = r.Args[i]
					}
				}
				want[r.Kind.String()] = append(want[r.Kind.String()], args)
				switch r.Kind {
				case telemetry.KindStages:
					if wal := r.Args[0]; (wal > 0) != durable {
						t.Errorf("wal stage = %d ns on a durable=%v broker", wal, durable)
					}
					stages = r.Args[0] + r.Args[1] + r.Args[2] + r.Args[3]
				case telemetry.KindPublish:
					total = r.Args[3]
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("log line holds %v, recorder holds %v", got, want)
			}
			if len(want["stages"]) != 1 || len(want["deliver"]) != 2 {
				t.Fatalf("trace records %v, want one stages record and two delivers", want)
			}
			if stages > total {
				t.Errorf("stages sum to %d ns, more than the publication's total_ns %d", stages, total)
			}

			pubs := rec.SnapshotFilter(0, telemetry.KindPublish, 0)
			if len(pubs) != 2 || pubs[1].TraceID != trace {
				t.Fatalf("publish records %+v, want two, the second the sampled one", pubs)
			}
			if got := rec.SnapshotFilter(pubs[0].TraceID, telemetry.KindStages, 0); len(got) != 0 {
				t.Fatalf("the unsampled publication wrote stages records: %+v", got)
			}
		})
	}
}

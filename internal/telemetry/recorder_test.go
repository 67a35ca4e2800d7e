package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(1024)
	trace := NewTraceID()
	r.Record(KindIngest, trace, 0, 7, 3, 128, 0)
	r.Record(KindMatch, trace, 42, 5, 9, 2, 1)
	r.Record(KindPublish, trace, 42, 1, 1, 1000, 2000)
	r.Record(KindRebuild, 0, 0, 100, 4, 50000, 1)

	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot = %d records, want 4", len(recs))
	}
	// Oldest first.
	if recs[0].Kind != KindIngest || recs[0].TraceID != trace {
		t.Fatalf("first record = %v %x, want ingest %x", recs[0].Kind, recs[0].TraceID, trace)
	}
	if recs[1].Kind != KindMatch || recs[1].Seq != 42 || recs[1].Args != [4]int64{5, 9, 2, 1} {
		t.Fatalf("match record = %+v", recs[1])
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatalf("records out of time order: %v then %v", recs[i-1].Time, recs[i].Time)
		}
	}
}

func TestRecorderFilters(t *testing.T) {
	r := NewRecorder(1024)
	a, b := NewTraceID(), NewTraceID()
	r.Record(KindPublish, a, 1, 1, 1, 0, 0)
	r.Record(KindPublish, b, 2, 1, 1, 0, 0)
	r.Record(KindDeliver, a, 1, 0, 0, 0, 0)

	if got := r.SnapshotFilter(a, KindNone, 0); len(got) != 2 {
		t.Fatalf("trace filter = %d records, want 2", len(got))
	}
	if got := r.SnapshotFilter(0, KindDeliver, 0); len(got) != 1 || got[0].TraceID != a {
		t.Fatalf("kind filter = %+v", got)
	}
	if got := r.SnapshotFilter(0, KindNone, 2); len(got) != 2 || got[0].Kind != KindPublish || got[1].Kind != KindDeliver {
		t.Fatalf("limit filter should keep the most recent 2: %+v", got)
	}
	if got := r.SnapshotFilter(b, KindDeliver, 0); len(got) != 0 {
		t.Fatalf("conjunctive filter = %d records, want 0", len(got))
	}
}

func TestRecorderWrapOverwritesOldest(t *testing.T) {
	r := NewRecorder(512) // 64 slots per shard
	total := r.Capacity() * 3
	for i := 0; i < total; i++ {
		r.Record(KindPublish, 1, uint64(i+1), 0, 0, 0, 0)
	}
	recs := r.Snapshot()
	if len(recs) == 0 || len(recs) > r.Capacity() {
		t.Fatalf("snapshot after wrap = %d records, capacity %d", len(recs), r.Capacity())
	}
	if got := r.Written(); got != uint64(total) {
		t.Fatalf("written = %d, want all %d, overwritten ones included", got, total)
	}
	// The survivors must be from the most recent writes. Everything was
	// written from one goroutine (one shard), so the shard's ring holds
	// exactly its last per-shard-capacity sequences.
	for _, rec := range recs {
		if rec.Seq <= uint64(total-r.Capacity()) {
			t.Fatalf("stale record seq=%d survived a triple wrap of %d", rec.Seq, total)
		}
	}
}

// RecordAt reuses a caller-read timestamp instead of reading the clock
// again; the stored record must carry exactly that timestamp.
func TestRecordAtUsesCallerTimestamp(t *testing.T) {
	r := NewRecorder(1024)
	ts := r.Now()
	r.RecordAt(ts, KindPublish, 1, 2, 3, 4, 5, 6)
	recs := r.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("snapshot = %d records, want 1", len(recs))
	}
	if got := recs[0].Time.Sub(epoch).Nanoseconds(); got != ts {
		t.Fatalf("stored timestamp = %dns after epoch, want %d", got, ts)
	}
	if recs[0].Args != [4]int64{3, 4, 5, 6} {
		t.Fatalf("args = %v", recs[0].Args)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindPublish, 1, 1, 0, 0, 0, 0) // must not panic
	r.RecordAt(1, KindPublish, 1, 1, 0, 0, 0, 0)
	if r.Snapshot() != nil {
		t.Fatal("nil recorder snapshot should be nil")
	}
	if r.Capacity() != 0 || r.Now() != 0 || r.Written() != 0 {
		t.Fatal("nil recorder accessors should be zero")
	}
	if err := r.WriteJSON(&strings.Builder{}, 0, KindNone, 0); err != nil {
		t.Fatalf("nil recorder WriteJSON: %v", err)
	}
}

// Record must not allocate: it is on the zero-alloc publish path.
func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1024)
	trace := NewTraceID()
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(KindPublish, trace, 1, 3, 3, 100, 200)
	}); n != 0 {
		t.Errorf("Record allocates %g/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = NewTraceID()
	}); n != 0 {
		t.Errorf("NewTraceID allocates %g/op, want 0", n)
	}
}

// BenchmarkRecord sizes one flight record. The clock rows write with
// Record, which reads the clock; the record rows write with RecordAt
// and a stamp taken once, so they show a record's own cost. Serial rows
// write from one goroutine, parallel rows from GOMAXPROCS of them.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(4096)
	trace := NewTraceID()
	ts := r.Now()
	for _, row := range []struct {
		name  string
		write func()
	}{
		{"clock", func() { r.Record(KindPublish, trace, 1, 3, 3, 100, 200) }},
		{"record", func() { r.RecordAt(ts, KindPublish, trace, 1, 3, 3, 100, 200) }},
	} {
		b.Run(row.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row.write()
			}
		})
		b.Run(row.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					row.write()
				}
			})
		})
	}
}

// BenchmarkSnapshotTrace is the reader's cost of one trace's records
// (what Tracer.Log asks for) in a full 4 096-record ring.
func BenchmarkSnapshotTrace(b *testing.B) {
	r := NewRecorder(4096)
	for i := 0; i < 2*r.Capacity(); i++ {
		r.Record(KindDeliver, uint64(i%40+1), uint64(i), 1, 2, 3, 4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.SnapshotFilter(7, KindNone, 0)
	}
}

// Concurrent writers and snapshotters must be race-free (run under
// -race), every surfaced record must be whole — all its words written
// by one call — and no record may be lost from the count. Four writers
// wrap a 512-record ring about 2 000 times while snapshots run.
func TestRecorderConcurrentWriteSnapshot(t *testing.T) {
	const writers, perWriter = 4, 1 << 18
	r := NewRecorder(512)
	// Every word of a record is derived from one counter c, unique per
	// writer and call, which is also its trace id.
	write := func(c uint64) {
		r.RecordAt(int64(c>>1), KindPublish, c, ^c, int64(c*3), -int64(c), int64(c^0x5555), int64(c+7))
	}
	whole := func(rec Record) bool {
		c := rec.TraceID
		return rec.Kind == KindPublish && c>>32 >= 1 && c>>32 <= writers &&
			rec.Time.Sub(epoch).Nanoseconds() == int64(c>>1) && rec.Seq == ^c &&
			rec.Args == [4]int64{int64(c * 3), -int64(c), int64(c ^ 0x5555), int64(c + 7)}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := uint64(1); g <= writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				write(g<<32 | i)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	for snapshots := 0; ; snapshots++ {
		select {
		case <-done:
			if got, want := r.Written(), uint64(writers*perWriter); got != want {
				t.Fatalf("Written() = %d after the writers stopped, want %d", got, want)
			}
			for _, rec := range r.Snapshot() {
				if !whole(rec) {
					t.Fatalf("torn record after the writers stopped: %+v", rec)
				}
			}
			t.Logf("%d snapshots taken while writing", snapshots)
			return
		default:
		}
		for _, rec := range r.Snapshot() {
			if !whole(rec) {
				t.Fatalf("torn record: %+v", rec)
			}
		}
	}
}

func TestTraceIDHelpers(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x", id)
		}
		seen[id] = true
	}
	id := NewTraceID()
	s := FormatTraceID(id)
	if len(s) != 16 {
		t.Fatalf("FormatTraceID(%x) = %q, want 16 hex digits", id, s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %x, %v; want %x", s, back, err, id)
	}
	if back, err = ParseTraceID("0x" + s); err != nil || back != id {
		t.Fatalf("ParseTraceID with 0x prefix = %x, %v", back, err)
	}
	if _, err := ParseTraceID("nothex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestKindNames(t *testing.T) {
	for k := RecordKind(1); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no display name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
	if RecordKind(200).String() != "kind(200)" {
		t.Fatal("out-of-range kind String")
	}
}

func TestEventsHandler(t *testing.T) {
	r := NewRecorder(1024)
	trace := NewTraceID()
	r.Record(KindIngest, trace, 0, 1, 2, 3, 0)
	r.Record(KindPublish, trace, 9, 2, 1, 100, 200)
	r.Record(KindPublish, NewTraceID(), 10, 0, 0, 0, 0)
	h := EventsHandler(r)

	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events"+query, nil))
		return rec
	}

	resp := get("")
	if ct := resp.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %s", ct)
	}
	var dump struct {
		Capacity int `json:"capacity"`
		Records  []struct {
			Kind  string           `json:"kind"`
			Trace string           `json:"trace"`
			Seq   uint64           `json:"seq"`
			Args  map[string]int64 `json:"args"`
		} `json:"records"`
	}
	if err := json.Unmarshal(resp.Body.Bytes(), &dump); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, resp.Body.String())
	}
	if dump.Capacity != r.Capacity() || len(dump.Records) != 3 {
		t.Fatalf("dump = capacity %d, %d records", dump.Capacity, len(dump.Records))
	}

	resp = get("?trace=" + FormatTraceID(trace))
	if err := json.Unmarshal(resp.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != 2 {
		t.Fatalf("trace filter = %d records, want 2", len(dump.Records))
	}
	if dump.Records[0].Kind != "ingest" || dump.Records[0].Trace != FormatTraceID(trace) {
		t.Fatalf("first filtered record = %+v", dump.Records[0])
	}
	if dump.Records[1].Args["fanout"] != 2 || dump.Records[1].Args["match_ns"] != 100 {
		t.Fatalf("publish args = %v", dump.Records[1].Args)
	}

	resp = get("?kind=publish&limit=1")
	if err := json.Unmarshal(resp.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != 1 || dump.Records[0].Seq != 10 {
		t.Fatalf("kind+limit filter = %+v", dump.Records)
	}

	for _, bad := range []string{"?trace=zzz", "?kind=frobnicate", "?limit=-1", "?limit=x"} {
		if resp := get(bad); resp.Code != 400 {
			t.Errorf("GET %s = %d, want 400", bad, resp.Code)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := NewRecorder(1024)
	trace := NewTraceID()
	r.Record(KindDecision, trace, 5, 1, 2, 10, 200000)
	var sb strings.Builder
	if err := r.WriteText(&sb, 0, KindNone, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1 record(s)") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "decision") || !strings.Contains(out, "ratio_ppm=200000") ||
		!strings.Contains(out, "trace="+FormatTraceID(trace)) {
		t.Fatalf("missing record detail: %q", out)
	}
}

func TestDefaultRecorderIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() must return one process-wide recorder")
	}
	if Default().Capacity() < DefaultRecorderCapacity {
		t.Fatalf("default capacity = %d", Default().Capacity())
	}
}

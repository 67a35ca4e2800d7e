package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"reflect"
	"testing"
)

func TestTracerSamplesOneInN(t *testing.T) {
	tr := NewTracer(slog.Default(), 4)
	sampled := 0
	for i := 0; i < 12; i++ {
		if tr.Sample() {
			sampled++
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 12, want 3 (1 in 4)", sampled)
	}
}

func TestTracerDisabled(t *testing.T) {
	if NewTracer(nil, 10) != nil {
		t.Fatal("nil logger must disable tracing")
	}
	if NewTracer(slog.Default(), 0) != nil {
		t.Fatal("sampleEvery < 1 must disable tracing")
	}
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("a nil tracer sampled a publication")
	}
	tr.Log(NewRecorder(512), 1, nil) // must not panic
	if tr.Traces() != 0 {
		t.Fatal("a nil tracer counted a trace")
	}
}

// Sample is the whole per-publication cost of a tracer that does not
// pick the publication: one atomic add, or one nil check.
func TestSampleDoesNotAllocate(t *testing.T) {
	var off *Tracer
	rare := NewTracer(slog.Default(), math.MaxInt32)
	for name, tr := range map[string]*Tracer{"nil": off, "unsampled": rare} {
		if n := testing.AllocsPerRun(1000, func() { tr.Sample() }); n != 0 {
			t.Errorf("%s tracer: Sample allocates %g/op", name, n)
		}
	}
}

// The log event is rendered from the trace's records: one key per kind
// holding its named arguments, a list for a kind recorded several
// times, the trace id, and an error only for a refused publication.
func TestTracerLogRendersRecords(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(slog.New(slog.NewJSONHandler(&buf, nil)), 1)
	rec := NewRecorder(512)
	trace := NewTraceID()
	rec.Record(KindStages, trace, 7, 0, 10, 20, 30)
	rec.Record(KindMatch, trace, 7, 3, 12, 1, 2)
	rec.Record(KindDeliver, trace, 7, 4, 1, 1, 0)
	rec.Record(KindDeliver, trace, 7, 5, 1, 1, 0)
	rec.Record(KindPublish, trace, 7, 2, 2, 20, 90)
	rec.Record(KindPublish, NewTraceID(), 8, 1, 1, 1, 1) // another trace
	tr.Log(rec, trace, nil)

	ev := decodeEvent(t, buf.Bytes())
	want := map[string]any{
		"msg":      "publish",
		"trace_id": FormatTraceID(trace),
		"stages":   map[string]any{"wal": 0.0, "ingest": 10.0, "match": 20.0, "enqueue": 30.0},
		"match":    map[string]any{"nodes_visited": 3.0, "entries_tested": 12.0, "leaves_visited": 1.0, "matched": 2.0},
		"deliver": []any{
			map[string]any{"sub": 4.0, "depth": 1.0, "subs": 1.0},
			map[string]any{"sub": 5.0, "depth": 1.0, "subs": 1.0},
		},
		"publish": map[string]any{"fanout": 2.0, "delivered": 2.0, "match_ns": 20.0, "total_ns": 90.0},
	}
	delete(ev, "time")
	delete(ev, "level")
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("log event\n got %v\nwant %v", ev, want)
	}
	if tr.Traces() != 1 {
		t.Fatalf("traces = %d, want 1", tr.Traces())
	}

	buf.Reset()
	tr.Log(rec, NewTraceID(), errors.New("broker: closed"))
	if ev := decodeEvent(t, buf.Bytes()); ev["error"] != "broker: closed" {
		t.Fatalf("refused publication logged %v, want its error", ev)
	}
}

// decodeEvent parses one JSON log line, failing on a repeated key:
// encoding/json would keep the last value silently.
func decodeEvent(t *testing.T, line []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	if _, err := dec.Token(); err != nil { // {
		t.Fatalf("log line %q: %v", line, err)
	}
	ev := map[string]any{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		key := tok.(string)
		if _, dup := ev[key]; dup {
			t.Fatalf("log line repeats key %q: %s", key, line)
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		ev[key] = v
	}
	if _, err := dec.Token(); err != nil || dec.More() { // }, and nothing after
		t.Fatalf("log output %q is not one JSON object", line)
	}
	return ev
}

// BenchmarkSample is the per-publication cost of a tracer that does not
// pick the publication.
func BenchmarkSample(b *testing.B) {
	tr := NewTracer(slog.Default(), math.MaxInt32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Sample()
	}
}

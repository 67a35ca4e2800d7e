package broker

import (
	"bytes"
	"log/slog"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/telemetry"
)

func TestBrokerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Metrics: reg, DefaultBuffer: 1})
	defer b.Close()

	s, err := b.Subscribe(geometry.NewRect(0, 10, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(geometry.Point{5, 5}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Second publish overflows the 1-slot buffer: a drop-newest drop.
	if _, err := b.Publish(geometry.Point{5, 5}, []byte("y")); err != nil {
		t.Fatal(err)
	}
	// A miss still counts as a publication and records traversal effort.
	if _, err := b.Publish(geometry.Point{50, 50}, nil); err != nil {
		t.Fatal(err)
	}

	if got := reg.CounterValue("pubsub_broker_published_total"); got != 3 {
		t.Errorf("published = %g, want 3", got)
	}
	if got := reg.CounterValue("pubsub_broker_delivered_total"); got != 1 {
		t.Errorf("delivered = %g, want 1", got)
	}
	if got := reg.CounterValue("pubsub_broker_dropped_total"); got != 1 {
		t.Errorf("dropped = %g, want 1", got)
	}
	if h := reg.Histogram1("pubsub_broker_publish_seconds"); h.Count != 3 {
		t.Errorf("publish latency count = %d, want 3", h.Count)
	}
	if h := reg.Histogram1("pubsub_broker_fanout_size"); h.Count != 3 || h.Sum != 2 {
		t.Errorf("fanout count=%d sum=%g, want 3 and 2", h.Count, h.Sum)
	}
	// The overlay scan tests each rectangle per query: 1 rect × 3 queries.
	if h := reg.Histogram1("pubsub_index_entries_tested"); h.Count != 3 || h.Sum != 3 {
		t.Errorf("entries tested count=%d sum=%g, want 3 and 3", h.Count, h.Sum)
	}

	// Gauges reflect live state at scrape time.
	var gauges = map[string]float64{}
	for _, f := range reg.Gather() {
		if f.Kind == telemetry.KindGauge {
			gauges[f.Name] = f.Samples[0].Value
		}
	}
	if gauges["pubsub_broker_subscriptions"] != 1 {
		t.Errorf("subscriptions gauge = %g, want 1", gauges["pubsub_broker_subscriptions"])
	}
	if gauges["pubsub_broker_queue_depth"] != 1 {
		t.Errorf("queue depth gauge = %g, want 1", gauges["pubsub_broker_queue_depth"])
	}
	_ = s
}

func TestBrokerMetricsNodesVisitedAfterRebuild(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Metrics: reg, MinOverlay: 4})
	defer b.Close()
	var hit *Subscription // the one rectangle containing the point below
	for i := 0; i < 64; i++ {
		lo := float64(i)
		s, err := b.Subscribe(geometry.NewRect(lo, lo+1, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			hit = s
		}
	}
	// Rebuilds are asynchronous, per shard, and a shard's overlay need
	// not ever fold completely (up to MinOverlay rectangles stay). Wait
	// until hit's rectangle is in its shard's packed base, so the tree,
	// not the overlay, answers the query below — and until that install
	// has been booked, which happens just after it.
	deadline := time.Now().Add(5 * time.Second)
	for !inBase(hit) || reg.Histogram1("pubsub_broker_rebuild_seconds").Count == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the matching subscription never reached a packed index")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Publish(geometry.Point{10.5, 0.5}, nil); err != nil {
		t.Fatal(err)
	}
	// The packed S-tree now answers queries, so node visits are recorded.
	if h := reg.Histogram1("pubsub_index_nodes_visited"); h.Count != 1 || h.Sum == 0 {
		t.Errorf("nodes visited count=%d sum=%g, want 1 and > 0", h.Count, h.Sum)
	}
	if h := reg.Histogram1("pubsub_broker_rebuild_seconds"); h.Count == 0 {
		t.Error("rebuild duration not recorded")
	}
}

// inBase reports whether s's shard has a packed base and s is not in its
// overlay, i.e. a publish reaches s through the tree.
func inBase(s *Subscription) bool {
	sh := s.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.base == nil {
		return false
	}
	return !slices.Contains(sh.overlay.subs, s)
}

func TestBrokerTracerEmitsSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(slog.New(slog.NewJSONHandler(&buf, nil)), 1)
	b := New(Options{Tracer: tr})
	defer b.Close()
	if _, err := b.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Traces() != 1 {
		t.Fatalf("traces = %d, want 1", tr.Traces())
	}
	out := buf.String()
	for _, want := range []string{`"msg":"publish"`, `"fanout":1`, `"stages"`, `"ingest"`, `"match"`, `"enqueue"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s in: %s", want, out)
		}
	}
}

// A broker without a registry must not pay for telemetry: a Publish
// with no matches allocates nothing at all on the snapshot path, and an
// instrumented one may not allocate more than the bare one.
func TestPublishDisabledTelemetryAllocations(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.Subscribe(geometry.NewRect(0, 1)); err != nil {
		t.Fatal(err)
	}
	p := geometry.Point{50}
	base := testing.AllocsPerRun(500, func() {
		if _, err := b.Publish(p, nil); err != nil {
			t.Fatal(err)
		}
	})
	if !raceEnabled && base != 0 {
		t.Errorf("bare no-match publish allocates %g/op, want 0", base)
	}

	b2 := New(Options{Metrics: telemetry.NewRegistry()})
	defer b2.Close()
	if _, err := b2.Subscribe(geometry.NewRect(0, 1)); err != nil {
		t.Fatal(err)
	}
	instrumented := testing.AllocsPerRun(500, func() {
		if _, err := b2.Publish(p, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Metrics recording itself is allocation-free; the instrumented
	// publish may not allocate more than the bare one.
	if instrumented > base {
		t.Errorf("instrumented publish allocates %g/op, bare %g/op", instrumented, base)
	}
}

package broker

import (
	"bytes"
	"io"
	"log/slog"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/workload"
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
	// Rebuilds are asynchronous, and the overlay need not ever fold
	// completely (up to MinOverlay rectangles stay). Wait until hit's
	// rectangle is in the packed base, so the tree, not the overlay,
	// answers the query below — and until that install has been booked,
	// which happens just after it.
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

// inBase reports whether the broker has a packed base and s is not in
// its overlay, i.e. a publish reaches s through the tree.
func inBase(s *Subscription) bool {
	b := s.b
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.base == nil {
		return false
	}
	return !slices.Contains(b.overlay.subs, s)
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

// BenchmarkPublishObserved is what observing a publication costs over
// the bare publish, on the ledger's stock population (10 000
// paper-model subscriptions, fan-out ~140), each publication's
// deliveries drained after it so no queue ever fills. Rows: bare (the
// flight recorder's publish record only), metrics (a registry),
// metrics+slo, traced (a nonzero trace id, as every wire publication
// carries: the detail records) and sampled (1 in 1: traced, then logged
// as JSON to io.Discard).
func BenchmarkPublishObserved(b *testing.B) {
	model := workload.MustStockPublications(9)
	rng := rand.New(rand.NewSource(5))
	events := make([]geometry.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = 10000
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		opts   Options
		traced bool
	}{
		{"bare", Options{}, false},
		{"metrics", Options{Metrics: telemetry.NewRegistry()}, false},
		{"metrics+slo", Options{Metrics: telemetry.NewRegistry(), SLO: health.NewSLO(health.SLOOptions{ObjectiveSeconds: 0.01})}, false},
		{"traced", Options{}, true},
		{"sampled", Options{Tracer: telemetry.NewTracer(slog.New(slog.NewJSONHandler(io.Discard, nil)), 1)}, false},
	} {
		// The 10 000th subscription triggers the one rebuild (see
		// BenchmarkPublishOverlay), so every row matches the same packed
		// base with an empty overlay.
		row.opts.MinOverlay = len(tb.Subs) - 1
		row.opts.Recorder = telemetry.NewRecorder(telemetry.DefaultRecorderCapacity)
		br := New(row.opts)
		subs := make([]*Subscription, len(tb.Subs))
		for i, s := range tb.Subs {
			if subs[i], err = br.Subscribe(s.Rect); err != nil {
				b.Fatal(err)
			}
		}
		for {
			br.mu.RLock()
			settled := br.baseLen == len(subs) && !br.rebuilding && !br.rebuildDueLocked()
			br.mu.RUnlock()
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
		// reach[i] is the subscriptions events[i] is delivered to.
		reach := make([][]*Subscription, len(events))
		for i, p := range events {
			if _, err := br.Publish(p, nil); err != nil {
				b.Fatal(err)
			}
			for _, s := range subs {
				select {
				case <-s.Events():
					reach[i] = append(reach[i], s)
				default:
				}
			}
		}
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var trace uint64
				if row.traced {
					trace = telemetry.NewTraceID()
				}
				k := i % len(events)
				if _, err := br.PublishTraced(events[k], nil, trace); err != nil {
					b.Fatal(err)
				}
				for _, s := range reach[k] {
					<-s.Events()
				}
			}
		})
		br.Close()
	}
}

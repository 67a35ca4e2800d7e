package broker

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func TestLagReportTracksDeliveredOffset(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	rep := b.LagReport()
	if len(rep.Subs) != 1 || rep.Subs[0].LagEvents != 0 {
		t.Fatalf("fresh subscription should have zero lag: %+v", rep)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep = b.LagReport()
	if rep.Head != 3 {
		t.Fatalf("head = %d, want 3", rep.Head)
	}
	if rep.Subs[0].LagEvents != 0 || rep.Subs[0].DeliveredSeq != 3 {
		t.Fatalf("delivered sub should track head: %+v", rep.Subs[0])
	}
	// Non-matching publications still advance the head; the idle
	// subscription's lag is the resume depth, not a missed-match count.
	if _, err := b.Publish(geometry.Point{50}, nil); err != nil {
		t.Fatal(err)
	}
	rep = b.LagReport()
	if rep.Head != 4 || rep.Subs[0].LagEvents != 1 {
		t.Fatalf("head %d lag %d, want 4/1", rep.Head, rep.Subs[0].LagEvents)
	}
	if rep.Subs[0].LagAgeSeconds <= 0 {
		t.Fatalf("lagging sub should have positive lag age: %+v", rep.Subs[0])
	}
	// Drain and deliver again: lag snaps back to zero.
	for len(s.Events()) > 0 {
		<-s.Events()
	}
	if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
		t.Fatal(err)
	}
	rep = b.LagReport()
	if rep.Subs[0].LagEvents != 0 || rep.Subs[0].LagAgeSeconds != 0 {
		t.Fatalf("delivery should clear lag: %+v", rep.Subs[0])
	}
}

func TestSlowSubscriberDetection(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1024)
	b := New(Options{SlowLagThreshold: 4, Metrics: reg, Recorder: rec})
	defer b.Close()
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the buffer (1 delivery), then drop until lag crosses 4.
	for i := 0; i < 8; i++ {
		if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !s.slow.Load() {
		t.Fatal("subscription should be flagged slow")
	}
	rep := b.LagReport()
	if rep.SlowSubs != 1 || rep.SlowTransitions != 1 || !rep.Subs[0].Slow {
		t.Fatalf("slow state not reported: %+v", rep)
	}
	if got := reg.CounterValue("pubsub_broker_slow_transitions_total"); got != 1 {
		t.Fatalf("slow transitions counter = %g, want 1", got)
	}
	recs := rec.SnapshotFilter(0, telemetry.KindSlowSub, 0)
	if len(recs) != 1 || recs[0].Args[2] != 1 {
		t.Fatalf("want one slow_sub record with slow=1, got %+v", recs)
	}
	// Draining and receiving one delivery clears the flag.
	for len(s.Events()) > 0 {
		<-s.Events()
	}
	if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
		t.Fatal(err)
	}
	if s.slow.Load() {
		t.Fatal("successful delivery should clear the slow flag")
	}
	rep = b.LagReport()
	if rep.SlowSubs != 0 || rep.SlowTransitions != 1 {
		t.Fatalf("slow recovery not reported: %+v", rep)
	}
}

func TestLagMetricsGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Metrics: reg})
	defer b.Close()
	if _, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer holds 1, so lag = 5 - 1 = 4.
	var maxLag, head float64
	for _, f := range reg.Gather() {
		if len(f.Samples) == 0 {
			continue
		}
		switch f.Name {
		case "pubsub_broker_max_lag_events":
			maxLag = f.Samples[0].Value
		case "pubsub_broker_head_seq":
			head = f.Samples[0].Value
		}
	}
	if head != 5 || maxLag != 4 {
		t.Fatalf("head %g maxLag %g, want 5/4", head, maxLag)
	}
	hist := reg.Histogram1("pubsub_broker_lag_events")
	if hist.Count != 1 || hist.Max != 4 || hist.Min != 4 {
		t.Fatalf("lag histogram = %+v, want one sub at lag 4", hist)
	}
}

func TestIndexReportShapeAndSelectivity(t *testing.T) {
	b := withMinOverlay(New(Options{}), 8)
	defer b.Close()
	// 40 identical narrow rects on dim 0, unbounded on dim 1: dim 0 is
	// the selective axis, and every pair is a duplicate.
	for i := 0; i < 40; i++ {
		r := geometry.RectOf(geometry.NewInterval(0, 1), geometry.FullInterval())
		if _, err := b.Subscribe(r); err != nil {
			t.Fatal(err)
		}
	}
	waitRebuilds(t, b, 1)
	rep := b.IndexReport()
	if rep.Subscriptions != 40 || rep.SampledRects != 40 {
		t.Fatalf("population wrong: %+v", rep)
	}
	if rep.Shape.Entries == 0 || rep.Shape.Height == 0 {
		t.Fatalf("base shape missing after rebuild: %+v", rep.Shape)
	}
	if rep.Rebuilds == 0 || rep.SecondsSinceRebuild < 0 {
		t.Fatalf("rebuild bookkeeping wrong: %+v", rep)
	}
	if len(rep.Dims) != 2 {
		t.Fatalf("dims = %d, want 2", len(rep.Dims))
	}
	if rep.Dims[0].Bounded != 40 || rep.Dims[0].BoundedFraction != 1 {
		t.Fatalf("dim 0 should be fully bounded: %+v", rep.Dims[0])
	}
	if rep.Dims[1].Bounded != 0 {
		t.Fatalf("dim 1 should be unbounded: %+v", rep.Dims[1])
	}
	if want := 40 * 39 / 2; rep.DuplicatePairs != want {
		t.Fatalf("duplicate pairs = %d, want %d", rep.DuplicatePairs, want)
	}
}

// TestIndexReportPastSampleCap: with more live rectangles than the
// sample holds, the scans see exactly introspectSampleCap of them, and
// the report's embedded stat is the one ShardStats gives.
func TestIndexReportPastSampleCap(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	const n = 600
	for i := 0; i < n; i++ {
		r := geometry.RectOf(geometry.NewInterval(0, 1), geometry.FullInterval())
		if _, err := b.Subscribe(r); err != nil {
			t.Fatal(err)
		}
	}
	waitSettled(t, b)
	// The rebuilder bumps its counter just after it releases the lock,
	// so a settled broker can still owe one increment: read until the
	// report and ShardStats agree.
	var rep IndexReport
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep = b.IndexReport()
		st := b.ShardStats()[0]
		got := rep.ShardStat
		got.SecondsSinceRebuild, st.SecondsSinceRebuild = 0, 0
		if got == st {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report's stat %+v, ShardStats %+v", got, st)
		}
		time.Sleep(time.Millisecond)
	}
	if rep.Subscriptions != n || rep.Rectangles != n || rep.RebuildDue || rep.Rebuilding {
		t.Fatalf("settled population wrong: %+v", rep.ShardStat)
	}
	if rep.SampledRects != introspectSampleCap {
		t.Fatalf("sampled %d rectangles, want %d", rep.SampledRects, introspectSampleCap)
	}
	if len(rep.Dims) != 2 || rep.Dims[0].BoundedFraction != 1 || rep.Dims[1].Bounded != 0 {
		t.Fatalf("dims = %+v, want dim 0 fully bounded and dim 1 unbounded", rep.Dims)
	}
	if want := introspectSampleCap * (introspectSampleCap - 1) / 2; rep.DuplicatePairs != want || rep.CoveringPairs != 0 {
		t.Fatalf("duplicate/covering pairs = %d/%d, want %d/0", rep.DuplicatePairs, rep.CoveringPairs, want)
	}
}

func TestIndexReportCoveringPairs(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.Subscribe(geometry.NewRect(0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(geometry.NewRect(10, 20)); err != nil {
		t.Fatal(err)
	}
	rep := b.IndexReport()
	if rep.CoveringPairs != 1 || rep.DuplicatePairs != 0 {
		t.Fatalf("covering scan wrong: %+v", rep)
	}
}

func TestBrokerHealthChecks(t *testing.T) {
	hr := health.NewRegistry()
	b := withStaleWindow(withMinOverlay(New(Options{SlowLagThreshold: 2}), 4), 30*time.Millisecond)
	b.RegisterHealth(hr)

	rep := hr.Evaluate()
	if rep.State != health.Healthy {
		t.Fatalf("fresh broker should be healthy: %+v", rep.Results)
	}

	// A slow subscriber degrades the broker component.
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep = hr.Evaluate()
	if rep.State != health.Degraded {
		t.Fatalf("slow subscriber should degrade: %+v", rep.Results)
	}
	found := false
	for _, res := range rep.Results {
		if res.Component == "broker" && strings.Contains(res.Reason, "slow") {
			found = true
		}
	}
	if !found {
		t.Fatalf("broker reason should mention slow subs: %+v", rep.Results)
	}
	for len(s.Events()) > 0 {
		<-s.Events()
	}
	if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
		t.Fatal(err)
	}
	if rep = hr.Evaluate(); rep.State != health.Healthy {
		t.Fatalf("recovered broker should be healthy: %+v", rep.Results)
	}

	// Closing flips both components unhealthy.
	b.Close()
	rep = hr.Evaluate()
	if rep.State != health.Unhealthy {
		t.Fatalf("closed broker should be unhealthy: %+v", rep.Results)
	}
}

func TestRebuilderStalenessDegradesAndRecovers(t *testing.T) {
	hr := health.NewRegistry()
	b := withStaleWindow(withMinOverlay(New(Options{}), 4), 20*time.Millisecond)
	defer b.Close()
	b.RegisterHealth(hr)

	// Swallow rebuild triggers so churn genuinely goes stale: with
	// rebuilding already true, maybeTriggerRebuildLocked starts no
	// rebuilder.
	b.mu.Lock()
	b.rebuilding = true
	b.mu.Unlock()

	for i := 0; i < 16; i++ {
		if _, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep := hr.Evaluate()
		if rep.State == health.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuilder staleness never degraded: %+v", rep.Results)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Running the rebuild folds the overlay and recovers health.
	b.rebuild()
	rep := hr.Evaluate()
	if rep.State != health.Healthy {
		t.Fatalf("rebuild should recover staleness: %+v", rep.Results)
	}
	if b.Stats().IndexRebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", b.Stats().IndexRebuilds)
	}
}

func TestDurableHeadInitialisedFromLog(t *testing.T) {
	dir := t.TempDir()
	log1 := openLog(t, dir, wal.Options{})
	b1 := New(Options{Log: log1})
	if _, err := b1.Publish(geometry.Point{1}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Publish(geometry.Point{2}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	b1.Close()
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2 := openLog(t, dir, wal.Options{})
	b2 := New(Options{Log: log2})
	defer b2.Close()
	if rep := b2.LagReport(); rep.Head != 2 || !rep.Durable {
		t.Fatalf("restarted head = %+v, want head 2 durable", rep)
	}
	// A fresh subscription on the restarted broker starts at the
	// recovered head, not at zero lag against offset 0.
	if _, err := b2.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if rep := b2.LagReport(); rep.Subs[0].LagEvents != 0 {
		t.Fatalf("fresh sub on recovered log should have zero lag: %+v", rep.Subs)
	}
}

// TestIndexReportIsStable: the report samples the index, not a map, so
// two reports of an unchanged broker agree, past the sample cap and with
// base, stale and overlay rectangles all present.
func TestIndexReportIsStable(t *testing.T) {
	b := withMinOverlay(manualRebuilds(t, Options{}, 1), 1)
	rng := rand.New(rand.NewSource(17))
	var subs []*Subscription
	for i := 0; i < 5000; i++ {
		s, err := b.Subscribe(modelRect(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	b.rebuild()
	for _, s := range subs[:100] {
		s.Cancel()
	}
	for i := 0; i < 100; i++ {
		if _, err := b.Subscribe(modelRect(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	first := b.IndexReport()
	if first.BaseLen != 5000 || first.Stale != 100 || first.OverlayLen != 100 || first.SampledRects != introspectSampleCap {
		t.Fatalf("report %+v, want 5 000 in the base, 100 stale, 100 in the overlay and a full sample", first)
	}
	for i := 0; i < 20; i++ {
		rep := b.IndexReport()
		rep.SecondsSinceRebuild = first.SecondsSinceRebuild
		if !reflect.DeepEqual(rep, first) {
			t.Fatalf("report %d differs from the first:\n%+v\n%+v", i, rep, first)
		}
	}
}

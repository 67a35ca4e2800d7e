package broker

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/geometry"
	"repro/internal/invariant"
	"repro/internal/match"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestShardIndexStableAndBalanced checks the id→shard mapping: stable,
// in range, and not pathologically skewed for sequential ids.
func TestShardIndexStableAndBalanced(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for id := 0; id < 4096; id++ {
		sh := shardIndex(id, n)
		if sh < 0 || sh >= n {
			t.Fatalf("shardIndex(%d, %d) = %d out of range", id, n, sh)
		}
		if sh != shardIndex(id, n) {
			t.Fatalf("shardIndex(%d, %d) not stable", id, n)
		}
		counts[sh]++
	}
	for i, c := range counts {
		// Uniform would be 512 per shard; a splitmix64-mixed assignment
		// stays well within 2x of uniform.
		if c < 256 || c > 1024 {
			t.Fatalf("shard %d holds %d of 4096 ids; distribution badly skewed: %v", i, c, counts)
		}
	}
	if shardIndex(123, 1) != 0 || shardIndex(123, 0) != 0 {
		t.Fatal("single-shard mapping must be 0")
	}
}

// TestShardedSubscriptionPlacement checks the dual bookkeeping: every
// subscription lives in exactly the shard its id hashes to, and the
// per-shard populations sum to the broker total.
func TestShardedSubscriptionPlacement(t *testing.T) {
	b := New(Options{Shards: 4})
	defer b.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, st := range b.ShardStats() {
		total += st.Subscriptions
		if st.Subscriptions == 0 {
			t.Errorf("shard %d empty after %d uniform subscribes", st.Shard, n)
		}
	}
	if total != n {
		t.Fatalf("shard subscription sum = %d, want %d", total, n)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	for id, s := range b.subs {
		want := b.shards[shardIndex(id, len(b.shards))]
		if s.shard != want {
			t.Fatalf("sub %d owned by shard %d, want %d", id, s.shard.idx, want.idx)
		}
		want.mu.Lock()
		_, ok := want.subs[id]
		want.mu.Unlock()
		if !ok {
			t.Fatalf("sub %d missing from its shard %d map", id, want.idx)
		}
	}
}

// withWorkers forces every publication of b through the shard workers,
// whatever the machine and the population: it starts them if New's
// auto rule did not and drops the offer threshold to zero. Call it
// before the first publish.
func withWorkers(b *Broker) *Broker {
	if len(b.shards) > 1 && b.shards[1].work == nil {
		b.startWorkers(0)
	}
	b.offerMin = 0
	return b
}

// inlineOnly keeps every shard on the publisher goroutine even where
// the auto rule would offer them to workers.
func inlineOnly(b *Broker) *Broker {
	b.offerMin = math.MaxInt64
	return b
}

// TestPublishArrangementsEquivalence runs one randomized workload —
// multi-rectangle subscriptions, cancellations mid-stream, rebuilds in
// flight (MinOverlay is tiny) — through every arrangement of the
// publish pipeline: one shard under each tree a rebuild can pack
// (Options.Matcher is the only seam that chooses it; the zero value,
// the S-tree, is the plain one-shard broker), four shards run by the
// publisher and four shards offered to workers, each in memory and over
// a durable log, and each of those twice: delivered through one channel
// per subscription, and through three sinks the subscriptions are dealt
// onto. Every arrangement must hand every subscription exactly the
// sequence of events the brute-force oracle says — so the same one
// whichever way it is delivered — and must be observed the same way: the
// same stage labels, a match time on traced publishes, one publish
// record per publication, and no allocation on an untraced
// steady-state publish. Building with -tags=invariants scales the
// workload up.
func TestPublishArrangementsEquivalence(t *testing.T) {
	subsN, pointsN := 60, 200
	if invariant.Enabled {
		subsN, pointsN = 150, 500
	}
	rng := rand.New(rand.NewSource(9))

	// One shared workload: multi-rect subscriptions over a 2-D space.
	type subSpec struct{ rects []geometry.Rect }
	specs := make([]subSpec, subsN)
	for i := range specs {
		nr := 1 + rng.Intn(3)
		rects := make([]geometry.Rect, nr)
		for j := range rects {
			x := rng.Float64() * 100
			y := rng.Float64() * 100
			w := 1 + rng.Float64()*25
			h := 1 + rng.Float64()*25
			rects[j] = geometry.NewRect(x, x+w, y, y+h)
		}
		specs[i] = subSpec{rects: rects}
	}
	points := make([]geometry.Point, pointsN)
	for i := range points {
		points[i] = geometry.Point{rng.Float64() * 110, rng.Float64() * 110}
	}
	phase1 := pointsN / 2
	cancelled := func(i int) bool { return i%4 == 3 }

	// Brute-force oracle: does any of sub i's rectangles contain point p?
	matches := func(i int, p geometry.Point) bool {
		for _, r := range specs[i].rects {
			if r.Contains(p) {
				return true
			}
		}
		return false
	}

	type arrangement struct {
		name    string
		opts    Options
		workers bool
	}
	var arrangements []arrangement
	for _, alg := range []match.Algorithm{match.AlgSTree, match.AlgHilbertRTree, match.AlgDynamicRTree, match.AlgBruteForce} {
		arrangements = append(arrangements, arrangement{
			"1-shard-" + alg.String(),
			Options{Shards: 1, MinOverlay: 4, Matcher: match.Options{Algorithm: alg}},
			false,
		})
	}
	arrangements = append(arrangements,
		arrangement{"4-shards-inline", Options{Shards: 4, MinOverlay: 4}, false},
		arrangement{"4-shards-workers", Options{Shards: 4, MinOverlay: 4}, true},
	)
	type delivery struct {
		durable, viaSink bool
		name             string
	}
	for _, arr := range arrangements {
		for _, dl := range []delivery{
			{false, false, "/memory"}, {true, false, "/durable"},
			{false, true, "/memory/sink"}, {true, true, "/durable/sink"},
		} {
			durable, viaSink := dl.durable, dl.viaSink
			t.Run(arr.name+dl.name, func(t *testing.T) {
				reg := telemetry.NewRegistry()
				rec := telemetry.NewRecorder(1 << 14)
				opts := arr.opts
				opts.Metrics, opts.Recorder = reg, rec
				if durable {
					opts.Log = openLog(t, t.TempDir(), wal.Options{Sync: wal.SyncNever})
				}
				b := New(opts)
				defer b.Close()
				if arr.workers {
					withWorkers(b)
				} else {
					inlineOnly(b)
				}
				published := 0
				publish := func(p geometry.Point, trace uint64) int {
					t.Helper()
					n, err := b.PublishTraced(p, nil, trace)
					if err != nil {
						t.Fatal(err)
					}
					published++
					return n
				}

				// Subscription i goes on sink i%3, the side subscriber on
				// one of its own (sinks stays nil on the channel runs, and
				// so does every SubscribeOptions.Sink).
				var sinks []*Sink
				sinkFor := func(i int) *Sink {
					if !viaSink {
						return nil
					}
					for len(sinks) <= i {
						sinks = append(sinks, b.NewSink())
					}
					return sinks[i]
				}
				subs := make([]*Subscription, subsN)
				for i, spec := range specs {
					s, err := b.SubscribeWith(SubscribeOptions{Buffer: pointsN + 1, Sink: sinkFor(i % 3)}, spec.rects...)
					if err != nil {
						t.Fatal(err)
					}
					subs[i] = s
				}
				// One saturated subscriber off to the side, outside the
				// oracle's space: the steady-state publish below matches
				// it and drops, the allocation-free path that matters.
				side := geometry.Point{205, 205}
				if _, err := b.SubscribeWith(SubscribeOptions{Buffer: 1, Sink: sinkFor(3)}, geometry.NewRect(200, 210, 200, 210)); err != nil {
					t.Fatal(err)
				}
				if n := publish(side, 0); n != 1 {
					t.Fatalf("fill publish delivered to %d, want 1", n)
				}
				if arr.workers {
					// Freshly started workers take offers only once they
					// are parked on their channel; wait for the first
					// hand-off so the rest of the test really runs there.
					deadline := time.Now().Add(5 * time.Second)
					for reg.CounterValue("pubsub_broker_parallel_fanouts_total") == 0 {
						if time.Now().After(deadline) {
							t.Fatal("no shard worker ever took an offer")
						}
						publish(side, 0)
						runtime.Gosched()
					}
				}

				for pi := 0; pi < phase1; pi++ {
					want := 0
					for i := range specs {
						if matches(i, points[pi]) {
							want++
						}
					}
					if got := publish(points[pi], 0); got != want {
						t.Fatalf("phase1 point %d delivered to %d subs, oracle says %d", pi, got, want)
					}
				}
				for i := range subs {
					if cancelled(i) {
						subs[i].Cancel()
					}
				}
				for pi := phase1; pi < pointsN; pi++ {
					want := 0
					for i := range specs {
						if !cancelled(i) && matches(i, points[pi]) {
							want++
						}
					}
					if got := publish(points[pi], 0); got != want {
						t.Fatalf("phase2 point %d delivered to %d subs, oracle says %d", pi, got, want)
					}
				}

				// Observed the same way everywhere. A traced publish
				// carries a match time...
				trace := telemetry.NewTraceID()
				publish(side, trace)
				pubs := rec.SnapshotFilter(trace, telemetry.KindPublish, 0)
				if len(pubs) != 1 || pubs[0].Args[2] <= 0 {
					t.Fatalf("traced publish records = %+v, want one with match_ns > 0", pubs)
				}
				all := rec.SnapshotFilter(trace, telemetry.KindNone, 0)
				if last := all[len(all)-1].Kind; last != telemetry.KindPublish {
					t.Fatalf("trace ends with a %v record, want publish", last)
				}
				// ...every publication wrote exactly one publish record...
				if got := len(rec.SnapshotFilter(0, telemetry.KindPublish, 0)); got != published {
					t.Fatalf("%d publish records for %d publications", got, published)
				}
				// ...the stage family holds the three broker stages — and
				// wal in front of them on a durable broker — and nothing
				// else, each sampled once per publication...
				stages := map[string]uint64{}
				for _, st := range telemetry.StageReport(reg) {
					stages[st.Stage] = st.Count
				}
				wantStages := map[string]uint64{
					telemetry.StageIngest:  uint64(published),
					telemetry.StageMatch:   uint64(published),
					telemetry.StageEnqueue: uint64(published),
				}
				if durable {
					wantStages[telemetry.StageWAL] = uint64(published)
				}
				if !maps.Equal(stages, wantStages) {
					t.Fatalf("stage samples = %v, want %v", stages, wantStages)
				}
				// ...the worker counter tells the arrangements apart...
				if viaWorkers := reg.CounterValue("pubsub_broker_parallel_fanouts_total"); (viaWorkers > 0) != arr.workers {
					t.Fatalf("%g publications went through workers, arrangement says workers=%v", viaWorkers, arr.workers)
				}
				// ...the index introspection names the tree the rebuilds
				// packed...
				waitRebuilds(t, b, 1)
				if got, want := b.IndexReport().Shape.Algorithm, arr.opts.Matcher.Algorithm.String(); got != want {
					t.Fatalf("IndexReport names the tree %q, want %q", got, want)
				}
				// ...and an untraced steady-state publish allocates nothing.
				if !raceEnabled {
					if allocs := testing.AllocsPerRun(200, func() { publish(side, 0) }); allocs != 0 {
						t.Errorf("steady-state publish allocates %.1f times per op, want 0", allocs)
					}
				}

				b.Close()
				// Drain every subscriber — its channel, or its share of its
				// sink's elements — and compare the sequence it received
				// against the oracle's: one publisher, so publication order.
				got := make(map[int][]geometry.Point)
				for _, s := range subs {
					if viaSink {
						continue
					}
					for ev := range s.Events() {
						got[s.ID()] = append(got[s.ID()], ev.Point)
					}
				}
				for _, k := range sinks[:min(3, len(sinks))] {
					var d Delivery
					for k.Next(&d) {
						for _, id := range d.IDs {
							got[id] = append(got[id], d.Event.Point)
						}
					}
				}
				for i, s := range subs {
					var want []geometry.Point
					for pi, p := range points {
						if (pi < phase1 || !cancelled(i)) && matches(i, p) {
							want = append(want, p)
						}
					}
					if !slices.EqualFunc(got[s.ID()], want, func(a, b geometry.Point) bool { return slices.Equal(a, b) }) {
						t.Fatalf("sub %d received %d events %v, oracle says %d %v", i, len(got[s.ID()]), got[s.ID()], len(want), want)
					}
				}
			})
		}
	}
}

// TestShardEmptyRebalance is the rebalance fix: cancelling the last
// subscription in a shard must not leave a permanently stale snapshot
// pinned — the shard's base and slot table are released and the
// rebuilder goes idle.
func TestShardEmptyRebalance(t *testing.T) {
	b := New(Options{Shards: 2, MinOverlay: 1})
	defer b.Close()
	subs := make([]*Subscription, 0, 64)
	for i := 0; i < 64; i++ {
		s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	waitRebuilds(t, b, 1)
	for _, s := range subs {
		s.Cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		clean := true
		for _, st := range b.ShardStats() {
			if st.Rectangles != 0 || st.BaseLen != 0 || st.OverlayLen != 0 || st.Stale != 0 || st.Rebuilding {
				clean = false
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("empty shards never shrank: %+v", b.ShardStats())
		}
		time.Sleep(time.Millisecond)
	}
	// The published snapshots must have released the packed index and
	// slot table (nothing pinned), not just zeroed the counters.
	for _, sh := range b.shards {
		snap := sh.snap.Load()
		if snap == nil {
			t.Fatal("shard snapshot nil before Close")
		}
		if snap.base != nil || snap.slots != nil || snap.overlay.subs != nil || snap.overlay.boxes.Len() != 0 {
			t.Fatalf("shard %d snapshot still pins base=%v slots=%d overlay=%d",
				sh.idx, snap.base != nil, len(snap.slots), len(snap.overlay.subs))
		}
	}
	if st := b.Stats(); st.Rectangles != 0 || st.Subscriptions != 0 {
		t.Fatalf("broker stats after full churn-out: %+v", st)
	}
}

// TestShardRectangleAccountingUnderChurn asserts the per-shard
// Rectangles invariant — baseLen - stale + len(overlay) equals the live
// rectangle count of the shard's subscriptions — at every observable
// instant while rebuilds are racing subscription churn.
func TestShardRectangleAccountingUnderChurn(t *testing.T) {
	b := New(Options{Shards: 3, MinOverlay: 2})
	defer b.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		live := make([]*Subscription, 0, 256)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if len(live) < 32 || rng.Intn(3) > 0 {
				nr := 1 + rng.Intn(3)
				rects := make([]geometry.Rect, nr)
				for j := range rects {
					x := rng.Float64() * 100
					rects[j] = geometry.NewRect(x, x+5)
				}
				s, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, rects...)
				if err != nil {
					return
				}
				live = append(live, s)
			} else {
				i := rng.Intn(len(live))
				live[i].Cancel()
				live = append(live[:i], live[i+1:]...)
			}
		}
	}()

	deadline := time.Now().Add(400 * time.Millisecond)
	checks := 0
	for time.Now().Before(deadline) {
		for _, sh := range b.shards {
			sh.mu.Lock()
			wantRects := 0
			for _, s := range sh.subs {
				wantRects += len(s.rects)
			}
			got := sh.rectanglesLocked()
			rebuilding := sh.rebuilding
			sh.mu.Unlock()
			if got != wantRects {
				close(stop)
				wg.Wait()
				t.Fatalf("shard %d rectangle accounting drifted: baseLen-stale+overlay = %d, live rects = %d (rebuilding=%v)",
					sh.idx, got, wantRects, rebuilding)
			}
			checks++
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if checks == 0 {
		t.Fatal("no accounting checks ran")
	}
}

// TestCloseDuringMultiShardRebuild closes the broker while every
// shard's rebuilder (and the shard workers) is live, and checks nothing
// leaks.
func TestCloseDuringMultiShardRebuild(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		b := withWorkers(New(Options{Shards: 4, MinOverlay: 1}))
		for i := 0; i < 200; i++ {
			if _, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+2))); err != nil {
				t.Fatal(err)
			}
		}
		// A publish in flight through the worker set while Close runs.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				if _, err := b.Publish(geometry.Point{float64(i) + 0.5}, nil); err != nil {
					return // errClosed once Close wins the race
				}
			}
		}()
		b.Close()
		<-done
	}
	waitGoroutines(t, base)
}

// TestParallelFanoutRaceStress drives concurrent publishers through
// the shard workers while per-shard rebuilds and cross-shard churn race
// them. Run with -race; sizes shrink under the detector's
// overhead.
func TestParallelFanoutRaceStress(t *testing.T) {
	pubs, churnOps := 3000, 1500
	if raceEnabled {
		pubs, churnOps = 600, 300
	}
	b := withWorkers(New(Options{Shards: 4, MinOverlay: 2, SlowLagThreshold: 8}))
	defer b.Close()
	for i := 0; i < 128; i++ {
		if _, err := b.SubscribeWith(SubscribeOptions{Buffer: 2},
			geometry.NewRect(float64(i%50), float64(i%50+10))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < pubs; i++ {
				p := geometry.Point{rng.Float64() * 60}
				if i%7 == 0 {
					// Traced publications exercise the detail-record path
					// through the workers too.
					if _, err := b.PublishTraced(p, []byte("x"), uint64(i)+1); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := b.Publish(p, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		live := make([]*Subscription, 0, 128)
		for i := 0; i < churnOps; i++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				s, err := b.SubscribeWith(SubscribeOptions{Buffer: 1},
					geometry.NewRect(rng.Float64()*50, rng.Float64()*50+60))
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, s)
			} else {
				j := rng.Intn(len(live))
				live[j].Cancel()
				live = append(live[:j], live[j+1:]...)
			}
		}
		for _, s := range live {
			s.Cancel()
		}
	}()
	wg.Wait()
	st := b.Stats()
	if st.Published == 0 || st.Delivered == 0 {
		t.Fatalf("stress made no progress: %+v", st)
	}
}

// BenchmarkPublishSharded times a steady-state publish on the paper's
// subscription model at four populations, for one shard and for four
// shards run by the publisher alone or offered to the shard workers.
// Run it with -cpu 2 or more: it is where autoParallelMinRects comes
// from (DESIGN.md §14 has the table).
func BenchmarkPublishSharded(b *testing.B) {
	model := workload.MustStockPublications(9)
	rng := rand.New(rand.NewSource(5))
	events := make([]geometry.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}
	for _, size := range []int{1000, 10000, 32768, 100000} {
		cfg := workload.DefaultSubscriptionConfig()
		cfg.Count = size
		tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			shards  int
			arrange func(*Broker) *Broker
		}{
			{"shards=1", 1, inlineOnly},
			{"shards=4/inline", 4, inlineOnly},
			{"shards=4/workers", 4, withWorkers},
		} {
			// Built once per row, not once per calibration round of b.Run.
			br := mode.arrange(New(Options{DefaultBuffer: 1, Shards: mode.shards}))
			for _, s := range tb.Subs {
				if _, err := br.Subscribe(s.Rect); err != nil {
					b.Fatal(err)
				}
			}
			// Time the packed indexes, not overlay scans: wait until every
			// shard's rebuilder has folded the subscribe burst and idles.
			for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(time.Millisecond) {
				busy := false
				for _, sh := range br.shards {
					sh.mu.Lock()
					busy = busy || sh.rebuilding || sh.rebuildDueLocked()
					sh.mu.Unlock()
				}
				if !busy {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("index rebuilds did not settle")
				}
			}
			b.Run(fmt.Sprintf("rects=%d/%s", size, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := br.Publish(events[i%len(events)], nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			br.Close()
		}
	}
}

// TestCancelOfBaseSubscriptionKeepsOverlay: a subscription that lives
// only in the packed base has no overlay entry to remove, so cancelling
// it leaves the overlay slice — backing array and length — as it was
// instead of copying it. Cancelling an overlay subscription still
// removes its entry.
func TestCancelOfBaseSubscriptionKeepsOverlay(t *testing.T) {
	b := New(Options{Shards: 1})
	defer b.Close()
	subscribe := func(i int) *Subscription {
		s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := subscribe(0)
	for i := 1; i < 100; i++ {
		subscribe(i)
	}
	waitRebuilds(t, b, 1)
	waitSettled(t, b)
	last := subscribe(100)
	sh := b.shards[0]
	overlay := func() []*Subscription {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.overlay.boxes.Len() != len(sh.overlay.subs) {
			t.Fatalf("the overlay's run holds %d boxes for %d entries", sh.overlay.boxes.Len(), len(sh.overlay.subs))
		}
		return sh.overlay.subs
	}
	before := overlay()
	if slices.Contains(before, first) {
		t.Fatal("the first subscription is still in the overlay after the rebuild")
	}
	if len(before) == 0 || before[len(before)-1] != last {
		t.Fatalf("the overlay holds %d entries and not the newest subscription last", len(before))
	}

	first.Cancel()
	if after := overlay(); len(after) != len(before) || &after[0] != &before[0] {
		t.Fatalf("cancelling a base subscription replaced the overlay: %d entries at %p, was %d at %p",
			len(after), &after[0], len(before), &before[0])
	}
	last.Cancel()
	if after := overlay(); len(after) != len(before)-1 {
		t.Fatalf("cancelling an overlay subscription left %d overlay entries, want %d", len(after), len(before)-1)
	}
}

package broker

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/geometry"
	"repro/internal/invariant"
	"repro/internal/match"
	"repro/internal/stree"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// arrangement is one way the publish pipeline runs: the parts a
// rebuild packs the base in (at any population: the part threshold is
// 0) and whether part workers take parts off the publisher.
type arrangement struct {
	name    string
	parts   int
	workers bool
}

// arrangements are the three the broker can run in: one part, four
// parts run by the publisher, and four parts offered to the workers.
var arrangements = []arrangement{
	{"one-part", 1, false},
	{"4-parts-inline", 4, false},
	{"4-parts-workers", 4, true},
}

// open creates a broker in the arrangement.
func (a arrangement) open(opts Options) *Broker {
	return newBroker(opts, a.parts, 0, a.workers)
}

// withMinOverlay lowers b's overlay rebuild floor from defaultMinOverlay
// to n, so a few subscriptions reach a rebuild. Call it before the first
// Subscribe.
func withMinOverlay(b *Broker, n int) *Broker {
	b.minOverlay = n
	return b
}

// withStaleWindow shortens how long a due rebuild may wait before the
// "rebuilder" health check reports Degraded. Call it before the first
// Subscribe.
func withStaleWindow(b *Broker, d time.Duration) *Broker {
	b.staleWindow = d
	return b
}

// forEachArrangement runs f once per arrangement, as a subtest.
func forEachArrangement(t *testing.T, f func(t *testing.T, a arrangement)) {
	for _, a := range arrangements {
		t.Run(a.name, func(t *testing.T) { f(t, a) })
	}
}

// TestPublishArrangementsEquivalence runs one randomized workload —
// multi-rectangle subscriptions, cancellations mid-stream, rebuilds in
// flight (minOverlay is tiny) — through every arrangement of the
// publish pipeline: one part, four parts run by the publisher and four
// parts offered to workers (the subtest names count the parts as
// "shards"), each in memory and over a durable log, and each of those
// twice: delivered through one channel per subscription, and through
// three sinks the subscriptions are dealt onto. Every arrangement must
// hand every subscription exactly the sequence of events the
// brute-force oracle says — so the same one whichever way it is
// delivered — and must be observed the same way: the same stage labels,
// a match time on traced publishes, one publish record per publication,
// the part count the arrangement packs, and no allocation on an
// untraced steady-state publish. Building with -tags=invariants scales
// the workload up.
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

	runs := []arrangement{
		{"1-shard-s-tree", 1, false},
		{"4-shards-inline", 4, false},
		{"4-shards-workers", 4, true},
	}
	type delivery struct {
		durable, viaSink bool
		name             string
	}
	for _, arr := range runs {
		for _, dl := range []delivery{
			{false, false, "/memory"}, {true, false, "/durable"},
			{false, true, "/memory/sink"}, {true, true, "/durable/sink"},
		} {
			durable, viaSink := dl.durable, dl.viaSink
			t.Run(arr.name+dl.name, func(t *testing.T) {
				reg := telemetry.NewRegistry()
				rec := telemetry.NewRecorder(1 << 14)
				opts := Options{Metrics: reg, Recorder: rec}
				if durable {
					opts.Log = openLog(t, t.TempDir(), wal.Options{Sync: wal.SyncNever})
				}
				b := withMinOverlay(arr.open(opts), 4)
				defer b.Close()
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
					// Parts are offered once a rebuild has packed them,
					// and freshly started workers take offers only once
					// they are parked on their channel; wait for the first
					// hand-off so the rest of the test really runs there.
					deadline := time.Now().Add(5 * time.Second)
					for reg.CounterValue("pubsub_broker_parallel_fanouts_total") == 0 {
						if time.Now().After(deadline) {
							t.Fatal("no part worker ever took an offer")
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
				if rep := b.IndexReport(); rep.Shape.Algorithm != match.AlgSTree.String() || rep.ShardCount != arr.parts {
					t.Fatalf("IndexReport names the tree %q in %d parts, want %q in %d", rep.Shape.Algorithm, rep.ShardCount, match.AlgSTree, arr.parts)
				}
				// ...and an untraced steady-state publish allocates nothing.
				// AllocsPerRun counts the whole process's allocations, so
				// it measures only once no rebuild is running or due: the
				// cancels above can leave one for the rebuilder.
				if !raceEnabled {
					waitSettled(t, b)
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
// subscription must not leave a permanently stale snapshot pinned — the
// base's parts and the slot table are released and the rebuilder goes
// idle.
func TestShardEmptyRebalance(t *testing.T) {
	forEachArrangement(t, func(t *testing.T, a arrangement) {
		b := withMinOverlay(a.open(Options{}), 1)
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
			st := b.ShardStats()[0]
			if st.Rectangles == 0 && st.BaseLen == 0 && st.OverlayLen == 0 && st.Stale == 0 && !st.Rebuilding {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the empty index never shrank: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
		// The published snapshot must have released the packed parts and
		// slot table (nothing pinned), not just zeroed the counters.
		snap := b.snap.Load()
		if snap == nil {
			t.Fatal("snapshot nil before Close")
		}
		if snap.base != nil || snap.slots != nil || snap.overlay.subs != nil || snap.overlay.boxes.Len() != 0 {
			t.Fatalf("snapshot still pins base=%d slots=%d overlay=%d",
				len(snap.base), len(snap.slots), len(snap.overlay.subs))
		}
		if st := b.Stats(); st.Rectangles != 0 || st.Subscriptions != 0 {
			t.Fatalf("broker stats after full churn-out: %+v", st)
		}
	})
}

// TestPartsPartitionSlots checks the packing of a base in parts: after
// a rebuild, every live subscription's rectangles sit in exactly one
// part, under its own slot, and not also in the overlay; the parts hold
// near-equal shares, differing by at most one subscription; and the
// rectangle accounting equals the live total.
func TestPartsPartitionSlots(t *testing.T) {
	const parts = 4
	b := withMinOverlay(newBroker(Options{}, parts, 0, false), 4)
	defer b.Close()
	rng := rand.New(rand.NewSource(4))
	rects := 0
	for i := 0; i < 203; i++ {
		rs := make([]geometry.Rect, 1+rng.Intn(3))
		for j := range rs {
			rs[j] = modelRect(rng, 2)
		}
		if _, err := b.Subscribe(rs...); err != nil {
			t.Fatal(err)
		}
		rects += len(rs)
	}
	waitSettled(t, b)

	snap := b.snap.Load()
	if len(snap.base) != parts {
		t.Fatalf("the base is packed in %d parts, want %d", len(snap.base), parts)
	}
	// Every point of the grid, matched part by part: a part reports the
	// slots whose rectangles it holds, so collecting its ids over points
	// inside every rectangle recovers which part holds which slot.
	partOf := make(map[int]int) // slot -> part
	sizes := make([]int, parts)
	for k, m := range snap.base {
		seen := map[int]bool{}
		for x := 0.0; x <= 13; x += 0.5 {
			for y := 0.0; y <= 13; y += 0.5 {
				ids, _ := m[0].MatchAppendStats(geometry.Point{x, y}, nil)
				for _, slot := range ids {
					seen[slot] = true
				}
			}
		}
		for slot := range seen {
			if other, dup := partOf[slot]; dup {
				t.Fatalf("slot %d is in parts %d and %d", slot, other, k)
			}
			partOf[slot] = k
		}
		sizes[k] = len(seen)
	}
	inOverlay := map[*Subscription]bool{}
	for _, s := range snap.overlay.subs {
		inOverlay[s] = true
	}
	b.mu.RLock()
	live := len(b.subs)
	for slot := range snap.slots {
		s := snap.slots[slot].Load()
		if _, ok := partOf[slot]; !ok {
			t.Fatalf("slot %d (subscription %d) is in no part", slot, s.id)
		}
		if inOverlay[s] {
			t.Fatalf("subscription %d is in a part and in the overlay", s.id)
		}
		if b.subs[s.id] != s {
			t.Fatalf("slot %d holds subscription %d, which is not live", slot, s.id)
		}
	}
	b.mu.RUnlock()
	if len(snap.slots)+len(inOverlay) != live {
		t.Fatalf("%d slots and %d overlay subscriptions for %d live subscriptions", len(snap.slots), len(inOverlay), live)
	}
	if lo, hi := slices.Min(sizes), slices.Max(sizes); hi-lo > 1 {
		t.Fatalf("part sizes %v differ by more than one subscription", sizes)
	}
	if got := b.Stats().Rectangles; got != rects {
		t.Fatalf("Stats().Rectangles = %d, live subscriptions hold %d", got, rects)
	}
}

// TestRebuildTriggerEdges pins the rebuild rule at its edges: an overlay
// of more than minOverlay rectangles and more than a quarter of the
// base, or more than half the base stale. The bench harness's settled()
// copies this rule from ShardStats, so each step also checks that the
// copy, computed from the one-entry view, agrees. The rebuilder goroutine
// is never started (rebuilding is set first), so nothing folds behind
// the test's back; it runs rebuild itself.
func TestRebuildTriggerEdges(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	b.mu.Lock()
	b.rebuilding = true
	b.mu.Unlock()
	due := func(want bool, when string) {
		t.Helper()
		b.mu.RLock()
		got := b.rebuildDueLocked()
		b.mu.RUnlock()
		st := b.ShardStats()[0]
		copied := st.OverlayLen > 64 && st.OverlayLen*4 > st.BaseLen || st.Stale > 0 && st.Stale*2 > st.BaseLen
		if got != want || copied != want {
			t.Fatalf("%s (%+v): rebuild due %v, the harness's copy %v, want %v", when, st, got, copied, want)
		}
		if st.RebuildDue != want {
			t.Fatalf("%s (%+v): ShardStat.RebuildDue %v, want %v", when, st, st.RebuildDue, want)
		}
	}
	var subs []*Subscription
	subscribe := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, s)
		}
	}
	subscribe(64)
	due(false, "64 overlay rectangles, empty base")
	subscribe(1)
	due(true, "65 overlay rectangles, empty base")
	subscribe(335)
	b.rebuild()
	due(false, "400 in the base after a rebuild")
	subscribe(100)
	due(false, "100 overlay rectangles on a base of 400")
	subscribe(1)
	due(true, "101 overlay rectangles on a base of 400")
	subscribe(1)
	b.rebuild()
	due(false, "502 in the base after a rebuild")
	for _, s := range subs[:251] {
		s.Cancel()
	}
	due(false, "251 of 502 stale")
	subs[251].Cancel()
	due(true, "252 of 502 stale")
}

// TestRebuildOrderIsDeterministic feeds two brokers the same Subscribe
// and Cancel sequence, with many tied rectangle centres, and rebuilds
// both at the same points: each rebuild must list the same slots in the
// same order and pack trees of the same shape that answer every point
// with the same ids, in one part and in four. The rebuilder goroutines
// are never started (rebuilding is set first); the test runs rebuild
// itself.
func TestRebuildOrderIsDeterministic(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			var brokers [2]*Broker
			var subs [2][]*Subscription
			for i := range brokers {
				brokers[i] = withMinOverlay(newBroker(Options{}, parts, 0, false), 4)
				defer brokers[i].Close()
				brokers[i].mu.Lock()
				brokers[i].rebuilding = true
				brokers[i].mu.Unlock()
			}
			rng := rand.New(rand.NewSource(38))
			for step := 0; step < 1500; step++ {
				cancel := len(subs[0]) > 0 && rng.Intn(4) == 0
				var victim int
				var rs []geometry.Rect
				if cancel {
					victim = rng.Intn(len(subs[0]))
				} else {
					rs = make([]geometry.Rect, 1+rng.Intn(2))
					for j := range rs {
						rs[j] = modelRect(rng, 2)
					}
				}
				for i, b := range brokers {
					if cancel {
						subs[i][victim].Cancel()
						subs[i] = slices.Delete(subs[i], victim, victim+1)
						continue
					}
					s, err := b.Subscribe(rs...)
					if err != nil {
						t.Fatal(err)
					}
					subs[i] = append(subs[i], s)
				}
				if step%50 != 49 {
					continue
				}
				for _, b := range brokers {
					b.rebuild()
				}
				s0, s1 := brokers[0].snap.Load(), brokers[1].snap.Load()
				if len(s0.slots) != len(s1.slots) || len(s0.base) != len(s1.base) {
					t.Fatalf("step %d: %d slots in %d parts vs %d in %d", step, len(s0.slots), len(s0.base), len(s1.slots), len(s1.base))
				}
				// A slot holds the same subscription in both brokers, or a
				// tombstone (-1) in both.
				id := func(s *Subscription) int {
					if s == nil {
						return -1
					}
					return s.id
				}
				for k := range s0.slots {
					if x, y := id(s0.slots[k].Load()), id(s1.slots[k].Load()); x != y {
						t.Fatalf("step %d: slot %d holds subscription %d vs %d", step, k, x, y)
					}
				}
				for k := range s0.base {
					if dx, dy := match.Describe(s0.base[k][0]), match.Describe(s1.base[k][0]); dx != dy {
						t.Fatalf("step %d: part %d packs %+v vs %+v", step, k, dx, dy)
					}
					for x := 0.0; x <= 13; x += 0.5 {
						for y := 0.0; y <= 13; y += 0.5 {
							p := geometry.Point{x, y}
							ix, sx := s0.base[k][0].MatchAppendStats(p, nil)
							iy, sy := s1.base[k][0].MatchAppendStats(p, nil)
							if !slices.Equal(ix, iy) || sx != sy {
								t.Fatalf("step %d: part %d answers %v with %v %+v vs %v %+v", step, k, p, ix, sx, iy, sy)
							}
						}
					}
				}
			}
		})
	}
}

// TestShardRectangleAccountingUnderChurn asserts the Rectangles
// invariant — baseLen - stale + len(overlay) equals the live rectangle
// count of the subscriptions — at every observable instant while
// rebuilds of the base in parts race subscription churn from several
// goroutines. The churn comes in rounds, and after each the broker must
// settle: no rebuild due, no rebuilder running, the invariant intact. A
// rebuilder that exits without seeing a round's last trigger leaves a
// due rebuild nobody runs.
func TestShardRectangleAccountingUnderChurn(t *testing.T) {
	b := withMinOverlay(newBroker(Options{}, 3, 0, false), 2)
	defer b.Close()
	// A churner keeps each of its live subscriptions with the test's own
	// copy of its rectangles. It holds ops in read mode across an
	// operation and its record, so accounted, holding it in write mode,
	// reads every churner's records and the broker in agreement.
	type liveSub struct {
		s     *Subscription
		rects []geometry.Rect
	}
	type churner struct {
		rng  *rand.Rand
		live []liveSub
	}
	churners := make([]churner, 4)
	var ops sync.RWMutex
	accounted := func() (got, want int, rebuilding, due bool) {
		ops.Lock()
		defer ops.Unlock()
		b.mu.RLock()
		defer b.mu.RUnlock()
		for _, c := range churners {
			for _, l := range c.live {
				want += len(l.rects)
			}
		}
		return b.rectanglesLocked(), want, b.rebuilding, b.rebuildDueLocked()
	}
	// A churner holds at most four subscriptions, so a rebuild comes due
	// every few operations and the rebuilder's exit often races a trigger.
	churn := func(c *churner) {
		ops.RLock()
		defer ops.RUnlock()
		if len(c.live) < 1 || len(c.live) < 4 && c.rng.Intn(2) > 0 {
			rects := make([]geometry.Rect, 1+c.rng.Intn(3))
			for j := range rects {
				x := c.rng.Float64() * 100
				rects[j] = geometry.NewRect(x, x+5)
			}
			s, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, rects...)
			if err != nil {
				t.Error(err)
				return
			}
			c.live = append(c.live, liveSub{s, rects})
		} else {
			i := c.rng.Intn(len(c.live))
			c.live[i].s.Cancel()
			c.live = append(c.live[:i], c.live[i+1:]...)
		}
	}
	for g := range churners {
		churners[g].rng = rand.New(rand.NewSource(int64(11 + g)))
	}

	for rounds, end := 0, time.Now().Add(400*time.Millisecond); time.Now().Before(end); rounds++ {
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := range churners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 8 {
					churn(&churners[g])
				}
			}()
		}
		go func() { wg.Wait(); close(done) }()
		for churning := true; churning; {
			select {
			case <-done:
				churning = false
			default:
			}
			runtime.Gosched()
			if got, want, rebuilding, _ := accounted(); got != want {
				<-done
				t.Fatalf("round %d: rectangle accounting drifted: baseLen-stale+overlay = %d, live rects = %d (rebuilding=%v)",
					rounds, got, want, rebuilding)
			}
		}
		for settle := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			got, want, rebuilding, due := accounted()
			if got != want {
				t.Fatalf("round %d: rectangle accounting drifted after the churn: %d, live rects %d", rounds, got, want)
			}
			if !rebuilding && !due {
				break
			}
			if time.Now().After(settle) {
				t.Fatalf("round %d: the broker did not settle after the churn: rebuilding=%v due=%v", rounds, rebuilding, due)
			}
		}
	}
}

// TestCloseDuringMultiShardRebuild closes the broker while its
// rebuilder (and, with workers, the part workers) is live, with a
// publication in flight, and checks nothing leaks.
func TestCloseDuringMultiShardRebuild(t *testing.T) {
	forEachArrangement(t, func(t *testing.T, a arrangement) {
		base := runtime.NumGoroutine()
		for round := 0; round < 5; round++ {
			b := withMinOverlay(a.open(Options{}), 1)
			for i := 0; i < 200; i++ {
				if _, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+2))); err != nil {
					t.Fatal(err)
				}
			}
			// A publish in flight through the parts while Close runs.
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
	})
}

// TestParallelFanoutRaceStress drives concurrent publishers through the
// parts — and the part workers — while rebuilds and churn race them.
// Run with -race; sizes shrink under the detector's overhead.
func TestParallelFanoutRaceStress(t *testing.T) {
	pubs, churnOps := 3000, 1500
	if raceEnabled {
		pubs, churnOps = 600, 300
	}
	forEachArrangement(t, func(t *testing.T, a arrangement) {
		b := withMinOverlay(a.open(Options{SlowLagThreshold: 8}), 2)
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
						// Traced publications exercise the detail-record
						// path through the workers too.
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
	})
}

// BenchmarkPublishParts times a steady-state publish on the paper's
// subscription model at four populations, for the default broker (whose
// rule packs parts only from autoParallelMinRects rectangles, and only
// on several CPUs), for one part, and for partsFor(GOMAXPROCS) parts
// (at least two) offered to the part workers at every population. Each
// row reports settle-ms: from the first Subscribe to the rebuilder
// idling with nothing due. Run it with -cpu 2 or more: it is where
// autoParallelMinRects and partsFor come from (DESIGN.md §14 has the
// table).
func BenchmarkPublishParts(b *testing.B) {
	model := workload.MustStockPublications(9)
	rng := rand.New(rand.NewSource(5))
	events := make([]geometry.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}
	parts := max(2, partsFor(runtime.GOMAXPROCS(0)))
	for _, size := range []int{1000, 10000, 32768, 100000} {
		cfg := workload.DefaultSubscriptionConfig()
		cfg.Count = size
		tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{DefaultBuffer: 1}
		for _, row := range []struct {
			name string
			open func() *Broker
		}{
			{"default", func() *Broker { return New(opts) }},
			{"parts=1", func() *Broker { return newBroker(opts, 1, 0, false) }},
			{fmt.Sprintf("parts=%d/workers", parts), func() *Broker { return newBroker(opts, parts, 0, true) }},
		} {
			// Built once per row, not once per calibration round of b.Run.
			br := row.open()
			start := time.Now()
			for _, s := range tb.Subs {
				if _, err := br.Subscribe(s.Rect); err != nil {
					b.Fatal(err)
				}
			}
			// Time the packed index, not overlay scans: wait until the
			// rebuilder has folded the subscribe burst and idles.
			for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(100 * time.Microsecond) {
				br.mu.RLock()
				busy := br.rebuilding || br.rebuildDueLocked()
				br.mu.RUnlock()
				if !busy {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("index rebuilds did not settle")
				}
			}
			settle := time.Since(start)
			b.Run(fmt.Sprintf("rects=%d/%s", size, row.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := br.Publish(events[i%len(events)], nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(settle.Microseconds())/1e3, "settle-ms")
			})
			br.Close()
		}
	}
}

// BenchmarkRebuildBurst sizes the packing cost of a set-up: it
// subscribes the ledger's selective population — 100 k narrow
// subscriptions, no wildcard or half-open side (bench/workloads.go,
// selectiveConfig) — one subscription at a time into a broker of one
// part on one CPU, yielding after each as the ledger's set-up does, so
// every rebuild runs the moment it is due. An op is the whole burst up
// to a settled index. It reports, summed from the rebuild flight
// records, the rebuilds, the rectangles they packed and the packing
// time, so a change to the build can be sized without the ledger.
func BenchmarkRebuildBurst(b *testing.B) {
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = 100_000
	cfg.NameLengthMax = 1
	narrow := workload.PriceParams()
	narrow.Q0, narrow.Q1, narrow.Q2 = 0, 0, 0
	narrow.ParetoScale, narrow.ParetoAlpha = 0.25, 1.5
	cfg.Price, cfg.Volume = narrow, narrow
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rebuilds, rects, packNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := telemetry.NewRecorder(1024)
		br := newBroker(Options{DefaultBuffer: 1, Recorder: rec}, 1, 0, false)
		for _, s := range tb.Subs {
			if _, err := br.Subscribe(s.Rect); err != nil {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
		waitSettled(b, br)
		b.StopTimer()
		for _, r := range rec.SnapshotFilter(0, telemetry.KindRebuild, 0) {
			rebuilds++
			rects += r.Args[0]
			packNS += r.Args[2]
		}
		br.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/op")
	b.ReportMetric(float64(rects)/float64(b.N), "rects/op")
	b.ReportMetric(float64(packNS)/1e6/float64(b.N), "pack-ms/op")
}

// TestCancelOfBaseSubscriptionKeepsOverlay: a subscription that lives
// only in the packed base has no overlay entry to remove, so cancelling
// it leaves the overlay slice — backing array and length — as it was
// instead of copying it. Cancelling an overlay subscription still
// removes its entry.
func TestCancelOfBaseSubscriptionKeepsOverlay(t *testing.T) {
	b := New(Options{})
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
	overlay := func() []*Subscription {
		b.mu.RLock()
		defer b.mu.RUnlock()
		if b.overlay.boxes.Len() != len(b.overlay.subs) {
			t.Fatalf("the overlay's run holds %d boxes for %d entries", b.overlay.boxes.Len(), len(b.overlay.subs))
		}
		return b.overlay.subs
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

// TestNewRejectsNonSTreeMatcher checks that New refuses, with a panic
// naming Options.Matcher, every matcher option a rebuild would not
// pack: the four algorithms other than the S-tree, and tree options
// stree.Build refuses.
func TestNewRejectsNonSTreeMatcher(t *testing.T) {
	for _, tc := range []struct {
		opts match.Options
		want string
	}{
		{match.Options{Algorithm: match.AlgHilbertRTree}, "hilbert-rtree"},
		{match.Options{Algorithm: match.AlgBruteForce}, "brute-force"},
		{match.Options{Algorithm: match.AlgPredCount}, "pred-count"},
		{match.Options{Algorithm: match.AlgDynamicRTree}, "dynamic-rtree"},
		{match.Options{BranchFactor: 1}, "branch factor"},
		{match.Options{Skew: 0.7}, "skew"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Options.Matcher") || !strings.Contains(msg, tc.want) {
					t.Errorf("New with Matcher %+v panicked with %q, want it to name Options.Matcher and %q", tc.opts, msg, tc.want)
				}
			}()
			b := withMinOverlay(New(Options{Matcher: tc.opts}), 1)
			defer b.Close()
			for i := 0; i < 4; i++ {
				if _, err := b.Subscribe(geometry.NewRect(float64(i), float64(i)+2)); err != nil {
					t.Fatal(err)
				}
			}
			waitSettled(t, b)
			if n, err := b.Publish(geometry.Point{2.5}, nil); err != nil || n != 2 {
				t.Fatalf("publish delivered to %d (%v), want 2", n, err)
			}
		}()
	}
}

// TestForeignDimensionalityCostsItsOwnTree checks that subscriptions
// of other dimensionalities cost the rest nothing: on the stock
// population plus a 3-d subscription and one holding 2-d and 3-d
// rectangles, a traced 4-d publish walks the same nodes, tests the same
// entries and matches the same subscriptions as on the stock population
// alone; and each of the two receives exactly one event per 2-d or 3-d
// publication that hits any of its rectangles, two of which overlap.
func TestForeignDimensionalityCostsItsOwnTree(t *testing.T) {
	events, subs := stockPopulation(t, 2000)
	events = events[:64]
	foreign := []geometry.Rect{geometry.NewRect(0, 1e9, 0, 1e9, 0, 1e9)}
	twoDims := []geometry.Rect{
		geometry.NewRect(0, 10, 0, 10),
		geometry.NewRect(5, 15, 5, 15),
		geometry.NewRect(0, 10, 0, 10, 0, 10),
	}
	points := []geometry.Point{{2, 2}, {7, 7}, {12, 12}, {20, 20}, {5, 5, 5}, {5, 5, 15}, {12, 12, 12}, {5}}
	// open packs subs and the extra subscriptions into one base:
	// minOverlay makes the last rectangle trigger the one rebuild.
	open := func(extra ...[]geometry.Rect) (*Broker, *telemetry.Recorder, []*Subscription) {
		n := len(subs)
		for _, rs := range extra {
			n += len(rs)
		}
		rec := telemetry.NewRecorder(1 << 12)
		b := withMinOverlay(New(Options{Recorder: rec}), n-1)
		for _, s := range subs {
			if _, err := b.Subscribe(s.Rect); err != nil {
				t.Fatal(err)
			}
		}
		var xs []*Subscription
		for _, rs := range extra {
			x, err := b.SubscribeWith(SubscribeOptions{Buffer: len(points)}, rs...)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, x)
		}
		waitSettled(t, b)
		if st := b.ShardStats()[0]; st.BaseLen != n || st.OverlayLen != 0 {
			t.Fatalf("base holds %d rectangles and the overlay %d, want %d and 0", st.BaseLen, st.OverlayLen, n)
		}
		return b, rec, xs
	}
	// effort is the match record of a traced publish of p.
	effort := func(b *Broker, rec *telemetry.Recorder, p geometry.Point) [4]int64 {
		t.Helper()
		trace := telemetry.NewTraceID()
		if _, err := b.PublishTraced(p, nil, trace); err != nil {
			t.Fatal(err)
		}
		recs := rec.SnapshotFilter(trace, telemetry.KindMatch, 0)
		if len(recs) != 1 {
			t.Fatalf("%d match records for one traced publish", len(recs))
		}
		return recs[0].Args
	}
	alone, arec, _ := open()
	defer alone.Close()
	mixed, mrec, xs := open(foreign, twoDims)
	defer mixed.Close()
	var walked int64
	for i, p := range events {
		want, got := effort(alone, arec, p), effort(mixed, mrec, p)
		if got != want {
			t.Fatalf("event %d: match record %v beside 2-d and 3-d subscriptions, %v without (nodes, entries, leaves, matched)", i, got, want)
		}
		walked += want[0]
	}
	if walked == 0 {
		t.Fatal("no publish walked the 4-d tree")
	}

	for _, p := range points {
		if _, err := mixed.Publish(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	mixed.Close()
	for k, rects := range [][]geometry.Rect{foreign, twoDims} {
		var want, got []geometry.Point
		for _, p := range points {
			if slices.ContainsFunc(rects, func(r geometry.Rect) bool { return r.Contains(p) }) {
				want = append(want, p)
			}
		}
		for ev := range xs[k].Events() {
			got = append(got, ev.Point)
		}
		if !slices.EqualFunc(got, want, func(x, y geometry.Point) bool { return slices.Equal(x, y) }) {
			t.Fatalf("subscription of %v received %v, want %v", rects, got, want)
		}
	}
}

// TestPartPacksSlotOrderedEntries checks what a rebuild packs: one tree
// per dimensionality, in ascending dimensionality, each the S-tree
// stree.Build packs with the broker's tree options over that
// dimensionality's entries in slot order — the same shape, and the same
// ids and effort at every point of a grid.
func TestPartPacksSlotOrderedEntries(t *testing.T) {
	for _, dims := range [][]int{{2}, {3, 2}} {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			specs := make([][]geometry.Rect, 300)
			rects := 0
			for i := range specs {
				specs[i] = make([]geometry.Rect, 1+rng.Intn(3))
				for j := range specs[i] {
					specs[i][j] = modelRect(rng, dims[(i+j)%len(dims)])
				}
				rects += len(specs[i])
			}
			// The last rectangle triggers the one rebuild, of everything.
			tree := match.Options{BranchFactor: 5, Skew: 0.25}
			b := withMinOverlay(newBroker(Options{Matcher: tree}, 1, 0, false), rects-1)
			defer b.Close()
			for _, rs := range specs {
				if _, err := b.Subscribe(rs...); err != nil {
					t.Fatal(err)
				}
			}
			waitSettled(t, b)
			snap := b.snap.Load()
			if len(snap.base) != 1 || len(snap.overlay.subs) != 0 {
				t.Fatalf("%d parts and %d overlay rectangles, want 1 and 0", len(snap.base), len(snap.overlay.subs))
			}
			// One rebuild of subscriptions all in the overlay: slot i is
			// specs[i], its rectangles in the order it gave them.
			byDims := map[int][]stree.Entry{}
			for slot, rs := range specs {
				for _, r := range rs {
					byDims[r.Dims()] = append(byDims[r.Dims()], stree.Entry{Rect: r, ID: slot})
				}
			}
			order := slices.Clone(dims)
			slices.Sort(order)
			if len(snap.base[0]) != len(order) {
				t.Fatalf("the part packs %d trees for dimensionalities %v", len(snap.base[0]), order)
			}
			for k, d := range order {
				got := snap.base[0][k]
				want := stree.MustBuild(byDims[d], stree.Options{BranchFactor: tree.BranchFactor, Skew: tree.Skew})
				if dg, dw := match.Describe(got), match.Describe(want); dg != dw {
					t.Fatalf("the %d-d tree packs %+v, stree.Build %+v", d, dg, dw)
				}
				p := make(geometry.Point, d)
				var walk func(k int)
				walk = func(k int) {
					if k == d {
						ig, sg := got.MatchAppendStats(p, nil)
						iw, sw := want.MatchAppendStats(p, nil)
						if !slices.Equal(ig, iw) || sg != sw {
							t.Fatalf("the %d-d tree answers %v with %v %+v, stree.Build with %v %+v", d, p, ig, sg, iw, sw)
						}
						return
					}
					for x := 0.0; x <= 13; x += 0.5 {
						p[k] = x
						walk(k + 1)
					}
				}
				walk(0)
			}
		})
	}
}

// TestRepackMatchesSlotOrderedBuild runs a seeded Subscribe/Cancel
// sequence through the background rebuilder in rounds, and after each
// round lets the broker settle with every rectangle packed. A rebuild
// reads the rectangles back out of the old trees and the overlay, so
// each tree of each part must be the one stree.Build packs over the
// live slots' rectangles in slot order, as the test's own copies give
// them: the same shape, and the same ids and effort at every point of a
// grid. It runs on one part, on three, and with the part count changing
// as the population crosses the part threshold both ways. The leaves
// hand a multi-rectangle subscription's rectangles back in their own
// order, so in the multi-rectangle variant each slot must hold the
// multiset of rectangles it subscribed.
func TestRepackMatchesSlotOrderedBuild(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parts, partMin int
		multi          bool
	}{
		{"one-part", 1, 0, false},
		{"3-parts", 3, 0, false},
		{"3-parts-from-80", 3, 80, false},
		{"3-parts-from-160-multi", 3, 160, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := match.Options{BranchFactor: 5, Skew: 0.25}
			b := withMinOverlay(newBroker(Options{Matcher: tree}, tc.parts, tc.partMin, false), 4)
			defer b.Close()
			rng := rand.New(rand.NewSource(51))
			own := map[*Subscription][]geometry.Rect{}
			var live []*Subscription
			subscribe := func() {
				rs := make([]geometry.Rect, 1)
				if tc.multi {
					rs = make([]geometry.Rect, 1+rng.Intn(3))
				}
				for j := range rs {
					rs[j] = modelRect(rng, 2)
				}
				s, err := b.Subscribe(rs...)
				if err != nil {
					t.Fatal(err)
				}
				own[s] = rs
				live = append(live, s)
			}
			partCounts := map[int]bool{}
			for round := 0; round < 10; round++ {
				// Five rounds grow the population past the part threshold,
				// five shrink it below again.
				grow := round < 5
				for op := 0; op < 90; op++ {
					if len(live) == 0 || (rng.Intn(3) > 0) == grow {
						subscribe()
						continue
					}
					i := rng.Intn(len(live))
					live[i].Cancel()
					delete(own, live[i])
					live = slices.Delete(live, i, i+1)
				}
				// Subscribe, cancelling nothing, until a rebuild that
				// collected after the last cancel has packed everything.
				for {
					waitSettled(t, b)
					b.mu.RLock()
					packed := b.stale == 0 && len(b.overlay.subs) == 0
					b.mu.RUnlock()
					if packed {
						break
					}
					subscribe()
				}
				snap := b.snap.Load()
				n, parts := len(snap.slots), len(snap.base)
				partCounts[parts] = true
				for k, p := range snap.base {
					lo, hi := k*n/parts, (k+1)*n/parts
					if len(p) != 1 {
						t.Fatalf("round %d: part %d packs %d trees of 2-d rectangles", round, k, len(p))
					}
					if tc.multi {
						got := map[int][]string{}
						r := make(geometry.Rect, 2)
						for e := range p[0].Len() {
							slot := p[0].Entry(e, r)
							if slot < lo || slot >= hi {
								t.Fatalf("round %d: part %d of slots [%d, %d) holds slot %d", round, k, lo, hi, slot)
							}
							got[slot] = append(got[slot], fmt.Sprint(r))
						}
						for slot := lo; slot < hi; slot++ {
							var want []string
							for _, r := range own[snap.slots[slot].Load()] {
								want = append(want, fmt.Sprint(r))
							}
							slices.Sort(want)
							slices.Sort(got[slot])
							if !slices.Equal(got[slot], want) {
								t.Fatalf("round %d: slot %d holds %v, subscribed %v", round, slot, got[slot], want)
							}
						}
						continue
					}
					entries := make([]stree.Entry, 0, hi-lo)
					for slot := lo; slot < hi; slot++ {
						entries = append(entries, stree.Entry{Rect: own[snap.slots[slot].Load()][0], ID: slot})
					}
					want := stree.MustBuild(entries, stree.Options{BranchFactor: tree.BranchFactor, Skew: tree.Skew})
					if dg, dw := match.Describe(p[0]), match.Describe(want); dg != dw {
						t.Fatalf("round %d: part %d packs %+v, stree.Build %+v", round, k, dg, dw)
					}
					for x := 0.0; x <= 13; x += 0.5 {
						for y := 0.0; y <= 13; y += 0.5 {
							pt := geometry.Point{x, y}
							ig, sg := p[0].MatchAppendStats(pt, nil)
							iw, sw := want.MatchAppendStats(pt, nil)
							if !slices.Equal(ig, iw) || sg != sw {
								t.Fatalf("round %d: part %d answers %v with %v %+v, stree.Build with %v %+v", round, k, pt, ig, sg, iw, sw)
							}
						}
					}
				}
			}
			if r := b.Stats().IndexRebuilds; r < 5 {
				t.Fatalf("%d rebuilds, want at least 5", r)
			}
			if tc.partMin > 0 && !(partCounts[1] && partCounts[tc.parts]) {
				t.Fatalf("part counts seen %v, want 1 and %d", partCounts, tc.parts)
			}
		})
	}
}

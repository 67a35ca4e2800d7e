package broker

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// drainSink pops everything the sink holds, counting deliveries per
// subscription id.
func drainSink(k *Sink, got map[int]int) {
	var d Delivery
	for k.Next(&d) {
		for _, id := range d.IDs {
			got[id]++
		}
	}
}

// An element larger than the room left waits for an empty sink, where
// it is admitted whatever its size; Cancel hands the subscription's
// share of the capacity back.
func TestSinkAdmissionAndCapacityShares(t *testing.T) {
	br := New(Options{})
	defer br.Close()
	k := br.NewSink()
	var subs []*Subscription
	for i := 0; i < 3; i++ {
		s, err := br.SubscribeWith(SubscribeOptions{Buffer: 1 + i, Sink: k},
			geometry.NewRect(0, 10), geometry.NewRect(float64(20+10*i), float64(21+10*i)))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if st := subs[0].Stats(); st.Capacity != 1+2+3 {
		t.Fatalf("capacity = %d, want the sum of the buffers, 6", st.Capacity)
	}
	publish := func(x float64, want int) {
		t.Helper()
		if n, err := br.Publish(geometry.Point{x}, nil); err != nil || n != want {
			t.Fatalf("publish at %v delivered to %d (err %v), want %d", x, n, err, want)
		}
	}
	for i := 0; i < 4; i++ {
		publish(20.5, 1) // subscription 0 alone: four of six slots
	}
	publish(5, 0) // all three: 4+3 > 6, refused although 3 <= 6
	for _, s := range subs {
		if s.Dropped() != 1 {
			t.Fatalf("subscription %d dropped %d, want 1", s.ID(), s.Dropped())
		}
	}
	drainSink(k, map[int]int{})
	publish(5, 3)
	drainSink(k, map[int]int{})

	subs[2].Cancel()
	subs[1].Cancel()
	if st := subs[0].Stats(); st.Capacity != 1 {
		t.Fatalf("capacity after two cancels = %d, want subscription 0's own 1", st.Capacity)
	}
	// A publisher that matched before the cancels still holds all three:
	// larger than the whole sink now, and admitted because it is empty.
	ev := Event{Seq: 99}
	var pr eventPrep
	pr.reset(geometry.Point{5}, nil)
	if depth, _, res := k.tryPut(&ev, &pr, subs); res != putOK || depth != 3 {
		t.Fatalf("an oversized element into an empty sink: result %v depth %d, want admitted at 3", res, depth)
	}
	if _, _, res := k.tryPut(&ev, &pr, subs[:1]); res != putFull {
		t.Fatalf("one more delivery beside it: result %v, want full", res)
	}
	k.Close()
	if _, _, res := k.tryPut(&ev, &pr, subs[:1]); res != putClosed {
		t.Fatalf("into a closed sink: result %v, want closed", res)
	}
	if _, err := br.SubscribeWith(SubscribeOptions{Sink: k}, geometry.NewRect(0, 1)); err == nil {
		t.Fatal("subscribed on a closed sink")
	}
	var d Delivery
	if !k.Next(&d) || len(d.IDs) != 3 || k.Next(&d) {
		t.Fatalf("a closed sink must still hand out what it holds, got %+v", d)
	}
	if _, err := New(Options{}).SubscribeWith(SubscribeOptions{Sink: br.NewSink()}, geometry.NewRect(0, 1)); err == nil {
		t.Fatal("subscribed on another broker's sink")
	}
}

// Lag, the slow flag and LagReport mean on a sink what they mean on a
// channel: per subscription, behind the broker head.
func TestSinkLagAndSlowDetection(t *testing.T) {
	br := New(Options{SlowLagThreshold: 3})
	defer br.Close()
	k := br.NewSink()
	s, err := br.SubscribeWith(SubscribeOptions{Buffer: 1, Sink: k}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := br.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := br.LagReport()
	if len(rep.Subs) != 1 || rep.SlowSubs != 1 {
		t.Fatalf("lag report %+v, want one slow subscription", rep)
	}
	if sl := rep.Subs[0]; !sl.Slow || sl.DeliveredSeq != 1 || sl.LagEvents != 4 || sl.Dropped != 4 || sl.Buffered != 1 || sl.Capacity != 1 {
		t.Fatalf("subscription lag %+v, want slow at seq 1, 4 behind, 4 dropped, 1 of 1 buffered", sl)
	}
	var d Delivery
	if !k.Next(&d) || d.Event.Seq != 1 {
		t.Fatalf("the sink kept %+v, want the first publication (drop-newest)", d)
	}
	if n, err := br.Publish(geometry.Point{5}, nil); err != nil || n != 1 {
		t.Fatalf("publish after the consumer caught up: n=%d err=%v", n, err)
	}
	if rep := br.LagReport(); rep.SlowSubs != 0 || rep.Subs[0].Slow || rep.Subs[0].LagEvents != 0 {
		t.Fatalf("after a delivery the report still says %+v", rep)
	}
	if s.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", s.Dropped())
	}
}

// The decision record says multicast when a sink took the publication
// as one element for several subscriptions, with |s| and |S_q|; one
// subscription on a sink, or channels, is unicast as ever.
func TestSinkDecisionRecord(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	br := New(Options{Recorder: rec})
	defer br.Close()
	k := br.NewSink()
	for _, r := range []geometry.Rect{geometry.NewRect(0, 10), geometry.NewRect(0, 10), geometry.NewRect(0, 2)} {
		if _, err := br.SubscribeWith(SubscribeOptions{Sink: k}, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := br.Subscribe(geometry.NewRect(0, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x                         float64
		method, interested, group int64
	}{
		{5, 2, 2, 3}, // two of the sink's three
		{1, 2, 3, 3}, // all three, and the channel subscription beside them
		{50, 0, 0, 4},
	} {
		trace := telemetry.NewTraceID()
		if _, err := br.PublishTraced(geometry.Point{tc.x}, nil, trace); err != nil {
			t.Fatal(err)
		}
		dec := rec.SnapshotFilter(trace, telemetry.KindDecision, 0)
		if len(dec) != 1 {
			t.Fatalf("publish at %v: %d decision records, want 1", tc.x, len(dec))
		}
		want := [4]int64{tc.method, tc.interested, tc.group, 0}
		if tc.group > 0 {
			want[3] = tc.interested * 1_000_000 / tc.group
		}
		if dec[0].Args != want {
			t.Fatalf("publish at %v: decision %v, want method/interested/group/ratio %v", tc.x, dec[0].Args, want)
		}
	}
}

// The decision record's group counts live rectangles, not base slots:
// cancelling a subscription already packed into the base drops the group
// by its rectangles while they sit stale in the base, and the rebuild
// that prunes them leaves it unchanged. The rebuilder goroutine is never
// started (rebuilding is set first); the test runs rebuild itself.
func TestSinkDecisionRecordStaleBase(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	br := withMinOverlay(New(Options{Recorder: rec}), 1)
	defer br.Close()
	br.mu.Lock()
	br.rebuilding = true
	br.mu.Unlock()
	wide, err := br.Subscribe(geometry.NewRect(0, 1), geometry.NewRect(2, 3), geometry.NewRect(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geometry.Rect{geometry.NewRect(0, 10), geometry.NewRect(20, 30)} {
		if _, err := br.Subscribe(r); err != nil {
			t.Fatal(err)
		}
	}
	br.rebuild()
	step := func(when string, group int64, stale int) {
		t.Helper()
		trace := telemetry.NewTraceID()
		if _, err := br.PublishTraced(geometry.Point{7}, nil, trace); err != nil {
			t.Fatal(err)
		}
		dec := rec.SnapshotFilter(trace, telemetry.KindDecision, 0)
		if len(dec) != 1 {
			t.Fatalf("%s: %d decision records, want 1", when, len(dec))
		}
		want := [4]int64{1, 1, group, 1_000_000 / group}
		if dec[0].Args != want {
			t.Fatalf("%s: decision %v, want method/interested/group/ratio %v", when, dec[0].Args, want)
		}
		br.mu.RLock()
		gotStale, baseLen := br.stale, br.baseLen
		br.mu.RUnlock()
		if gotStale != stale || baseLen == 0 {
			t.Fatalf("%s: %d stale of a base of %d, want %d stale in a packed base", when, gotStale, baseLen, stale)
		}
	}
	step("five rectangles packed", 5, 0)
	wide.Cancel()
	step("three of five stale", 2, 3)
	br.rebuild()
	step("stale slots pruned", 2, 0)
	if n := br.Stats().IndexRebuilds; n != 2 {
		t.Fatalf("%d rebuilds, want 2", n)
	}
}

// Elements of one publication queued back to back — one per goroutine
// that matched it — come out of Next as one delivery; another
// publication's do not join them.
func TestSinkNextMergesOnePublication(t *testing.T) {
	br := New(Options{})
	defer br.Close()
	k := br.NewSink()
	var subs []*Subscription
	for i := 0; i < 4; i++ {
		s, err := br.SubscribeWith(SubscribeOptions{Sink: k}, geometry.NewRect(0, 10))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	var pr eventPrep
	pr.reset(geometry.Point{5}, nil)
	put := func(seq, trace uint64, subs ...*Subscription) {
		t.Helper()
		ev := Event{Seq: seq, TraceID: trace}
		if _, _, res := k.tryPut(&ev, &pr, subs); res != putOK {
			t.Fatalf("put of seq %d: %v", seq, res)
		}
	}
	put(1, 7, subs[0], subs[1])
	put(1, 7, subs[2])
	put(2, 7, subs[3])
	put(2, 8, subs[0])
	want := [][]int{{0, 1, 2}, {3}, {0}}
	var d Delivery
	for i, ids := range want {
		if !k.Next(&d) || fmt.Sprint(d.IDs) != fmt.Sprint(ids) {
			t.Fatalf("delivery %d lists %v, want %v", i, d.IDs, ids)
		}
	}
	if k.Next(&d) {
		t.Fatalf("a fourth delivery: %+v", d)
	}
	if st := subs[0].Stats(); st.Buffered != 0 {
		t.Fatalf("an emptied sink counts %d deliveries", st.Buffered)
	}
}

// With the overflow policy and block timeout the broker's, not each
// subscription's, and its rectangles kept only in the index, a
// subscription fits the 128-byte size class.
func TestSubscriptionStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Subscription{}); size > 128 {
		t.Fatalf("Subscription is %d bytes, past the 128-byte size class", size)
	}
}

// sinkFanout builds br's population: targets subscriptions matching the
// point 5 dealt onto sinks sinks (and as many non-matching ones beside
// them). It waits for the index to settle and returns a
// publish-then-drain step.
func sinkFanout(tb testing.TB, br *Broker, targets, sinks int) (step func(), done func()) {
	ks := make([]*Sink, sinks)
	for i := range ks {
		ks[i] = br.NewSink()
	}
	for i := 0; i < 2*targets; i++ {
		r := geometry.NewRect(0, 10)
		if i%2 == 1 {
			r = geometry.NewRect(20, 30)
		}
		if _, err := br.SubscribeWith(SubscribeOptions{Sink: ks[(i/2)%sinks]}, r); err != nil {
			tb.Fatal(err)
		}
	}
	waitSettled(tb, br)
	p, payload := geometry.Point{5}, make([]byte, 128)
	var d Delivery
	return func() {
		if n, err := br.Publish(p, payload); err != nil || n != targets {
			tb.Fatalf("publish: n=%d err=%v, want %d", n, err, targets)
		}
		for _, k := range ks {
			for k.Next(&d) {
			}
		}
	}, br.Close
}

// BenchmarkSinkFanout is the publish path into sinks with the consumer's
// pop, no wire behind it: 32 subscriptions of one sink; 140 targets
// dealt onto 100 sinks, where grouping must stay O(targets) and the 100
// puts and pops are the cost; and the same 140 on one sink for scale.
func BenchmarkSinkFanout(b *testing.B) {
	for _, shape := range []struct{ targets, sinks int }{{32, 1}, {140, 100}, {140, 1}} {
		b.Run(fmt.Sprintf("%d-on-%d", shape.targets, shape.sinks), func(b *testing.B) {
			step, done := sinkFanout(b, New(Options{}), shape.targets, shape.sinks)
			defer done()
			step() // rings, id lists and the scratch reach their working size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

func TestSinkFanoutAllocatesOnlyThePublication(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shape := range []struct{ targets, sinks int }{{32, 1}, {140, 100}} {
		for _, a := range arrangements {
			// minOverlay 4 packs the base, in parts where the arrangement
			// has them, whatever the population.
			step, done := sinkFanout(t, withMinOverlay(a.open(Options{}), 4), shape.targets, shape.sinks)
			step()
			// The point and the payload are cloned once per publication,
			// as on the channel path; grouping, the elements and their id
			// lists cost nothing.
			if allocs := testing.AllocsPerRun(200, step); allocs != 2 {
				t.Errorf("%s, %d targets on %d sinks: %.1f allocs per publish, want the 2 clones", a.name, shape.targets, shape.sinks, allocs)
			}
			done()
		}
	}
}

package broker

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geometry"
	"repro/internal/telemetry"
)

// manualRebuilds opens a broker whose rebuilder never starts, so the
// base changes only when the test calls rebuild (or collect and build).
func manualRebuilds(t *testing.T, opts Options, parts int) *Broker {
	t.Helper()
	b := newBroker(opts, parts, 0, false)
	t.Cleanup(b.Close)
	b.mu.Lock()
	b.rebuilderOn = true
	b.mu.Unlock()
	return b
}

// A cancelled subscription whose rectangles stay stale in the packed
// base is unreachable at once: the base's slot table keeps a tombstone,
// not the subscription, so the next GC frees it with no rebuild.
func TestCancelFreesBaseSubscription(t *testing.T) {
	b := withMinOverlay(manualRebuilds(t, Options{}, 1), 1)
	if _, err := b.Subscribe(geometry.NewRect(20, 30)); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		s, err := b.Subscribe(geometry.NewRect(0, 10))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(s, func(*Subscription) { close(freed) })
		b.rebuild()
		if !inBase(s) {
			t.Fatal("the subscription is not in the packed base")
		}
		s.Cancel()
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			if n := b.Stats().IndexRebuilds; n != 1 {
				t.Fatalf("%d rebuilds, want only the one before the cancel", n)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a cancelled base subscription is still reachable after 10 GCs")
}

// Cancelling base subscriptions hands their queues back to the heap
// before any rebuild: 1 000 queues of 64 events each.
func TestCancelReleasesBaseQueues(t *testing.T) {
	const subs, buffer = 1000, 64
	b := withMinOverlay(manualRebuilds(t, Options{}, 1), 1)
	victims := make([]*Subscription, subs)
	for i := range victims {
		var err error
		if victims[i], err = b.SubscribeWith(SubscribeOptions{Buffer: buffer}, geometry.NewRect(float64(i), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	b.rebuild()
	if st := b.ShardStats()[0]; st.BaseLen != subs || st.OverlayLen != 0 {
		t.Fatalf("base %d, overlay %d after the rebuild, want %d in the base", st.BaseLen, st.OverlayLen, subs)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, s := range victims {
		s.Cancel()
	}
	victims = nil
	after := heap()
	want := uint64(subs*buffer*unsafe.Sizeof(Event{})) * 8 / 10
	if after > before || before-after < want {
		t.Fatalf("the heap went from %d B to %d B on cancelling %d base subscriptions, want it at least %d B lower",
			before, after, subs, want)
	}
	if st := b.ShardStats()[0]; st.Stale != subs || st.Rebuilds != 1 {
		t.Fatalf("%d stale after %d rebuilds, want %d stale and no rebuild since", st.Stale, st.Rebuilds, subs)
	}
}

// A publication that matches only a stale rectangle reaches nobody and
// books no target: its trace records fan-out 0.
func TestStaleMatchCountsNoTarget(t *testing.T) {
	rec := telemetry.NewRecorder(1024)
	b := withMinOverlay(manualRebuilds(t, Options{Recorder: rec}, 1), 1)
	gone, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(geometry.NewRect(20, 30)); err != nil {
		t.Fatal(err)
	}
	b.rebuild()
	gone.Cancel()

	trace := telemetry.NewTraceID()
	n, err := b.PublishTraced(geometry.Point{5}, nil, trace)
	if err != nil || n != 0 {
		t.Fatalf("publish at the cancelled subscription's point delivered %d (%v), want 0", n, err)
	}
	match := rec.SnapshotFilter(trace, telemetry.KindMatch, 0)
	if len(match) != 1 || match[0].Args[1] == 0 || match[0].Args[3] != 0 {
		t.Fatalf("match records %+v, want one that tested the stale entry and matched 0", match)
	}
	pub := rec.SnapshotFilter(trace, telemetry.KindPublish, 0)
	if len(pub) != 1 || pub[0].Args[0] != 0 || pub[0].Args[1] != 0 {
		t.Fatalf("publish records %+v, want one with fan-out 0 and 0 delivered", pub)
	}
	if st := b.ShardStats()[0]; st.Stale != 1 {
		t.Fatalf("%d stale rectangles, want the cancelled one", st.Stale)
	}
}

// A subscription cancelled between a rebuild's collect and its install
// — from the base or from the overlay — is packed, but its slot in the
// installed table is a tombstone; every other slot holds its live
// subscription, which knows the slot. A publisher runs throughout.
func TestCancelDuringRebuildIsNotInstalled(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			b := withMinOverlay(manualRebuilds(t, Options{}, parts), 1)
			subscribe := func(i int) *Subscription {
				s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1)))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			var subs []*Subscription
			for i := 0; i < 40; i++ {
				subs = append(subs, subscribe(i))
			}
			b.rebuild()
			for i := 40; i < 60; i++ {
				subs = append(subs, subscribe(i))
			}
			fromBase, fromOverlay := subs[3], subs[45]
			if !inBase(fromBase) || inBase(fromOverlay) {
				t.Fatal("the victims are not one in the base and one in the overlay")
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := b.Publish(geometry.Point{float64(i%60) + 0.5}, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			job := b.collect()
			if job == nil || len(job.slots) != len(subs) {
				t.Fatal("the rebuild collected nothing, or not every subscription")
			}
			var cancels sync.WaitGroup
			for _, s := range []*Subscription{fromBase, fromOverlay} {
				cancels.Add(1)
				go func() {
					defer cancels.Done()
					s.Cancel()
				}()
			}
			cancels.Wait()
			b.build(job)
			close(stop)
			wg.Wait()

			b.mu.RLock()
			defer b.mu.RUnlock()
			if len(b.slots) != len(subs) {
				t.Fatalf("%d slots installed, want %d", len(b.slots), len(subs))
			}
			tombstones := 0
			for i := range b.slots {
				s := b.slots[i].Load()
				switch {
				case s == nil:
					tombstones++
				case s == fromBase || s == fromOverlay:
					t.Fatalf("slot %d holds cancelled subscription %d", i, s.id)
				case b.subs[s.id] != s || int(s.slot) != i:
					t.Fatalf("slot %d holds subscription %d, live %t, which names slot %d", i, s.id, b.subs[s.id] == s, s.slot)
				}
			}
			if tombstones != 2 || b.stale != 2 || len(b.overlay.subs) != 0 {
				t.Fatalf("%d tombstones, %d stale, overlay %d; want 2, 2 and 0", tombstones, b.stale, len(b.overlay.subs))
			}
		})
	}
}

// TestCancelEitherSideOfTheCut cancels, inside a rebuild window, a
// subscription from before the installed base's cut, one the window
// collected from the overlay and one subscribed after the collection.
// Cancel tells base from overlay by the id alone: the first becomes a
// tombstone in the base's slot table and stale, the other two leave the
// overlay, and only the first two are stale in the base the window
// installs, which keeps the third's successors in its overlay.
func TestCancelEitherSideOfTheCut(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			b := withMinOverlay(manualRebuilds(t, Options{}, parts), 1)
			subscribe := func(i int) *Subscription {
				s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1)))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			var subs []*Subscription
			for i := 0; i < 40; i++ {
				subs = append(subs, subscribe(i))
			}
			b.rebuild()
			for i := 40; i < 60; i++ {
				subs = append(subs, subscribe(i))
			}
			fromBase, collected := subs[3], subs[45]
			job := b.collect()
			if job == nil || job.cut != 60 {
				t.Fatal("the rebuild did not collect the first 60 subscriptions")
			}
			var late []*Subscription
			for i := 60; i < 64; i++ {
				late = append(late, subscribe(i))
			}
			afterCut := late[1]
			overlayHas := func(s *Subscription) bool {
				b.mu.RLock()
				defer b.mu.RUnlock()
				return slices.Contains(b.overlay.subs, s)
			}
			if overlayHas(fromBase) || !overlayHas(collected) || !overlayHas(afterCut) {
				t.Fatal("the victims are not one in the base and two in the overlay")
			}

			fromBase.Cancel()
			collected.Cancel()
			afterCut.Cancel()
			b.mu.RLock()
			stale, pending, overlayLen := b.stale, b.pendingStale, len(b.overlay.subs)
			b.mu.RUnlock()
			if stale != 1 || pending != 2 || overlayLen != 20-1+4-1 {
				t.Fatalf("stale %d, pending %d, overlay %d; want 1, 2 and 22", stale, pending, overlayLen)
			}
			for _, s := range []*Subscription{fromBase, collected, afterCut} {
				if overlayHas(s) {
					t.Fatalf("cancelled subscription %d is still in the overlay", s.id)
				}
				if n, err := b.Publish(geometry.Point{float64(s.id) + 0.5}, nil); err != nil || n != 0 {
					t.Fatalf("a publication inside cancelled subscription %d reached %d (%v)", s.id, n, err)
				}
			}

			b.build(job)
			b.mu.RLock()
			stale, overlayLen = b.stale, len(b.overlay.subs)
			b.mu.RUnlock()
			if stale != 2 || overlayLen != 3 {
				t.Fatalf("after the install: stale %d, overlay %d; want 2 and 3", stale, overlayLen)
			}
			for _, s := range []*Subscription{late[0], late[2], late[3]} {
				if !overlayHas(s) {
					t.Fatalf("subscription %d, made after the cut, left the overlay", s.id)
				}
				if n, err := b.Publish(geometry.Point{float64(s.id) + 0.5}, nil); err != nil || n != 1 {
					t.Fatalf("a publication inside subscription %d reached %d (%v), want 1", s.id, n, err)
				}
			}
			// The next cancel of a late subscription still finds it by id.
			late[3].Cancel()
			if overlayHas(late[3]) {
				t.Fatal("a subscription made after the installed cut stayed in the overlay once cancelled")
			}
		})
	}
}

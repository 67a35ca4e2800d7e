package broker

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/geometry"
	"repro/internal/workload"
)

// waitGoroutines polls until the live goroutine count drops back to at
// most want, failing the test if it does not within the deadline. Used
// to catch leaked rebuilder or consumer goroutines after Close.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPublishObservesAtomicSnapshot checks the core snapshot guarantee:
// a multi-rectangle subscription is delivered to exactly once per
// matching publication — never twice (base and overlay both holding it
// mid-rebuild) and never zero times while live — and exactly zero times
// once Cancel has returned, all while background churn forces rebuilds.
func TestPublishObservesAtomicSnapshot(t *testing.T) {
	b := New(Options{MinOverlay: 4})
	defer b.Close()

	p := geometry.Point{50}
	// Both rectangles contain p: dedup must collapse them to one delivery.
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 8},
		geometry.NewRect(40, 60), geometry.NewRect(45, 55))
	if err != nil {
		t.Fatal(err)
	}

	// Churn on a disjoint region to drive overlay growth, rebuilds and
	// stale-fraction rebuilds concurrently with the publishes below.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(7))
		var live []*Subscription
		for {
			select {
			case <-stop:
				for _, c := range live {
					c.Cancel()
				}
				return
			default:
			}
			lo := 100 + rng.Float64()*50
			c, err := b.Subscribe(geometry.NewRect(lo, lo+1))
			if err != nil {
				return
			}
			live = append(live, c)
			if len(live) > 20 {
				live[0].Cancel()
				live = live[1:]
			}
		}
	}()

	for i := 0; i < 2000; i++ {
		n, err := b.Publish(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("publish %d delivered %d times, want exactly 1 (rebuilds=%d)",
				i, n, b.Stats().IndexRebuilds)
		}
		<-s.Events()
	}

	s.Cancel()
	for i := 0; i < 100; i++ {
		n, err := b.Publish(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("delivered %d after Cancel returned, want 0", n)
		}
	}
	close(stop)
	churn.Wait()
}

// TestConcurrentPublishChurnStress hammers the broker with concurrent
// publishers, subscribe/cancel churn (including multi-rect subscriptions)
// and Stats readers, then closes it mid-flight. Run under -race it
// exercises the lock-free snapshot path against every mutation path; the
// goroutine check catches a rebuilder that outlives Close.
func TestConcurrentPublishChurnStress(t *testing.T) {
	before := runtime.NumGoroutine()
	b := New(Options{MinOverlay: 4, DefaultBuffer: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var published atomic.Uint64

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := b.Publish(geometry.Point{rng.Float64() * 100}, []byte("x"))
				if err != nil {
					if errors.Is(err, errClosed) {
						return
					}
					t.Error(err)
					return
				}
				published.Add(1)
			}
		}(int64(g))
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rects := []geometry.Rect{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					lo := rng.Float64() * 99
					rects = append(rects, geometry.NewRect(lo, lo+1))
				}
				s, err := b.Subscribe(rects...)
				if err != nil {
					return // broker closed
				}
				if rng.Intn(2) == 0 {
					s.Cancel()
				}
			}
		}(int64(g))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := b.Stats()
			if st.Rectangles < 0 {
				t.Errorf("negative rectangle count: %+v", st)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	b.Close() // close while publishers and churners are still running
	close(stop)
	wg.Wait()

	if published.Load() == 0 {
		t.Error("no publications went through during the stress window")
	}
	waitGoroutines(t, before)
}

// TestCloseDuringRebuild closes the broker immediately after a subscribe
// burst large enough to have a rebuild in flight; the rebuilder must not
// resurrect state or leak after Close.
func TestCloseDuringRebuild(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		b := New(Options{MinOverlay: 4})
		for i := 0; i < 300; i++ {
			lo := float64(i % 100)
			if _, err := b.Subscribe(geometry.NewRect(lo, lo+2)); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		if _, err := b.Publish(geometry.Point{50}, nil); !errors.Is(err, errClosed) {
			t.Fatalf("publish after close: err = %v, want errClosed", err)
		}
		if _, err := b.Subscribe(geometry.NewRect(0, 1)); !errors.Is(err, errClosed) {
			t.Fatalf("subscribe after close: err = %v, want errClosed", err)
		}
	}
	waitGoroutines(t, before)
}

// TestPublishZeroAllocSteadyState locks in the publish path's contract:
// with telemetry disabled, a steady-state publish (index rebuilt, scratch
// pools warm, all DropNewest buffers saturated) performs zero heap
// allocations, even with a payload attached — the clone is deferred until
// a send actually happens. It runs on four populations: 100 identical
// 1-D rectangles; the paper's 1 000-subscription stock testbed (4-D, a
// multi-level S-tree) under the stock publication model, in one part and
// in four parts offered to the part workers; 1 001 stock subscriptions
// packed into the base with 1 000 more left in the overlay; and 1 000
// stock subscriptions that each carry a second stock rectangle, so every
// publish deduplicates its targets.
func TestPublishZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	t.Run("narrow", func(t *testing.T) {
		rects := make([]geometry.Rect, 100)
		for i := range rects {
			rects[i] = geometry.NewRect(40, 60)
		}
		assertPublishZeroAlloc(t, New(Options{MinOverlay: 4}), rects, nil, []geometry.Point{{50}}, 1)
	})
	stock := func(t *testing.T, n int) ([]geometry.Rect, []geometry.Point) {
		cfg := workload.DefaultSubscriptionConfig()
		cfg.Count = n
		tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		rects := make([]geometry.Rect, len(tb.Subs))
		for i, s := range tb.Subs {
			rects[i] = s.Rect
		}
		model := workload.MustStockPublications(9)
		rng := rand.New(rand.NewSource(5))
		points := make([]geometry.Point, 1024)
		for i := range points {
			points[i] = model.Sample(rng)
		}
		return rects, points
	}
	t.Run("stock", func(t *testing.T) {
		rects, points := stock(t, 1000)
		assertPublishZeroAlloc(t, New(Options{}), rects, nil, points, 1)
	})
	t.Run("stock-parts-workers", func(t *testing.T) {
		rects, points := stock(t, 1000)
		assertPublishZeroAlloc(t, newBroker(Options{}, 4, 0, true), rects, nil, points, 1)
	})
	t.Run("stock-overlay", func(t *testing.T) {
		// The first rebuild comes due at the 1 001st rectangle; 1 000
		// more stay under MinOverlay, so the overlay keeps them.
		rects, points := stock(t, 2001)
		assertPublishZeroAlloc(t, New(Options{MinOverlay: 1000}), rects[:1001], rects[1001:], points, 1)
	})
	t.Run("multi-rect", func(t *testing.T) {
		rects, points := stock(t, 2000)
		assertPublishZeroAlloc(t, New(Options{}), rects, nil, points, 2)
	})
}

// assertPublishZeroAlloc subscribes base to b, which it closes, as
// Buffer-1 subscriptions of per consecutive rectangles each, waits until
// the background rebuilds have settled, subscribes overlay the same way
// and checks that the overlay holds it, publishes every point once so
// each subscription any of them reaches is saturated, and then requires
// that cycling through the points again allocates nothing.
func assertPublishZeroAlloc(t *testing.T, b *Broker, base, overlay []geometry.Rect, points []geometry.Point, per int) {
	t.Helper()
	defer b.Close()
	subscribe := func(rects []geometry.Rect) {
		for i := 0; i < len(rects); i += per {
			if _, err := b.SubscribeWith(SubscribeOptions{Buffer: 1}, rects[i:i+per]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	subscribe(base)
	waitRebuilds(t, b, 1)
	waitSettled(t, b)
	subscribe(overlay)
	waitSettled(t, b)
	if got := b.IndexReport().OverlayLen; got < len(overlay) {
		t.Fatalf("the overlay holds %d rectangles, want at least %d", got, len(overlay))
	}
	payload := []byte("tick")
	// Saturate every reachable buffer; from here on DropNewest fast-drops
	// without materializing the event.
	matched := 0
	for _, p := range points {
		n, err := b.Publish(p, payload)
		if err != nil {
			t.Fatal(err)
		}
		matched += n
	}
	if matched == 0 {
		t.Fatal("fill publishes matched no subscription")
	}
	next := 0
	allocs := testing.AllocsPerRun(len(points)+200, func() {
		if _, err := b.Publish(points[next%len(points)], payload); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("steady-state Publish allocates %.2f times per op, want 0", allocs)
	}
}

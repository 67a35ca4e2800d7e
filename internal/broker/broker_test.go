package broker

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/wal"
)

// waitRebuilds blocks until the broker's rebuild counter reaches n or a
// deadline passes. Index rebuilds run on a background goroutine, so tests
// that depend on a folded base index must wait for the swap.
func waitRebuilds(t *testing.T, b *Broker, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().IndexRebuilds < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d index rebuilds (have %d)", n, b.Stats().IndexRebuilds)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.Subscribe(); err == nil {
		t.Error("no rectangles accepted")
	}
	if _, err := b.Subscribe(geometry.NewRect(5, 5)); err == nil {
		t.Error("empty rectangle accepted")
	}
	_, err := b.SubscribeWith(SubscribeOptions{Buffer: -1}, geometry.NewRect(0, 1))
	if err == nil || !strings.Contains(err.Error(), ">= 0") {
		t.Errorf("negative buffer: err %v, want one asking for >= 0", err)
	}
}

// A rectangle with more dimensions than a publication's point may have
// in the durable log is refused at registration, as the point is at
// publish.
func TestSubscribeRefusesTooManyDimensions(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	wide := make(geometry.Rect, wal.MaxPointDims+1)
	for i := range wide {
		wide[i] = geometry.NewInterval(0, 1)
	}
	if _, err := b.Subscribe(geometry.NewRect(0, 1), wide); err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("a %d-dimensional rectangle: %v, want a dimension-bound error", len(wide), err)
	}
	if _, err := b.Subscribe(wide[:wal.MaxPointDims]); err != nil {
		t.Fatalf("a %d-dimensional rectangle: %v", wal.MaxPointDims, err)
	}
	if st := b.Stats(); st.Subscriptions != 1 {
		t.Fatalf("%d subscriptions, want only the one within the bound", st.Subscriptions)
	}
}

func TestPublishDeliversToMatching(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	low, err := b.Subscribe(geometry.NewRect(0, 10, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	high, err := b.Subscribe(geometry.NewRect(50, 60, 50, 60))
	if err != nil {
		t.Fatal(err)
	}

	n, err := b.Publish(geometry.Point{5, 5}, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered to %d, want 1", n)
	}
	select {
	case ev := <-low.Events():
		if string(ev.Payload) != "hello" || ev.Seq == 0 {
			t.Errorf("event = %+v", ev)
		}
		if len(ev.Point) != 2 || ev.Point[0] != 5 || ev.Point[1] != 5 {
			t.Errorf("point = %v", ev.Point)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
	select {
	case ev := <-high.Events():
		t.Fatalf("wrong subscriber got %+v", ev)
	default:
	}
}

func TestMultipleRectanglesDeliverOnce(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.Subscribe(
		geometry.NewRect(0, 10),
		geometry.NewRect(5, 15), // overlaps; event at 7 matches both
	)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish(geometry.Point{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (deduplicated)", n)
	}
	<-s.Events()
	select {
	case ev := <-s.Events():
		t.Fatalf("duplicate delivery %+v", ev)
	default:
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	s.Cancel() // idempotent
	if n, err := b.Publish(geometry.Point{5}, nil); err != nil || n != 0 {
		t.Fatalf("delivered %d after cancel (err %v)", n, err)
	}
	// Channel must be closed.
	if _, open := <-s.Events(); open {
		t.Error("channel still open after Cancel")
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	s, err := b.SubscribeWith(SubscribeOptions{Buffer: 2}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	st := b.Stats()
	if st.Dropped != 3 || st.Delivered != 2 || st.Published != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIndexRebuildKeepsMatchingCorrect(t *testing.T) {
	b := withMinOverlay(New(Options{Matcher: match.Options{Algorithm: match.AlgSTree, BranchFactor: 4}}), 8)
	defer b.Close()
	rng := rand.New(rand.NewSource(1))
	type reg struct {
		sub  *Subscription
		rect geometry.Rect
	}
	var regs []reg
	for i := 0; i < 200; i++ {
		lo := rng.Float64() * 90
		r := geometry.NewRect(lo, lo+10)
		s, err := b.Subscribe(r)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{sub: s, rect: r})
	}
	waitRebuilds(t, b, 1)
	// Cancel a third of them.
	for i := 0; i < len(regs); i += 3 {
		regs[i].sub.Cancel()
	}
	// Verify delivery counts against predicate evaluation.
	for trial := 0; trial < 100; trial++ {
		p := geometry.Point{rng.Float64() * 100}
		want := 0
		for i, r := range regs {
			if i%3 == 0 {
				continue // cancelled
			}
			if r.rect.Contains(p) {
				want++
			}
		}
		got, err := b.Publish(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Publish(%v) delivered %d, want %d", p, got, want)
		}
		// Drain so buffers don't fill.
		for i, r := range regs {
			if i%3 == 0 {
				continue
			}
			if r.rect.Contains(p) {
				<-r.sub.Events()
			}
		}
	}
}

// waitSettled blocks until no rebuilder is running and none is due, so
// what a test does next is what triggers the next rebuild.
func waitSettled(t testing.TB, b *Broker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.RLock()
		settled := !b.rebuilding && !b.rebuildDueLocked()
		b.mu.RUnlock()
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the rebuilder to settle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStaleRebuildOnCancels: once settled, the base holds at least the
// first 40 subscriptions, and cancelling them makes it mostly stale.
func TestStaleRebuildOnCancels(t *testing.T) {
	b := withMinOverlay(New(Options{}), 4)
	defer b.Close()
	var subs []*Subscription
	for i := 0; i < 50; i++ {
		s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	waitSettled(t, b)
	before := b.Stats()
	for _, s := range subs[:40] {
		s.Cancel()
	}
	// The live-rectangle accounting is exact immediately, even while the
	// background rebuild is still in flight.
	after := b.Stats()
	if after.Subscriptions != 10 || after.Rectangles != 10 {
		t.Errorf("stats after cancels = %+v", after)
	}
	waitRebuilds(t, b, before.IndexRebuilds+1)
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	b := New(Options{})
	s, err := b.Subscribe(geometry.NewRect(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close()
	if _, open := <-s.Events(); open {
		t.Error("channel open after Close")
	}
	if _, err := b.Publish(geometry.Point{0.5}, nil); err == nil {
		t.Error("Publish after Close succeeded")
	}
	if _, err := b.Subscribe(geometry.NewRect(0, 1)); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
	s.Cancel() // must not panic on closed broker
}

func TestSubscriptionRectsAreCopies(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	orig := geometry.NewRect(0, 10)
	if _, err := b.Subscribe(orig); err != nil {
		t.Fatal(err)
	}
	orig[0].Hi = 99999 // caller mutates after registering
	if n, _ := b.Publish(geometry.Point{500}, nil); n != 0 {
		t.Error("broker aliased the caller's rectangle")
	}
}

func TestConcurrentPubSub(t *testing.T) {
	b := withMinOverlay(New(Options{DefaultBuffer: 1024}), 16)
	defer b.Close()

	const (
		publishers  = 4
		subscribers = 8
		events      = 200
	)
	var wg sync.WaitGroup
	errCh := make(chan error, publishers+subscribers)

	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := float64(i * 10)
			s, err := b.Subscribe(geometry.NewRect(lo, lo+20))
			if err != nil {
				errCh <- err
				return
			}
			// Consume for a while, then cancel.
			deadline := time.After(2 * time.Second)
			count := 0
			for count < 10 {
				select {
				case _, open := <-s.Events():
					if !open {
						return
					}
					count++
				case <-deadline:
					s.Cancel()
					return
				}
			}
			s.Cancel()
		}(i)
	}
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < events; i++ {
				if _, err := b.Publish(geometry.Point{rng.Float64() * 100}, nil); err != nil {
					errCh <- fmt.Errorf("publish: %w", err)
					return
				}
			}
		}(int64(p))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Published != publishers*events {
		t.Errorf("published = %d, want %d", st.Published, publishers*events)
	}
}

func TestMixedDimensionalityPacksATreeEach(t *testing.T) {
	// Subscriptions of different dimensionalities make the rebuild pack
	// a tree per dimensionality; both must keep working.
	b := withMinOverlay(New(Options{}), 2)
	defer b.Close()
	s1, err := b.Subscribe(geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Subscribe(geometry.NewRect(0, 10, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // force rebuilds
		s, err := b.Subscribe(geometry.NewRect(float64(i), float64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Cancel()
	}
	if n, _ := b.Publish(geometry.Point{5}, nil); n < 1 {
		t.Error("1-d event lost")
	}
	if n, _ := b.Publish(geometry.Point{5, 5}, nil); n != 1 {
		t.Error("2-d event lost")
	}
	<-s1.Events()
	<-s2.Events()
}

func TestSubscribeFunc(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	var mu sync.Mutex
	var got []uint64
	s, err := b.SubscribeFunc(func(ev Event) {
		mu.Lock()
		got = append(got, ev.Seq)
		mu.Unlock()
	}, geometry.NewRect(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Publish(geometry.Point{5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Cancel()
	b.WaitConsumers()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("handler saw %d events, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("events out of order")
		}
	}
}

func TestSubscribeFuncValidation(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	if _, err := b.SubscribeFunc(nil, geometry.NewRect(0, 1)); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := b.SubscribeFunc(func(Event) {}); err == nil {
		t.Error("no rectangles accepted")
	}
}

func TestSubscribeFuncBrokerClose(t *testing.T) {
	b := New(Options{})
	done := make(chan struct{})
	once := sync.Once{}
	_, err := b.SubscribeFunc(func(Event) { once.Do(func() { close(done) }) }, geometry.NewRect(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(geometry.Point{0.5}, nil); err != nil {
		t.Fatal(err)
	}
	<-done
	b.Close()
	b.WaitConsumers() // must not hang
}

// TestSubscribeAllocations pins what a channel subscription allocates:
// the Subscription, its channel's header and buffer, the snapshot
// Subscribe stores, and the overlay's amortised growth. The overlay
// holds the only copy of the rectangles, so none is cloned. The rebuild
// trigger is out of reach.
func TestSubscribeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, dims := range []int{4, 9} {
		b := withMinOverlay(New(Options{}), 1<<30)
		r := make(geometry.Rect, dims)
		for k := range r {
			r[k] = geometry.NewInterval(float64(k), float64(k+1))
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := b.Subscribe(r); err != nil {
				t.Fatal(err)
			}
		})
		b.Close()
		if allocs > 4 {
			t.Errorf("a %d-d Subscribe allocates %.2f objects, want at most 4", dims, allocs)
		}
	}
}

// BenchmarkSubscriptionHeap reports the live heap one subscription
// costs, its share of the index included, in B/sub: 100 000 of the
// paper's subscriptions (the stock workload's, 4-d) subscribed and
// settled, measured after two collections against the heap before the
// broker. The rows put every subscription on its own default channel,
// and all of them on one sink.
func BenchmarkSubscriptionHeap(b *testing.B) {
	_, subs := stockPopulation(b, 100_000)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, onSink := range []bool{false, true} {
		b.Run(map[bool]string{false: "channel", true: "sink"}[onSink], func(b *testing.B) {
			var perSub float64
			for i := 0; i < b.N; i++ {
				before := liveHeap()
				br := New(Options{})
				var opts SubscribeOptions
				if onSink {
					opts.Sink = br.NewSink()
				}
				for _, s := range subs {
					if _, err := br.SubscribeWith(opts, s.Rect); err != nil {
						b.Fatal(err)
					}
				}
				waitSettled(b, br)
				perSub = float64(int64(liveHeap())-int64(before)) / float64(len(subs))
				br.Close()
			}
			b.ReportMetric(perSub, "B/sub")
		})
	}
}

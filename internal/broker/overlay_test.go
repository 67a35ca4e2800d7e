package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/geometry"
	"repro/internal/workload"
)

// modelRect draws a rectangle of d dimensions on a small integer grid,
// so that publications land on stored bounds as often as inside boxes.
func modelRect(rng *rand.Rand, d int) geometry.Rect {
	r := make(geometry.Rect, d)
	for k := range r {
		lo := float64(rng.Intn(8))
		r[k] = geometry.NewInterval(lo, lo+1+float64(rng.Intn(4)))
	}
	return r
}

// TestOverlayModel runs random Subscribe/Cancel/Publish sequences with
// rebuild triggers from 2 to 64 overlay rectangles, on a base packed in
// one to four parts (shards=K in the subtest name is the part count),
// with multi-rectangle subscriptions and dimensionalities 1–3 mixed
// within a broker and within a subscription. A seed with several parts
// runs twice, with the parts run by the publisher and offered to the
// workers. After every publication the set of subscriptions that
// received it must equal a brute-force oracle over the live
// subscriptions, each receiving it once, and the index must account
// for every live rectangle once.
func TestOverlayModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		minOverlay, parts := 2+rng.Intn(63), 1+rng.Intn(4)
		mixed := seed%3 == 0
		t.Run(fmt.Sprintf("seed=%d/min=%d/shards=%d/mixed=%v", seed, minOverlay, parts, mixed), func(t *testing.T) {
			arrs := []arrangement{{"one-part", 1, false}}
			if parts > 1 {
				arrs = []arrangement{{"inline", parts, false}, {"workers", parts, true}}
			}
			for _, a := range arrs {
				t.Run(a.name, func(t *testing.T) {
					overlayModel(t, withMinOverlay(a.open(Options{DefaultBuffer: 4}), minOverlay), seed, mixed)
				})
			}
		})
	}
}

// overlayModel is one run of TestOverlayModel's seed on b, which it
// closes.
func overlayModel(t *testing.T, b *Broker, seed int64, mixed bool) {
	defer b.Close()
	rng := rand.New(rand.NewSource(seed))
	rng.Intn(63) // the trigger and the part count, drawn by TestOverlayModel
	rng.Intn(4)
	dims := func() int {
		if mixed {
			return 1 + rng.Intn(3)
		}
		return 2
	}
	var live []*Subscription
	for op := 0; op < 600; op++ {
		switch c := rng.Intn(10); {
		case c < 4 || len(live) == 0:
			rects := make([]geometry.Rect, 1+rng.Intn(3))
			for i := range rects {
				rects[i] = modelRect(rng, dims())
			}
			s, err := b.Subscribe(rects...)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
		case c < 6:
			i := rng.Intn(len(live))
			live[i].Cancel()
			live = slices.Delete(live, i, i+1)
		default:
			p := make(geometry.Point, dims())
			for k := range p {
				p[k] = float64(rng.Intn(13)) + 0.5*float64(rng.Intn(2))
			}
			n, err := b.Publish(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, rects := 0, 0
			for _, s := range live {
				rects += len(s.rects)
				match := slices.ContainsFunc(s.rects, func(r geometry.Rect) bool { return r.Contains(p) })
				got := 0
				for len(s.Events()) > 0 {
					<-s.Events()
					got++
				}
				if match {
					want++
				}
				if match && got != 1 || !match && got != 0 {
					t.Fatalf("op %d: subscription %d %v received %d events of p=%v, want match=%v", op, s.id, s.rects, got, p, match)
				}
			}
			if n != want {
				t.Fatalf("op %d: Publish(%v) reports %d deliveries, oracle %d", op, p, n, want)
			}
			if got := b.Stats().Rectangles; got != rects {
				t.Fatalf("op %d: the index accounts for %d rectangles, live subscriptions hold %d", op, got, rects)
			}
		}
	}
}

// TestOverlayAppendsUnderPublish publishes continuously while
// subscriptions append to the overlay's plane run and cancellations
// replace it, so readers of older snapshots scan the very blocks the
// appends write. A subscription covering every point must receive every
// publication. Under -race the containment kernel is the Go loop
// (internal/flat keeps the assembly out of race-detector builds), so the
// detector sees each block read.
func TestOverlayAppendsUnderPublish(t *testing.T) {
	b := withMinOverlay(New(Options{DefaultBuffer: 1 << 12}), 1<<20)
	defer b.Close()
	all, err := b.Subscribe(geometry.NewRect(0, 100, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	var published atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.Publish(geometry.Point{1 + rng.Float64()*98, 1 + rng.Float64()*98}, nil); err != nil {
				t.Error(err)
				return
			}
			published.Add(1)
			select {
			case <-all.Events():
			default:
				t.Error("the covering subscription missed a publication")
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	var subs []*Subscription
	for i := 0; i < 400; i++ {
		s, err := b.Subscribe(modelRect(rng, 2), modelRect(rng, 2))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
		if i%16 == 15 {
			subs[rng.Intn(len(subs))].Cancel()
		}
	}
	close(stop)
	wg.Wait()
	if published.Load() == 0 {
		t.Fatal("nothing was published while the overlay grew")
	}
}

// BenchmarkPublishOverlay times a publish on the ledger's stock
// population, 10 000 subscriptions packed into the base, with
// 0, 64, 1 250 and 2 500 more rectangles in the overlay. minOverlay
// makes the 10 000th subscription trigger the one rebuild, so the base
// holds exactly the first 10 000 whatever the scheduling, and keeps
// the overlay from ever coming due (with the default it would come due
// only past 2 500).
func BenchmarkPublishOverlay(b *testing.B) {
	events, subs := stockPopulation(b, 12500)
	br := withMinOverlay(New(Options{DefaultBuffer: 1}), 9999)
	defer br.Close()
	subscribe := func(subs []workload.PlacedSubscription) {
		for _, s := range subs {
			if _, err := br.Subscribe(s.Rect); err != nil {
				b.Fatal(err)
			}
		}
	}
	subscribe(subs[:10000])
	awaitBase(br, 10000)
	have := 10000
	for _, overlay := range []int{0, 64, 1250, 2500} {
		subscribe(subs[have : 10000+overlay])
		have = 10000 + overlay
		if got := br.ShardStats()[0].OverlayLen; got != overlay {
			b.Fatalf("overlay holds %d rectangles, want %d", got, overlay)
		}
		b.Run(fmt.Sprintf("overlay=%d", overlay), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := br.Publish(events[i%len(events)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// stockPopulation draws the ledger's stock workload: 1 024 paper-model
// publications and the first n subscriptions of the paper's testbed.
func stockPopulation(b testing.TB, n int) ([]geometry.Point, []workload.PlacedSubscription) {
	model := workload.MustStockPublications(9)
	rng := rand.New(rand.NewSource(5))
	events := make([]geometry.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = n
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	return events, tb.Subs
}

// awaitBase waits until br's base holds n rectangles and no rebuild is
// running or due.
func awaitBase(br *Broker, n int) {
	for {
		br.mu.RLock()
		settled := br.baseLen == n && !br.rebuilding && !br.rebuildDueLocked()
		br.mu.RUnlock()
		if settled {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkPublishForeignDims times a publish on the ledger's stock
// population, 10 000 4-d subscriptions packed into the base, alone and
// with one 3-d subscription packed beside them. Rectangles of two
// dimensionalities cannot share a tree, so the second base packs a
// 3-d tree of one entry beside the 4-d one, which a 4-d point skips
// without reading a node: the two rows should read alike. minOverlay
// makes the last subscription trigger the one rebuild in both.
func BenchmarkPublishForeignDims(b *testing.B) {
	events, subs := stockPopulation(b, 10000)
	foreign := geometry.NewRect(0, 1e9, 0, 1e9, 0, 1e9)
	for _, tc := range []struct {
		name  string
		extra []geometry.Rect
	}{{"stock", nil}, {"stock+3d", []geometry.Rect{foreign}}} {
		b.Run(tc.name, func(b *testing.B) {
			n := len(subs) + len(tc.extra)
			br := withMinOverlay(New(Options{DefaultBuffer: 1}), n-1)
			defer br.Close()
			for _, s := range subs {
				if _, err := br.Subscribe(s.Rect); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range tc.extra {
				if _, err := br.Subscribe(r); err != nil {
					b.Fatal(err)
				}
			}
			awaitBase(br, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Publish(events[i%len(events)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

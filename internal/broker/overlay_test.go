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
// rebuild triggers from 2 to 64 overlay rectangles, on one to four
// shards, with multi-rectangle subscriptions and dimensionalities 1–3
// mixed within a broker and within a subscription. After every
// publication the set of subscriptions that received it must equal a
// brute-force oracle over the live subscriptions, each receiving it
// once, and the shards must account for every live rectangle once.
func TestOverlayModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		minOverlay, shards := 2+rng.Intn(63), 1+rng.Intn(4)
		mixed := seed%3 == 0
		t.Run(fmt.Sprintf("seed=%d/min=%d/shards=%d/mixed=%v", seed, minOverlay, shards, mixed), func(t *testing.T) {
			b := New(Options{MinOverlay: minOverlay, Shards: shards, DefaultBuffer: 4})
			defer b.Close()
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
						t.Fatalf("op %d: the shards account for %d rectangles, live subscriptions hold %d", op, got, rects)
					}
				}
			}
		})
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
	b := New(Options{MinOverlay: 1 << 20, DefaultBuffer: 1 << 12})
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
// population, 10 000 subscriptions packed into one shard's base, with
// 0, 64, 1 250 and 2 500 more rectangles in the overlay. MinOverlay
// makes the 10 000th subscription trigger the one rebuild, so the base
// holds exactly the first 10 000 whatever the scheduling, and keeps
// the overlay from ever coming due (with the default it would come due
// only past 2 500).
func BenchmarkPublishOverlay(b *testing.B) {
	model := workload.MustStockPublications(9)
	rng := rand.New(rand.NewSource(5))
	events := make([]geometry.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = 12500
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	br := New(Options{DefaultBuffer: 1, Shards: 1, MinOverlay: 9999})
	defer br.Close()
	subscribe := func(subs []workload.PlacedSubscription) {
		for _, s := range subs {
			if _, err := br.Subscribe(s.Rect); err != nil {
				b.Fatal(err)
			}
		}
	}
	subscribe(tb.Subs[:10000])
	sh := br.shards[0]
	for {
		sh.mu.Lock()
		settled := sh.baseLen == 10000 && !sh.rebuilding && !sh.rebuildDueLocked()
		sh.mu.Unlock()
		if settled {
			break
		}
		time.Sleep(time.Millisecond)
	}
	have := 10000
	for _, overlay := range []int{0, 64, 1250, 2500} {
		subscribe(tb.Subs[have : 10000+overlay])
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

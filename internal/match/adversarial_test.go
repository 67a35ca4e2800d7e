package match

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// adversarialWorkloads produce subscription populations that stress
// matcher edge cases: heavy duplication, deep nesting, boundary-aligned
// tilings, wildcard mixes, and extreme aspect ratios.
var adversarialWorkloads = []struct {
	name string
	gen  func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point)
}{
	{
		name: "identical",
		gen: func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point) {
			subs := make([]Subscription, 300)
			for i := range subs {
				subs[i] = Subscription{Rect: geometry.NewRect(10, 20, 10, 20), SubscriberID: i}
			}
			return subs, func(r *rand.Rand) geometry.Point {
				return geometry.Point{r.Float64() * 30, r.Float64() * 30}
			}
		},
	},
	{
		name: "nested",
		gen: func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point) {
			var subs []Subscription
			for i := 0; i < 250; i++ {
				d := float64(i) * 0.1
				subs = append(subs, Subscription{
					Rect:         geometry.NewRect(d, 100-d, d, 100-d),
					SubscriberID: i,
				})
			}
			return subs, func(r *rand.Rand) geometry.Point {
				return geometry.Point{r.Float64() * 110, r.Float64() * 110}
			}
		},
	},
	{
		name: "tiling",
		gen: func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point) {
			var subs []Subscription
			id := 0
			for x := 0; x < 16; x++ {
				for y := 0; y < 16; y++ {
					subs = append(subs, Subscription{
						Rect:         geometry.NewRect(float64(x), float64(x+1), float64(y), float64(y+1)),
						SubscriberID: id,
					})
					id++
				}
			}
			return subs, func(r *rand.Rand) geometry.Point {
				// Half the queries land exactly on tile boundaries.
				if r.Intn(2) == 0 {
					return geometry.Point{float64(r.Intn(17)), float64(r.Intn(17))}
				}
				return geometry.Point{r.Float64() * 16, r.Float64() * 16}
			}
		},
	},
	{
		name: "wildcard-mix",
		gen: func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point) {
			subs := make([]Subscription, 400)
			for i := range subs {
				r := make(geometry.Rect, 3)
				for d := range r {
					switch rng.Intn(3) {
					case 0:
						r[d] = geometry.FullInterval()
					case 1:
						r[d] = geometry.AtLeast(rng.Float64() * 50)
					default:
						lo := rng.Float64() * 80
						r[d] = geometry.Interval{Lo: lo, Hi: lo + 5 + rng.Float64()*20}
					}
				}
				subs[i] = Subscription{Rect: r, SubscriberID: i}
			}
			return subs, func(r *rand.Rand) geometry.Point {
				return geometry.Point{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
			}
		},
	},
	{
		name: "slivers",
		gen: func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point) {
			subs := make([]Subscription, 300)
			for i := range subs {
				if i%2 == 0 {
					lo := rng.Float64() * 100
					subs[i] = Subscription{
						Rect:         geometry.NewRect(lo, lo+0.001, 0, 1000),
						SubscriberID: i,
					}
				} else {
					lo := rng.Float64() * 1000
					subs[i] = Subscription{
						Rect:         geometry.NewRect(0, 100, lo, lo+0.001),
						SubscriberID: i,
					}
				}
			}
			return subs, func(r *rand.Rand) geometry.Point {
				return geometry.Point{r.Float64() * 100, r.Float64() * 1000}
			}
		},
	},
	{
		name: "single",
		gen: func(rng *rand.Rand) ([]Subscription, func(*rand.Rand) geometry.Point) {
			subs := []Subscription{{Rect: geometry.NewRect(1, 2), SubscriberID: 42}}
			return subs, func(r *rand.Rand) geometry.Point {
				return geometry.Point{r.Float64() * 3}
			}
		},
	},
}

// TestAdversarialCrossValidation runs every matcher over every
// adversarial workload and demands bit-identical results with the brute
// force oracle.
func TestAdversarialCrossValidation(t *testing.T) {
	algorithms := []Algorithm{AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree}
	for _, w := range adversarialWorkloads {
		for _, alg := range algorithms {
			t.Run(fmt.Sprintf("%s/%s", w.name, alg), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				subs, nextPoint := w.gen(rng)
				oracle := MustNew(subs, Options{Algorithm: AlgBruteForce})
				m := MustNew(subs, Options{Algorithm: alg, BranchFactor: 8})
				for q := 0; q < 400; q++ {
					p := nextPoint(rng)
					if !equalIDs(query(m, p), query(oracle, p)) {
						t.Fatalf("query %v disagrees with oracle", p)
					}
				}
			})
		}
	}
}

// TestAdversarialSmallBranchFactors stresses packing at minimum fanouts.
func TestAdversarialSmallBranchFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	subs, nextPoint := adversarialWorkloads[1].gen(rng) // nested
	oracle := MustNew(subs, Options{Algorithm: AlgBruteForce})
	for _, m := range []int{4, 5, 7} {
		for _, alg := range []Algorithm{AlgSTree, AlgHilbertRTree, AlgDynamicRTree} {
			idx := MustNew(subs, Options{Algorithm: alg, BranchFactor: m})
			for q := 0; q < 200; q++ {
				p := nextPoint(rng)
				if len(query(idx, p)) != len(query(oracle, p)) {
					t.Fatalf("%v M=%d: mismatch at %v", alg, m, p)
				}
			}
		}
	}
}

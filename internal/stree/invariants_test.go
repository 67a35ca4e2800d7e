//go:build invariants

package stree

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// With -tags=invariants every Build deep-checks the finished tree and
// every bestSplit asserts its skew bounds, so these tests just have to
// drive construction across a wide parameter grid: any structural
// violation panics.

func TestInvariantsRandomizedBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 39, 40, 41, 250, 1000} {
		for _, m := range []int{2, 3, 8, 40} {
			for _, skew := range []float64{0.1, 0.3, 0.5} {
				entries := randomEntries(rng, n, 1+rng.Intn(4))
				tr := MustBuild(entries, Options{BranchFactor: m, Skew: skew})
				if tr.Len() != n {
					t.Fatalf("n=%d m=%d skew=%g: Len() = %d", n, m, skew, tr.Len())
				}
			}
		}
	}
}

func TestInvariantsUnboundedRects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := make([]Entry, 200)
	for i := range entries {
		r := make(geometry.Rect, 3)
		for d := range r {
			switch rng.Intn(4) {
			case 0:
				r[d] = geometry.FullInterval()
			case 1:
				r[d] = geometry.AtLeast(rng.Float64() * 50)
			case 2:
				r[d] = geometry.AtMost(rng.Float64() * 50)
			default:
				lo := rng.Float64() * 50
				r[d] = geometry.NewInterval(lo, lo+1+rng.Float64()*10)
			}
		}
		entries[i] = Entry{Rect: r, ID: i}
	}
	tr := MustBuild(entries, Options{})
	// Spot-check matching against brute force under the checked build.
	for q := 0; q < 50; q++ {
		p := geometry.Point{rng.Float64() * 60, rng.Float64() * 60, rng.Float64() * 60}
		want := 0
		for _, e := range entries {
			if e.Rect.Contains(p) {
				want++
			}
		}
		if got := len(query(tr, p)); got != want {
			t.Fatalf("query %v: got %d matches, want %d", p, got, want)
		}
	}
}

package predindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/flat"
	"repro/internal/geometry"
)

// stab returns the subscription of every entry of tree whose interval
// contains x, read back from the counters stabCount bumps; subs bounds
// the subscription numbers.
func stab(tree *intervalTree, x float64, subs int) []int32 {
	cs := &counterSet{counts: make([]uint16, subs)}
	tree.stabCount(x, cs)
	var got []int32
	for _, s := range cs.touched {
		for k := uint16(0); k < cs.counts[s]; k++ {
			got = append(got, s)
		}
	}
	return got
}

func TestIntervalTreeStabbing(t *testing.T) {
	entries := []treeEntry{
		{Lo: 0, Hi: 10, Sub: 0},
		{Lo: 5, Hi: 15, Sub: 1},
		{Lo: 12, Hi: 20, Sub: 2},
		{Lo: -5, Hi: 3, Sub: 3},
	}
	tree := buildIntervalTree(entries)
	if tree.Len() != 4 {
		t.Fatalf("Len = %d", tree.Len())
	}
	tests := []struct {
		x    float64
		want []int32
	}{
		{x: 1, want: []int32{0, 3}},
		{x: 7, want: []int32{0, 1}},
		{x: 10, want: []int32{0, 1}},
		{x: 12, want: []int32{1, 2}}, // (12,20] excludes 12? Lo=12 < 12 false -> only {1}... see below
		{x: 18, want: []int32{2}},
		{x: -5, want: nil}, // open lower bound of (-5,3]
		{x: 3, want: []int32{0, 3}},
		{x: 100, want: nil},
	}
	// Fix the x=12 expectation: (12, 20] does not contain 12; (5, 15]
	// does.
	tests[3].want = []int32{1}
	for _, tt := range tests {
		got := stab(tree, tt.x, len(entries))
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(tt.want) {
			t.Errorf("stab(%v) = %v, want %v", tt.x, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("stab(%v) = %v, want %v", tt.x, got, tt.want)
				break
			}
		}
	}
}

func TestIntervalTreePropVsBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		entries := make([]treeEntry, n)
		for i := range entries {
			lo := rng.Float64()*40 - 20
			entries[i] = treeEntry{Lo: lo, Hi: lo + rng.Float64()*15, Sub: int32(i)}
		}
		tree := buildIntervalTree(entries)
		for q := 0; q < 50; q++ {
			x := rng.Float64()*60 - 30
			want := map[int32]bool{}
			for _, e := range entries {
				if e.Lo < x && x <= e.Hi {
					want[e.Sub] = true
				}
			}
			got := map[int32]bool{}
			for _, s := range stab(tree, x, n) {
				got[s] = true
			}
			if len(got) != len(want) {
				return false
			}
			for s := range want {
				if !got[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntervalTreeUnboundedEntries(t *testing.T) {
	entries := []treeEntry{
		{Lo: inf(-1), Hi: 5, Sub: 0},
		{Lo: 3, Hi: inf(1), Sub: 1},
		{Lo: inf(-1), Hi: inf(1), Sub: 2},
	}
	tree := buildIntervalTree(entries)
	cases := []struct {
		x    float64
		want int
	}{
		{x: 0, want: 2},   // {0, 2}
		{x: 4, want: 3},   // all
		{x: 100, want: 2}, // {1, 2}
	}
	for _, c := range cases {
		if n := len(stab(tree, c.x, len(entries))); n != c.want {
			t.Errorf("stab(%v) hit %d, want %d", c.x, n, c.want)
		}
	}
}

func randomSubs(rng *rand.Rand, n, dims int, wildcardProb float64) []Subscription {
	subs := make([]Subscription, n)
	for i := range subs {
		r := make(geometry.Rect, dims)
		for d := range r {
			if rng.Float64() < wildcardProb {
				r[d] = geometry.FullInterval()
				continue
			}
			lo := rng.Float64() * 90
			r[d] = geometry.Interval{Lo: lo, Hi: lo + 0.5 + rng.Float64()*10}
		}
		subs[i] = Subscription{Rect: r, SubscriberID: i}
	}
	return subs
}

func bruteMatch(subs []Subscription, p geometry.Point) []int {
	var ids []int
	for _, s := range subs {
		if s.Rect.Contains(p) {
			ids = append(ids, s.SubscriberID)
		}
	}
	return ids
}

func equalIDs(a, b []int) bool {
	a, b = append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(a)
	sort.Ints(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// match returns the subscriber IDs the index reports for p and checks
// that its Matched counter, the only one it keeps, agrees with them.
func match(t *testing.T, ix *Index, p geometry.Point) []int {
	t.Helper()
	ids, st := ix.MatchAppendStats(p, nil)
	if st != (flat.Stats{Matched: len(ids)}) {
		t.Fatalf("MatchAppendStats(%v) = %d ids with %+v", p, len(ids), st)
	}
	return ids
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]Subscription{{Rect: geometry.Rect{}}}); err == nil {
		t.Error("zero-dim accepted")
	}
	mixed := []Subscription{
		{Rect: geometry.NewRect(0, 1)},
		{Rect: geometry.NewRect(0, 1, 0, 1)},
	}
	if _, err := Build(mixed); err == nil {
		t.Error("mixed dims accepted")
	}
	if _, err := Build([]Subscription{{Rect: geometry.NewRect(5, 5)}}); err == nil {
		t.Error("empty rect accepted")
	}
	ix, err := Build(nil)
	if err != nil || ix.Len() != 0 {
		t.Errorf("empty build: %v, len %d", err, ix.Len())
	}
	if got := match(t, ix, geometry.Point{1}); got != nil {
		t.Errorf("empty index matched %v", got)
	}
}

func TestMatchAgainstBruteForce(t *testing.T) {
	tests := []struct {
		name     string
		n, dims  int
		wildcard float64
	}{
		{name: "no wildcards", n: 500, dims: 4, wildcard: 0},
		{name: "paper-like wildcards", n: 800, dims: 4, wildcard: 0.25},
		{name: "mostly wildcards", n: 300, dims: 3, wildcard: 0.8},
		{name: "one dim", n: 400, dims: 1, wildcard: 0.1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			subs := randomSubs(rng, tt.n, tt.dims, tt.wildcard)
			ix := MustBuild(subs)
			for q := 0; q < 300; q++ {
				p := make(geometry.Point, tt.dims)
				for d := range p {
					p[d] = rng.Float64() * 100
				}
				got, want := match(t, ix, p), bruteMatch(subs, p)
				if !equalIDs(got, want) {
					t.Fatalf("MatchAppendStats(%v): got %d ids, want %d", p, len(got), len(want))
				}
			}
		})
	}
}

func TestAllWildcardSubscriptionAlwaysMatches(t *testing.T) {
	subs := []Subscription{
		{Rect: geometry.FullRect(2), SubscriberID: 7},
		{Rect: geometry.NewRect(0, 1, 0, 1), SubscriberID: 8},
	}
	ix := MustBuild(subs)
	got := match(t, ix, geometry.Point{500, -500})
	if !equalIDs(got, []int{7}) {
		t.Errorf("Match far away = %v, want [7]", got)
	}
	got = match(t, ix, geometry.Point{0.5, 0.5})
	if !equalIDs(got, []int{7, 8}) {
		t.Errorf("Match inside = %v, want [7 8]", got)
	}
}

func TestWrongDimensionality(t *testing.T) {
	ix := MustBuild(randomSubs(rand.New(rand.NewSource(1)), 10, 3, 0))
	if got := match(t, ix, geometry.Point{1, 2}); got != nil {
		t.Errorf("wrong-dim point matched %v", got)
	}
}

func TestScratchReuseIsClean(t *testing.T) {
	// Back-to-back queries must not leak counters between each other.
	rng := rand.New(rand.NewSource(3))
	subs := randomSubs(rng, 200, 2, 0.1)
	ix := MustBuild(subs)
	p1 := geometry.Point{50, 50}
	want := len(match(t, ix, p1))
	for i := 0; i < 100; i++ {
		p := geometry.Point{rng.Float64() * 100, rng.Float64() * 100}
		match(t, ix, p)
	}
	if got := len(match(t, ix, p1)); got != want {
		t.Errorf("Count changed across queries: %d then %d", want, got)
	}
}

func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	subs := randomSubs(rng, 500, 3, 0.2)
	ix := MustBuild(subs)
	type result struct {
		p    geometry.Point
		want []int
	}
	cases := make([]result, 50)
	for i := range cases {
		p := geometry.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		cases[i] = result{p: p, want: bruteMatch(subs, p)}
	}
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok := true
			for rep := 0; rep < 50; rep++ {
				for _, c := range cases {
					if got, _ := ix.MatchAppendStats(c.p, nil); !equalIDs(got, c.want) {
						ok = false
					}
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent query returned wrong results")
		}
	}
}

func inf(sign int) float64 { return math.Inf(sign) }

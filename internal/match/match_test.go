package match

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geometry"
)

func randomSubs(rng *rand.Rand, n, dims int) []Subscription {
	subs := make([]Subscription, n)
	for i := range subs {
		r := make(geometry.Rect, dims)
		for d := range r {
			lo := rng.Float64() * 90
			r[d] = geometry.Interval{Lo: lo, Hi: lo + 0.5 + rng.Float64()*10}
		}
		// Several subscriptions per subscriber: IDs repeat.
		subs[i] = Subscription{Rect: r, SubscriberID: i / 3}
	}
	return subs
}

func randomPoint(rng *rand.Rand, dims int) geometry.Point {
	p := make(geometry.Point, dims)
	for d := range p {
		p[d] = rng.Float64() * 100
	}
	return p
}

// query returns the ids m reports for p.
func query(m Matcher, p geometry.Point) []int {
	ids, _ := m.MatchAppendStats(p, nil)
	return ids
}

func sorted(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	a, b = sorted(a), sorted(b)
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

func TestAlgorithmString(t *testing.T) {
	tests := []struct {
		alg  Algorithm
		want string
	}{
		{AlgSTree, "s-tree"},
		{AlgHilbertRTree, "hilbert-rtree"},
		{AlgBruteForce, "brute-force"},
		{AlgPredCount, "pred-count"},
		{AlgDynamicRTree, "dynamic-rtree"},
		{Algorithm(99), "algorithm(99)"},
	}
	for _, tt := range tests {
		if got := tt.alg.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.alg, got, tt.want)
		}
	}
}

func TestNewUnknownAlgorithm(t *testing.T) {
	if _, err := New(nil, Options{Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNewPropagatesBuildErrors(t *testing.T) {
	subs := []Subscription{{Rect: geometry.NewRect(5, 5), SubscriberID: 0}} // empty rect
	for _, alg := range []Algorithm{AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree} {
		if _, err := New(subs, Options{Algorithm: alg}); err == nil {
			t.Errorf("%v: empty rectangle accepted", alg)
		}
	}
}

func TestAllMatchersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	subs := randomSubs(rng, 900, 4)
	oracle := MustNew(subs, Options{Algorithm: AlgBruteForce})
	for _, alg := range []Algorithm{AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree} {
		t.Run(alg.String(), func(t *testing.T) {
			m := MustNew(subs, Options{Algorithm: alg, BranchFactor: 16})
			if m.Len() != len(subs) {
				t.Fatalf("Len = %d, want %d", m.Len(), len(subs))
			}
			for i := 0; i < 300; i++ {
				p := randomPoint(rng, 4)
				got, st := m.MatchAppendStats(p, nil)
				if !equalIDs(got, query(oracle, p)) {
					t.Fatalf("MatchAppendStats(%v) disagrees with oracle", p)
				}
				if st.Matched != len(got) {
					t.Fatalf("MatchAppendStats(%v).Matched = %d, want %d", p, st.Matched, len(got))
				}
			}
		})
	}
}

func TestMatchSetDeduplicates(t *testing.T) {
	subs := []Subscription{
		{Rect: geometry.NewRect(0, 10, 0, 10), SubscriberID: 7},
		{Rect: geometry.NewRect(2, 8, 2, 8), SubscriberID: 7},
		{Rect: geometry.NewRect(0, 10, 0, 10), SubscriberID: 9},
	}
	for _, alg := range []Algorithm{AlgBruteForce, AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree} {
		m := MustNew(subs, Options{Algorithm: alg})
		p := geometry.Point{5, 5}
		if got := len(query(m, p)); got != 3 {
			t.Errorf("%v: MatchAppendStats returned %d hits, want 3 (per rectangle)", alg, got)
		}
		set := MatchSet(m, p)
		if len(set) != 2 {
			t.Errorf("%v: MatchSet = %v, want {7, 9}", alg, set)
		}
		uniq := MatchUnique(m, p)
		if !equalIDs(uniq, []int{7, 9}) {
			t.Errorf("%v: MatchUnique = %v, want [7 9]", alg, uniq)
		}
	}
}

func TestBruteForceCopiesInput(t *testing.T) {
	subs := randomSubs(rand.New(rand.NewSource(1)), 10, 2)
	m := MustNew(subs, Options{Algorithm: AlgBruteForce})
	subs[0].SubscriberID = 999999
	p := subs[0].Rect.Center()
	for _, id := range query(m, p) {
		if id == 999999 {
			t.Fatal("BruteForce aliases the caller's slice")
		}
	}
}

func TestEmptyMatchers(t *testing.T) {
	for _, alg := range []Algorithm{AlgBruteForce, AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree} {
		m := MustNew(nil, Options{Algorithm: alg})
		if m.Len() != 0 {
			t.Errorf("%v: Len = %d", alg, m.Len())
		}
		if got, st := m.MatchAppendStats(geometry.Point{1, 2}, nil); len(got) != 0 || st != (QueryStats{}) {
			t.Errorf("%v: MatchAppendStats on empty = %v %+v", alg, got, st)
		}
	}
}

// TestMatchFuncStatsConsistency checks that every matcher's effort
// counters agree with the ids the same call returns.
func TestMatchFuncStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	subs := randomSubs(rng, 600, 3)
	for _, alg := range []Algorithm{AlgSTree, AlgHilbertRTree, AlgBruteForce, AlgDynamicRTree, AlgPredCount} {
		t.Run(alg.String(), func(t *testing.T) {
			m := MustNew(subs, Options{Algorithm: alg, BranchFactor: 16})
			for i := 0; i < 100; i++ {
				p := randomPoint(rng, 3)
				ids, stats := m.MatchAppendStats(p, nil)
				if stats.Matched != len(ids) {
					t.Fatalf("Matched = %d, returned %d", stats.Matched, len(ids))
				}
				switch alg {
				case AlgPredCount:
					if stats != (QueryStats{Matched: len(ids)}) {
						t.Fatalf("predicate counting reported %+v, want only Matched", stats)
					}
				case AlgBruteForce:
					if stats != (QueryStats{EntriesTested: len(subs), Matched: len(ids)}) {
						t.Fatalf("brute force reported %+v, want every entry tested", stats)
					}
				default:
					if stats.EntriesTested < stats.Matched || stats.LeavesVisited > stats.NodesVisited {
						t.Fatalf("inconsistent tree stats %+v", stats)
					}
					if stats.Matched > 0 && stats.NodesVisited == 0 {
						t.Fatalf("tree matcher reported no node visits with %d matches", stats.Matched)
					}
				}
			}
		})
	}
}

func TestQueryStatsAdd(t *testing.T) {
	a := QueryStats{NodesVisited: 1, LeavesVisited: 2, EntriesTested: 3, Matched: 4}
	a.Add(QueryStats{NodesVisited: 10, LeavesVisited: 20, EntriesTested: 30, Matched: 40})
	want := QueryStats{NodesVisited: 11, LeavesVisited: 22, EntriesTested: 33, Matched: 44}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestMatchAppendAgreesWithMatch checks that appending into a reused
// buffer returns what a fresh match does, with the same counters.
func TestMatchAppendAgreesWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	subs := randomSubs(rng, 700, 3)
	algs := []Algorithm{AlgBruteForce, AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			m := MustNew(subs, Options{Algorithm: alg, BranchFactor: 16})
			var dst []int
			for i := 0; i < 200; i++ {
				p := randomPoint(rng, 3)
				var reused QueryStats
				dst, reused = m.MatchAppendStats(p, dst[:0])
				fresh, stats := m.MatchAppendStats(p, nil)
				if !equalIDs(dst, fresh) || reused != stats {
					t.Fatalf("MatchAppendStats(%v) into a reused buffer = %v %+v, fresh %v %+v", p, dst, reused, fresh, stats)
				}
			}
		})
	}
}

// TestMatchAppendPreservesPrefix guards the append contract: existing dst
// contents survive.
func TestMatchAppendPreservesPrefix(t *testing.T) {
	subs := []Subscription{{Rect: geometry.NewRect(0, 10), SubscriberID: 5}}
	for _, alg := range []Algorithm{AlgBruteForce, AlgSTree, AlgHilbertRTree, AlgPredCount, AlgDynamicRTree} {
		m := MustNew(subs, Options{Algorithm: alg})
		dst, _ := m.MatchAppendStats(geometry.Point{4}, []int{99})
		if len(dst) != 2 || dst[0] != 99 || dst[1] != 5 {
			t.Fatalf("%v: MatchAppendStats clobbered prefix: %v", alg, dst)
		}
	}
}

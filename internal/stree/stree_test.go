package stree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/flat"
	"repro/internal/geometry"
)

// randomEntries generates n bounded rectangles in [0,100)^dims.
func randomEntries(rng *rand.Rand, n, dims int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		r := make(geometry.Rect, dims)
		for d := range r {
			lo := rng.Float64() * 90
			r[d] = geometry.Interval{Lo: lo, Hi: lo + 0.5 + rng.Float64()*10}
		}
		entries[i] = Entry{Rect: r, ID: i}
	}
	return entries
}

func randomPoint(rng *rand.Rand, dims int) geometry.Point {
	p := make(geometry.Point, dims)
	for d := range p {
		p[d] = rng.Float64() * 100
	}
	return p
}

// query returns the ids tr reports for p.
func query(tr *Tree, p geometry.Point) []int {
	ids, _ := tr.MatchAppendStats(p, nil)
	return ids
}

// bruteMatch is the correctness oracle.
func bruteMatch(entries []Entry, p geometry.Point) []int {
	var ids []int
	for _, e := range entries {
		if e.Rect.Contains(p) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
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

func TestBuildValidation(t *testing.T) {
	tests := []struct {
		name    string
		entries []Entry
		opts    Options
		wantErr bool
	}{
		{name: "defaults ok", entries: randomEntries(rand.New(rand.NewSource(1)), 10, 2)},
		{name: "bad skew high", opts: Options{Skew: 0.7}, entries: randomEntries(rand.New(rand.NewSource(1)), 10, 2), wantErr: true},
		{name: "bad skew negative", opts: Options{Skew: -0.1}, entries: randomEntries(rand.New(rand.NewSource(1)), 10, 2), wantErr: true},
		{name: "skew exactly half ok", opts: Options{Skew: 0.5}, entries: randomEntries(rand.New(rand.NewSource(1)), 10, 2)},
		{name: "branch factor 1", opts: Options{BranchFactor: 1}, entries: randomEntries(rand.New(rand.NewSource(1)), 10, 2), wantErr: true},
		{name: "empty set ok", entries: nil},
		{
			name: "mixed dims rejected",
			entries: []Entry{
				{Rect: geometry.NewRect(0, 1), ID: 0},
				{Rect: geometry.NewRect(0, 1, 0, 1), ID: 1},
			},
			wantErr: true,
		},
		{
			name:    "empty rect rejected",
			entries: []Entry{{Rect: geometry.NewRect(5, 5), ID: 0}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Build(tt.entries, tt.opts)
			if (err != nil) != tt.wantErr {
				t.Errorf("Build error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEmptyTree(t *testing.T) {
	tr := MustBuild(nil, Options{})
	if got, st := tr.MatchAppendStats(geometry.Point{1, 2}, nil); got != nil || st != (flat.Stats{}) {
		t.Errorf("empty tree MatchAppendStats = %v %+v, want nil and no effort", got, st)
	}
	if tr.Len() != 0 || tr.Bounds() != nil {
		t.Errorf("empty tree Len=%d Bounds=%v", tr.Len(), tr.Bounds())
	}
	var zero Tree
	if got := query(&zero, geometry.Point{1}); got != nil {
		t.Errorf("zero-value tree MatchAppendStats = %v, want nil", got)
	}
}

func TestSingleLeafTree(t *testing.T) {
	entries := randomEntries(rand.New(rand.NewSource(7)), 5, 2)
	tr := MustBuild(entries, Options{BranchFactor: 8})
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Height != 1 || s.Leaves != 1 {
		t.Errorf("tiny tree stats = %+v, want single leaf", s)
	}
	for i := 0; i < 50; i++ {
		p := randomPoint(rand.New(rand.NewSource(int64(i))), 2)
		if !equalIDs(query(tr, p), bruteMatch(entries, p)) {
			t.Fatalf("mismatch vs brute force at %v", p)
		}
	}
}

func TestPointQueryMatchesBruteForce(t *testing.T) {
	tests := []struct {
		name string
		n    int
		dims int
		opts Options
	}{
		{name: "2d default", n: 500, dims: 2},
		{name: "4d paper params", n: 1000, dims: 4, opts: Options{BranchFactor: 40, Skew: 0.3}},
		{name: "small branch", n: 300, dims: 3, opts: Options{BranchFactor: 4, Skew: 0.25}},
		{name: "max skew", n: 200, dims: 2, opts: Options{BranchFactor: 8, Skew: 0.5}},
		{name: "min-ish skew", n: 200, dims: 2, opts: Options{BranchFactor: 8, Skew: 0.05}},
		{name: "one dim", n: 400, dims: 1, opts: Options{BranchFactor: 10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			entries := randomEntries(rng, tt.n, tt.dims)
			tr := MustBuild(entries, tt.opts)
			if err := tr.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != tt.n {
				t.Fatalf("Len = %d, want %d", tr.Len(), tt.n)
			}
			for i := 0; i < 200; i++ {
				p := randomPoint(rng, tt.dims)
				got, st := tr.MatchAppendStats(p, nil)
				if want := bruteMatch(entries, p); !equalIDs(got, want) {
					t.Fatalf("MatchAppendStats(%v) = %v, want %v", p, got, want)
				}
				if st.Matched != len(got) {
					t.Fatalf("MatchAppendStats(%v).Matched = %d, want %d", p, st.Matched, len(got))
				}
			}
		})
	}
}

func TestPointQueryOnEntryCenters(t *testing.T) {
	// Every entry must be findable by querying its own center: exercises
	// boundary handling through the whole tree.
	rng := rand.New(rand.NewSource(9))
	entries := randomEntries(rng, 600, 3)
	tr := MustBuild(entries, Options{BranchFactor: 10})
	for _, e := range entries {
		c := e.Rect.Center()
		found := false
		for _, id := range query(tr, c) {
			if id == e.ID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("entry %d not found at its own center %v", e.ID, c)
		}
	}
}

func TestRegionQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := randomEntries(rng, 500, 2)
	tr := MustBuild(entries, Options{BranchFactor: 8})
	for i := 0; i < 100; i++ {
		q := randomEntries(rng, 1, 2)[0].Rect
		var want []int
		for _, e := range entries {
			if e.Rect.Intersects(q) {
				want = append(want, e.ID)
			}
		}
		if got := tr.RegionQuery(q); !equalIDs(got, want) {
			t.Fatalf("RegionQuery(%v): got %d ids, want %d", q, len(got), len(want))
		}
	}
}

func TestUnboundedRectangles(t *testing.T) {
	// Paper-style predicates: volume >= 1000 has no upper bound.
	entries := []Entry{
		{Rect: geometry.Rect{geometry.AtLeast(999), {Lo: 0, Hi: 100}}, ID: 0},
		{Rect: geometry.Rect{geometry.AtMost(500), {Lo: 0, Hi: 100}}, ID: 1},
		{Rect: geometry.Rect{geometry.FullInterval(), {Lo: 50, Hi: 60}}, ID: 2},
		{Rect: geometry.Rect{{Lo: 0, Hi: 2000}, geometry.FullInterval()}, ID: 3},
	}
	// Pad with bounded noise so the tree has structure.
	rng := rand.New(rand.NewSource(5))
	for i := 4; i < 200; i++ {
		lo1, lo2 := rng.Float64()*1500, rng.Float64()*90
		entries = append(entries, Entry{
			Rect: geometry.NewRect(lo1, lo1+50, lo2, lo2+5),
			ID:   i,
		})
	}
	tr := MustBuild(entries, Options{BranchFactor: 6})
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		p := geometry.Point{rng.Float64() * 2500, rng.Float64() * 120}
		if !equalIDs(query(tr, p), bruteMatch(entries, p)) {
			t.Fatalf("mismatch vs brute force at %v", p)
		}
	}
}

func TestDuplicateRectangles(t *testing.T) {
	// Many subscribers sharing one subscription rectangle must all match.
	entries := make([]Entry, 0, 64)
	for i := 0; i < 64; i++ {
		entries = append(entries, Entry{Rect: geometry.NewRect(1, 2, 1, 2), ID: i})
	}
	tr := MustBuild(entries, Options{BranchFactor: 4})
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	got := query(tr, geometry.Point{1.5, 1.5})
	if len(got) != 64 {
		t.Fatalf("got %d matches, want 64", len(got))
	}
}

func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	entries := randomEntries(rng, 2000, 2)
	tr := MustBuild(entries, Options{BranchFactor: 10, Skew: 0.3})
	s := tr.Stats()
	if s.MaxBranch > 10 {
		t.Errorf("MaxBranch = %d exceeds M=10", s.MaxBranch)
	}
	if s.Leaves == 0 || s.Nodes <= s.Leaves {
		t.Errorf("implausible stats %+v", s)
	}
	if s.MeanLeafLen <= 0 || s.MeanLeafLen > 10 {
		t.Errorf("MeanLeafLen = %v out of (0, 10]", s.MeanLeafLen)
	}
	if s.Height < 2 {
		t.Errorf("Height = %d, want >= 2 for 2000 entries with M=10", s.Height)
	}
}

func TestQueryStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries := randomEntries(rng, 1000, 2)
	tr := MustBuild(entries, Options{BranchFactor: 10})
	p := randomPoint(rng, 2)
	ids, qs := tr.MatchAppendStats(p, nil)
	if qs.Matched != len(ids) {
		t.Errorf("Matched = %d, want %d", qs.Matched, len(ids))
	}
	if qs.NodesVisited == 0 {
		t.Error("NodesVisited = 0, want > 0")
	}
	if qs.LeavesVisited > qs.NodesVisited {
		t.Errorf("LeavesVisited %d > NodesVisited %d", qs.LeavesVisited, qs.NodesVisited)
	}
	if qs.EntriesTested < len(ids) {
		t.Errorf("EntriesTested %d < matches %d", qs.EntriesTested, len(ids))
	}
	// Pruning must beat brute force on this workload.
	if qs.EntriesTested >= len(entries) {
		t.Errorf("EntriesTested %d shows no pruning over %d entries", qs.EntriesTested, len(entries))
	}
}

func TestSkewBoundsRespected(t *testing.T) {
	// With a high skew factor the tree must be nearly balanced: height
	// is O(log_{1/(1-p)} n). For p=0.5 every split halves, so height
	// <= ceil(log2(n/M)) + 1.
	rng := rand.New(rand.NewSource(17))
	entries := randomEntries(rng, 1024, 2)
	tr := MustBuild(entries, Options{BranchFactor: 8, Skew: 0.5})
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	// 1024/8 = 128 leaves minimum; binary height before compression
	// ~ log2(128)=7; compression only shrinks height.
	if s.Height > 8 {
		t.Errorf("height %d too large for balanced tree", s.Height)
	}
}

func TestPropInvariantsAcrossShapes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(19))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		dims := 1 + rng.Intn(4)
		m := 2 + rng.Intn(20)
		skew := 0.05 + rng.Float64()*0.45
		entries := randomEntries(rng, n, dims)
		tr := MustBuild(entries, Options{BranchFactor: m, Skew: skew})
		if err := tr.checkInvariants(); err != nil {
			t.Logf("seed %d (n=%d dims=%d M=%d p=%.2f): %v", seed, n, dims, m, skew, err)
			return false
		}
		p := randomPoint(rng, dims)
		return equalIDs(query(tr, p), bruteMatch(entries, p))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	entries := randomEntries(rng, 100, 2)
	orig := make([]Entry, len(entries))
	copy(orig, entries)
	MustBuild(entries, Options{BranchFactor: 4})
	for i := range entries {
		if entries[i].ID != orig[i].ID || !entries[i].Rect.Equal(orig[i].Rect) {
			t.Fatalf("Build reordered or mutated caller's slice at %d", i)
		}
	}
}

func BenchmarkBuild1000x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 1000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(entries, Options{})
	}
}

func BenchmarkPointQuery1000x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 1000, 4)
	tr := MustBuild(entries, Options{})
	p := randomPoint(rng, 4)
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tr.MatchAppendStats(p, dst[:0])
	}
}

func TestRegionQueryFuncEarlyStop(t *testing.T) {
	entries := make([]Entry, 50)
	for i := range entries {
		entries[i] = Entry{Rect: geometry.NewRect(0, 10, 0, 10), ID: i}
	}
	tr := MustBuild(entries, Options{BranchFactor: 4})
	calls := 0
	tr.RegionQueryFunc(geometry.NewRect(5, 6, 5, 6), func(int) bool {
		calls++
		return calls < 7
	})
	if calls != 7 {
		t.Errorf("early stop delivered %d, want 7", calls)
	}
	// Empty tree: no calls, no panic.
	var zero Tree
	zero.RegionQueryFunc(geometry.NewRect(0, 1), func(int) bool { t.Fatal("callback on empty"); return false })
}

func TestRegionQueryBoundarySemantics(t *testing.T) {
	// Half-open semantics apply to region intersection too: a query
	// rectangle abutting an entry must not match it.
	entries := []Entry{{Rect: geometry.NewRect(0, 5, 0, 5), ID: 1}}
	tr := MustBuild(entries, Options{})
	if got := tr.RegionQuery(geometry.NewRect(5, 9, 0, 5)); len(got) != 0 {
		t.Errorf("abutting region matched: %v", got)
	}
	if got := tr.RegionQuery(geometry.NewRect(4.999, 9, 0, 5)); len(got) != 1 {
		t.Errorf("overlapping region missed: %v", got)
	}
}

// TestEntryReadsBack: Entry hands back every entry of a tree, in leaf
// order, with its id and the bounds it was built from, without
// allocating; a nil rectangle reads the id alone.
func TestEntryReadsBack(t *testing.T) {
	entries := randomEntries(rand.New(rand.NewSource(7)), 300, 3)
	tr := MustBuild(entries, Options{BranchFactor: 6})
	seen := make([]bool, len(entries))
	r := make(geometry.Rect, 3)
	for e := range tr.Len() {
		id := tr.Entry(e, r)
		if seen[id] || !r.Equal(entries[id].Rect) {
			t.Fatalf("entry %d reads id %d %v (seen before: %v), built from %v", e, id, r, seen[id], entries[id].Rect)
		}
		seen[id] = true
		if got := tr.Entry(e, nil); got != id {
			t.Fatalf("entry %d reads id %d alone, %d with its bounds", e, got, id)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.Entry(17, r) }); allocs != 0 {
		t.Fatalf("Entry allocates %.0f objects", allocs)
	}
}

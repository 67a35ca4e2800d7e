package rtree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/flat"
	"repro/internal/geometry"
)

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

func bruteMatch(entries []Entry, p geometry.Point) []int {
	var ids []int
	for _, e := range entries {
		if e.Rect.Contains(p) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// query returns the ids m reports for p.
func query(m interface {
	MatchAppendStats(geometry.Point, []int) ([]int, flat.Stats)
}, p geometry.Point) []int {
	ids, _ := m.MatchAppendStats(p, nil)
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

func TestHilbertCurveAdjacency(t *testing.T) {
	// Successive cells along a 2-D Hilbert curve are grid neighbours:
	// walk an 8x8 grid in key order and verify each step moves by
	// exactly one in exactly one dimension. This pins down curve
	// correctness, not just ordering consistency.
	type cell struct {
		key  []byte
		x, y uint32
	}
	var cells []cell
	const side = 8
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			// Use coordinates scaled into the top bits so quantisation in
			// hilbertKey ordering is exercised at full precision.
			w := []uint32{x << (bitsPerDim - 3), y << (bitsPerDim - 3)}
			axesToTranspose(w)
			cells = append(cells, cell{key: hilbertKey(w), x: x, y: y})
		}
	}
	sort.Slice(cells, func(i, j int) bool { return bytes.Compare(cells[i].key, cells[j].key) < 0 })
	for i := 1; i < len(cells); i++ {
		dx := int(cells[i].x) - int(cells[i-1].x)
		dy := int(cells[i].y) - int(cells[i-1].y)
		manhattan := abs(dx) + abs(dy)
		if manhattan != 1 {
			t.Fatalf("step %d: (%d,%d) -> (%d,%d) is not a unit grid move",
				i, cells[i-1].x, cells[i-1].y, cells[i].x, cells[i].y)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestHilbertKeysDistinct(t *testing.T) {
	// Distinct grid coordinates must produce distinct keys (the curve is
	// a bijection).
	seen := map[string]bool{}
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			for z := uint32(0); z < 4; z++ {
				w := []uint32{x, y, z}
				axesToTranspose(w)
				k := string(hilbertKey(w))
				if seen[k] {
					t.Fatalf("duplicate key for (%d,%d,%d)", x, y, z)
				}
				seen[k] = true
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Build(randomEntries(rng, 5, 2), Options{BranchFactor: 1}); err == nil {
		t.Error("branch factor 1 accepted")
	}
	mixed := []Entry{
		{Rect: geometry.NewRect(0, 1), ID: 0},
		{Rect: geometry.NewRect(0, 1, 0, 1), ID: 1},
	}
	if _, err := Build(mixed, Options{}); err == nil {
		t.Error("mixed dimensionality accepted")
	}
	if _, err := Build([]Entry{{Rect: geometry.NewRect(3, 3), ID: 0}}, Options{}); err == nil {
		t.Error("empty rectangle accepted")
	}
	if _, err := Build(nil, Options{}); err != nil {
		t.Errorf("empty input rejected: %v", err)
	}
}

func TestEmptyAndZeroTree(t *testing.T) {
	var zero Tree
	if got := query(&zero, geometry.Point{1}); got != nil {
		t.Errorf("zero tree query = %v", got)
	}
	tr := MustBuild(nil, Options{})
	if tr.Len() != 0 || tr.Bounds() != nil || query(tr, geometry.Point{1}) != nil {
		t.Error("empty tree misbehaves")
	}
}

func TestPointQueryMatchesBruteForce(t *testing.T) {
	tests := []struct {
		name string
		n    int
		dims int
		m    int
	}{
		{name: "2d", n: 500, dims: 2, m: 8},
		{name: "4d paper fanout", n: 1000, dims: 4, m: 40},
		{name: "1d", n: 300, dims: 1, m: 4},
		{name: "5d", n: 400, dims: 5, m: 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			entries := randomEntries(rng, tt.n, tt.dims)
			tr := MustBuild(entries, Options{BranchFactor: tt.m})
			for i := 0; i < 200; i++ {
				p := randomPoint(rng, tt.dims)
				got, want := query(tr, p), bruteMatch(entries, p)
				if !equalIDs(got, want) {
					t.Fatalf("MatchAppendStats(%v) = %v, want %v", p, got, want)
				}
			}
		})
	}
}

func TestTreeIsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 4096, 2)
	tr := MustBuild(entries, Options{BranchFactor: 8})
	s := tr.Stats()
	// 4096/8 = 512 leaves, 512/8=64, 64/8=8, 8/8=1: height 4+... leaf
	// level + 3 internal levels = height 4.
	if s.Height != 4 {
		t.Errorf("Height = %d, want 4", s.Height)
	}
	if s.MaxBranch > 8 {
		t.Errorf("MaxBranch = %d exceeds M", s.MaxBranch)
	}
	if s.Leaves != 512 {
		t.Errorf("Leaves = %d, want 512", s.Leaves)
	}
	// Every leaf must sit at the same depth: verify via a full walk.
	depths := map[int]bool{}
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n.isLeaf() {
			depths[d] = true
			return
		}
		for _, c := range n.children {
			walk(c, d+1)
		}
	}
	walk(tr.root, 1)
	if len(depths) != 1 {
		t.Errorf("leaves at multiple depths: %v", depths)
	}
}

func TestQueryStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomEntries(rng, 1000, 2)
	tr := MustBuild(entries, Options{BranchFactor: 10})
	p := randomPoint(rng, 2)
	ids, qs := tr.MatchAppendStats(p, nil)
	if qs.Matched != len(ids) || qs.EntriesTested < len(ids) {
		t.Errorf("inconsistent stats %+v for %d results", qs, len(ids))
	}
	if qs.EntriesTested >= len(entries) {
		t.Errorf("no pruning: tested %d of %d", qs.EntriesTested, len(entries))
	}
}

func TestPropMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		dims := 1 + rng.Intn(4)
		m := 2 + rng.Intn(20)
		entries := randomEntries(rng, n, dims)
		tr := MustBuild(entries, Options{BranchFactor: m})
		p := randomPoint(rng, dims)
		return equalIDs(query(tr, p), bruteMatch(entries, p))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries := randomEntries(rng, 100, 2)
	orig := make([]Entry, len(entries))
	copy(orig, entries)
	MustBuild(entries, Options{BranchFactor: 4})
	for i := range entries {
		if entries[i].ID != orig[i].ID {
			t.Fatalf("Build reordered caller's slice at %d", i)
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

package stree_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/stree"
)

// The allocation-free builder must pack exactly the tree the
// sort.Slice/Rect.Union builder packed: same split points, child order,
// entry order and MBR bits. stree.Identical compares the flattened
// arrays against stree.ReferenceBuild's, and Stats, Bounds and
// match.Describe, which read those arrays, must report what the
// reference's pointer tree does.
//
// The seeds under testdata/fuzz/FuzzBuildEquivalence replay the tie
// cases on every go test, not only in a fuzzing run: every center equal
// (one dimension of AtLeast(1), AtMost(1) and (0.5, 1.5]), every center
// equal on the split axis (those three on an unbounded first of two
// dimensions), wildcard and half-open mixes on a coarse grid, and −0
// bounds next to +0 ones, with M from 2 to 40 and p up to 0.5. The last
// two catch a tie-order change in the sort that the three original seeds
// miss.

func assertIdentical(t *testing.T, name string, entries []stree.Entry, opts stree.Options) {
	t.Helper()
	got, err := stree.Build(entries, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, shape := stree.ReferencePacking(entries, opts)
	if err := stree.Identical(got, ref); err != nil {
		t.Fatalf("%s: packing differs from the reference builder: %v", name, err)
	}
	if st := got.Stats(); st != shape.Stats {
		t.Fatalf("%s: Stats %+v, the pointer tree's %+v", name, st, shape.Stats)
	}
	if b := got.Bounds(); !sameRectBits(b, shape.Bounds) {
		t.Fatalf("%s: Bounds %v, the pointer tree's %v", name, b, shape.Bounds)
	}
	fn, fe := ref.FlatSize()
	want := match.Shape{
		Algorithm: match.AlgSTree.String(), Entries: len(entries),
		Nodes: shape.Stats.Nodes, Leaves: shape.Stats.Leaves, Height: shape.Stats.Height, MaxBranch: shape.Stats.MaxBranch,
		FlatNodes: fn, FlatEntries: fe,
	}
	if d := match.Describe(got); d != want {
		t.Fatalf("%s: Describe %+v, from the pointer tree %+v", name, d, want)
	}
}

// sameRectBits reports whether two rectangles have the same bounds bit for
// bit (−0 is not 0).
func sameRectBits(a, b geometry.Rect) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

func TestBuildIdenticalOnTestbed(t *testing.T) {
	for _, c := range []struct {
		subs      int
		selective bool
		opts      stree.Options
	}{
		{1_000, false, stree.Options{}},
		{1_000, false, stree.Options{BranchFactor: 4, Skew: 0.5}},
		{1_000, true, stree.Options{}},
	} {
		entries := testbedEntries(t, c.subs, c.selective)
		assertIdentical(t, fmt.Sprintf("subs=%d selective=%v %+v", c.subs, c.selective, c.opts), entries, c.opts)
	}
}

// TestBuildIdenticalAtLedgerScale packs the ledger's two in-process
// populations whole: the stock testbed at 10 k and the selective one at
// 100 k (≈ 1.2 s, ≈ 10 s under -race). Both tie heavily where the fuzz
// inputs, at most 600 entries, cannot: bst takes three values and name
// intervals have integer lengths, so thousands of entries share a center
// at the top levels.
func TestBuildIdenticalAtLedgerScale(t *testing.T) {
	for _, c := range []struct {
		subs      int
		selective bool
	}{
		{10_000, false},
		{100_000, true},
	} {
		entries := testbedEntries(t, c.subs, c.selective)
		assertIdentical(t, fmt.Sprintf("subs=%d selective=%v", c.subs, c.selective), entries, stree.Options{})
	}
}

// tiedEntries draws n rectangles over a coarse grid so that centers tie
// heavily: wildcard sides (center 0), half-open sides with integer
// bounds, short bounded sides, −0 and +0 bounds, and every fifth entry
// a duplicate of an earlier rectangle.
func tiedEntries(rng *rand.Rand, n, dims int) []stree.Entry {
	negZero := math.Copysign(0, -1)
	entries := make([]stree.Entry, n)
	for i := range entries {
		if i > 0 && rng.Intn(5) == 0 {
			entries[i] = stree.Entry{Rect: entries[rng.Intn(i)].Rect, ID: i}
			continue
		}
		ivs := make([]geometry.Interval, dims)
		for d := range ivs {
			v := float64(rng.Intn(9) - 4)
			switch rng.Intn(7) {
			case 0:
				ivs[d] = geometry.FullInterval()
			case 1:
				ivs[d] = geometry.AtLeast(v)
			case 2:
				ivs[d] = geometry.AtMost(v)
			case 3:
				ivs[d] = geometry.NewInterval(negZero, 1+float64(rng.Intn(2)))
			case 4:
				ivs[d] = geometry.NewInterval(-1-float64(rng.Intn(2)), negZero)
			case 5:
				ivs[d] = geometry.NewInterval(0, 1)
			default:
				ivs[d] = geometry.NewInterval(v, v+0.5*float64(1+rng.Intn(4)))
			}
		}
		entries[i] = stree.Entry{Rect: geometry.RectOf(ivs...), ID: i}
	}
	return entries
}

// TestBuildIdenticalRandomized crosses 1–8-dimensional tied populations
// with M ∈ {2, 4, 40, 128} and p ∈ {0.05, 0.3, 0.5}. Sizes straddle M,
// and p = 0.5 on an odd-sized node takes the qmax < qmin fallback.
func TestBuildIdenticalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, m := range []int{2, 4, 40, 128} {
		for _, p := range []float64{0.05, 0.3, 0.5} {
			for _, n := range []int{1, 2, 3, m, m + 1, 2*m + 1, 777} {
				dims := 1 + rng.Intn(8)
				opts := stree.Options{BranchFactor: m, Skew: p}
				assertIdentical(t, fmt.Sprintf("M=%d p=%g n=%d dims=%d", m, p, n, dims), tiedEntries(rng, n, dims), opts)
			}
		}
	}
}

// TestBuildIdenticalAcrossShapes crosses the block structure of a split
// sweep with tied populations: M ∈ {2, 3, 7, 40, 64}, p ∈ {0.05, 0.3,
// 0.5} and n ∈ {M+1, 2M, 2M+1, 5M+3, 4 096}. That covers one-candidate
// splits (p = 0.5 on an odd count takes the median fallback), heads and
// tails shorter than M between them, and nodes of many blocks.
func TestBuildIdenticalAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, m := range []int{2, 3, 7, 40, 64} {
		for _, p := range []float64{0.05, 0.3, 0.5} {
			for _, n := range []int{m + 1, 2 * m, 2*m + 1, 5*m + 3, 4096} {
				dims := 1 + rng.Intn(4)
				opts := stree.Options{BranchFactor: m, Skew: p}
				assertIdentical(t, fmt.Sprintf("M=%d p=%g n=%d dims=%d", m, p, n, dims), tiedEntries(rng, n, dims), opts)
			}
		}
	}
}

// FuzzBuildEquivalence builds from fuzzer-chosen rectangles on a coarse
// grid (one byte per side: two bits pick wildcard, half-open or bounded,
// six pick the bound, code 63 is −0) with fuzzer-chosen M and p, and
// compares the packing with the reference builder's.
func FuzzBuildEquivalence(f *testing.F) {
	f.Add(uint8(38), uint8(25), uint8(2), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(0), uint8(45), uint8(0), []byte{0, 64, 128, 192, 63, 127, 191, 255, 1, 2, 3})
	f.Add(uint8(2), uint8(0), uint8(7), make([]byte, 600))
	f.Fuzz(func(t *testing.T, m, p, dims uint8, data []byte) {
		d := 1 + int(dims)%8
		n := min(len(data)/d, 600)
		entries := make([]stree.Entry, n)
		for i := range entries {
			ivs := make([]geometry.Interval, d)
			for k, b := range data[i*d : (i+1)*d] {
				v := float64(int(b&63)-31) / 4
				if b&63 == 63 {
					v = math.Copysign(0, -1)
				}
				switch b >> 6 {
				case 0:
					ivs[k] = geometry.FullInterval()
				case 1:
					ivs[k] = geometry.AtLeast(v)
				case 2:
					ivs[k] = geometry.AtMost(v)
				default:
					ivs[k] = geometry.NewInterval(v, v+1)
				}
			}
			entries[i] = stree.Entry{Rect: geometry.RectOf(ivs...), ID: i}
		}
		opts := stree.Options{BranchFactor: 2 + int(m)%127, Skew: 0.05 + float64(p%46)/100}
		assertIdentical(t, fmt.Sprintf("n=%d dims=%d %+v", n, d, opts), entries, opts)
	})
}

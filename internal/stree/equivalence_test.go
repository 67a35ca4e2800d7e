package stree_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/stree"
)

// The allocation-free builder must pack exactly the tree the
// sort.Slice/Rect.Union builder packed: same split points, child order,
// entry order and MBR bits. stree.Identical compares both the pointer
// trees and the flattened arrays against stree.ReferenceBuild.

func assertIdentical(t *testing.T, name string, entries []stree.Entry, opts stree.Options) {
	t.Helper()
	got, err := stree.Build(entries, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := stree.Identical(got, stree.ReferenceBuild(entries, opts)); err != nil {
		t.Fatalf("%s: packing differs from the reference builder: %v", name, err)
	}
}

func TestBuildIdenticalOnTestbed(t *testing.T) {
	for _, c := range []struct {
		subs      int
		selective bool
		opts      stree.Options
	}{
		{1_000, false, stree.Options{}},
		{1_000, false, stree.Options{BranchFactor: 4, Skew: 0.5}},
		{10_000, false, stree.Options{}},
		{10_000, true, stree.Options{}},
	} {
		entries := testbedEntries(t, c.subs, c.selective)
		assertIdentical(t, fmt.Sprintf("subs=%d selective=%v %+v", c.subs, c.selective, c.opts), entries, c.opts)
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

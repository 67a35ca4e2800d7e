package stree_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/invariant"
	"repro/internal/stree"
)

// buildAllocs is what one Build allocates, at any size: the builder and
// its scratch (slab, pairs, prefix and suffix boxes, union accumulators,
// frame, node and box slabs, and one pointer slab for the BFS order and
// the child lists), the Tree, and the flat tree with its BFS queue and
// arrays.
const buildAllocs = 19

// TestBuildAllocations holds a packing's allocation count to a constant:
// the stock 10 k and selective 100 k testbeds, with ≈ 800 and ≈ 8 000
// binary nodes, allocate the same objects. The collector is off while it
// counts: a collection that starts inside a run books runtime
// allocations of its own.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("allocation counts are not meaningful under -race or the invariant checks")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name      string
		subs      int
		selective bool
	}{
		{"stock-10k", 10_000, false},
		{"selective-100k", 100_000, true},
	} {
		entries := testbedEntries(t, c.subs, c.selective)
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := stree.Build(entries, stree.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != buildAllocs {
			t.Errorf("%s: Build allocates %v objects, want %d", c.name, allocs, buildAllocs)
		}
	}
}

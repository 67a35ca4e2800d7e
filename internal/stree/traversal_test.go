package stree_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/flat"
	"repro/internal/stree"
	"repro/internal/workload"
)

// TestStockTraversalCounts pins the walk, not its speed: the summed
// effort counters of a fixed ring of stock publications against the
// seeded Section 5 testbed, as the flattened walk reported them before
// the plane-at-a-time kernel replaced it (PR 21's parent). A kernel may
// change what a test of one entry costs; it may not change which nodes
// and entries are tested or what matches. The abl-match counts in
// EXPERIMENTS.md rest on the same walk.
func TestStockTraversalCounts(t *testing.T) {
	ring := workload.MustStockPublications(9).SampleN(rand.New(rand.NewSource(3)), 1024)
	for _, c := range []struct {
		subs int
		want flat.Stats
	}{
		{1_000, flat.Stats{NodesVisited: 15_368, LeavesVisited: 14_717, EntriesTested: 374_671, Matched: 15_284}},
		{10_000, flat.Stats{NodesVisited: 143_000, LeavesVisited: 135_380, EntriesTested: 3_336_866, Matched: 150_634}},
	} {
		cfg := workload.DefaultSubscriptionConfig()
		cfg.Count = c.subs
		bed, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]stree.Entry, len(bed.Subs))
		for i, s := range bed.Subs {
			entries[i] = stree.Entry{Rect: s.Rect, ID: i}
		}
		tree := stree.MustBuild(entries, stree.Options{})

		var sum flat.Stats
		var dst []int
		for _, p := range ring {
			var st flat.Stats
			dst, st = tree.MatchAppendStats(p, dst[:0])
			sum.Add(st)
		}
		if sum != c.want {
			t.Errorf("%d subscriptions: MatchAppendStats summed over %d points = %+v, want %+v", c.subs, len(ring), sum, c.want)
		}
	}
}

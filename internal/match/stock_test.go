package match_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/match"
	"repro/internal/workload"
)

// TestStockMatcherCounts pins all five matchers on the stock model: the
// seeded Section 5 testbed's 1000 subscriptions and a fixed ring of 1024
// nine-mode stock publications. For each it pins the summed effort
// counters and an order-sensitive checksum of every id the queries
// returned, so a change to a matcher may change its speed but not which
// nodes and entries it tests, what it returns, or in what order. The
// S-tree row is TestStockTraversalCounts' 1 k row (internal/stree).
func TestStockMatcherCounts(t *testing.T) {
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = 1000
	bed, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]match.Subscription, len(bed.Subs))
	for i, s := range bed.Subs {
		subs[i] = match.Subscription{Rect: s.Rect, SubscriberID: i}
	}
	ring := workload.MustStockPublications(9).SampleN(rand.New(rand.NewSource(3)), 1024)
	for _, c := range []struct {
		alg  match.Algorithm
		want match.QueryStats
		sum  uint64
	}{
		{match.AlgSTree, match.QueryStats{NodesVisited: 15_368, LeavesVisited: 14_717, EntriesTested: 374_671, Matched: 15_284}, 0x84e1b9d5aa0e88d1},
		{match.AlgHilbertRTree, match.QueryStats{NodesVisited: 5_631, LeavesVisited: 4_980, EntriesTested: 199_200, Matched: 15_284}, 0x0f6794ca130ece0f},
		{match.AlgDynamicRTree, match.QueryStats{NodesVisited: 4_068, LeavesVisited: 3_417, EntriesTested: 90_778, Matched: 15_284}, 0x5130cacc16052ee3},
		{match.AlgPredCount, match.QueryStats{Matched: 15_284}, 0xb96f6e781e5fec17},
		{match.AlgBruteForce, match.QueryStats{EntriesTested: 1_024_000, Matched: 15_284}, 0xb96f6e781e5fec17},
	} {
		m := match.MustNew(subs, match.Options{Algorithm: c.alg})
		var got match.QueryStats
		sum := uint64(14695981039346656037) // FNV-1a offset basis
		var ids []int
		for _, p := range ring {
			var qs match.QueryStats
			ids, qs = m.MatchAppendStats(p, ids[:0])
			got.Add(qs)
			sum = fold(sum, ids)
		}
		if got != c.want || sum != c.sum {
			t.Errorf("%v over %d points: %+v, ids checksum %#x; want %+v, %#x", c.alg, len(ring), got, sum, c.want, c.sum)
		}
	}
}

// fold hashes ids, in order and followed by their count, into h (FNV-1a
// over whole ids), so that a dropped, added or reordered id changes it.
func fold(h uint64, ids []int) uint64 {
	const prime = 1099511628211
	for _, id := range ids {
		h = (h ^ uint64(id)) * prime
	}
	return (h ^ uint64(len(ids))) * prime
}

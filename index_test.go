package pubsub_test

import (
	"math/rand"
	"testing"

	pubsub "repro"
)

// TestIndexQueryAllocations guards the facade's allocation counts for
// every algorithm, on 2 000 random 10×10 rectangles in 2-D queried at
// (50, 50), where 31 of them match: Count allocates nothing, and
// MatchEach, Match and PointQueryStats no more than they did when each
// had a matcher method of its own (1, 6 and 8).
func TestIndexQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(1))
	subs := make([]pubsub.Subscription, 2000)
	for i := range subs {
		x, y := rng.Float64()*90, rng.Float64()*90
		subs[i] = pubsub.Subscription{Rect: pubsub.NewRect(x, x+10, y, y+10), SubscriberID: i}
	}
	p := pubsub.Point{50, 50}
	for _, alg := range []pubsub.IndexAlgorithm{pubsub.STree, pubsub.HilbertRTree, pubsub.DynamicRTree, pubsub.PredCount, pubsub.BruteForce} {
		ix, err := pubsub.NewIndex(subs, pubsub.IndexOptions{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, c := range []struct {
			name  string
			limit float64
			query func()
		}{
			{"Count", 0, func() { ix.Count(p) }},
			{"MatchEach", 1, func() { ix.MatchEach(p, func(int) bool { seen++; return true }) }},
			{"Match", 6, func() { ix.Match(p) }},
			{"PointQueryStats", 8, func() { ix.PointQueryStats(p) }},
		} {
			if got := testing.AllocsPerRun(100, c.query); got > c.limit {
				t.Errorf("%v: %s allocates %v times per query, want at most %v", alg, c.name, got, c.limit)
			}
		}
		if seen == 0 {
			t.Errorf("%v: MatchEach streamed no ids", alg)
		}
	}
}

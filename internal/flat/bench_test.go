package flat_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiment"
	"repro/internal/geometry"
	"repro/internal/stree"
	"repro/internal/workload"
)

// stockTree packs n subscriptions of the Section 5 testbed into an
// S-tree and returns it with a ring of nine-mode stock publications.
// selective applies the ledger's narrowing (bench/workloads.go,
// selectiveConfig): no wildcard or half-open sides, unit name intervals,
// Pareto(0.25, 1.5) quote and volume lengths.
func stockTree(tb testing.TB, n int, selective bool) (*stree.Tree, []geometry.Point) {
	tb.Helper()
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = n
	if selective {
		cfg.NameLengthMax = 1
		narrow := workload.PriceParams()
		narrow.Q0, narrow.Q1, narrow.Q2 = 0, 0, 0
		narrow.ParetoScale, narrow.ParetoAlpha = 0.25, 1.5
		cfg.Price, cfg.Volume = narrow, narrow
	}
	bed, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &cfg}, experiment.DefaultSeed)
	if err != nil {
		tb.Fatal(err)
	}
	entries := make([]stree.Entry, len(bed.Subs))
	for i, s := range bed.Subs {
		entries[i] = stree.Entry{Rect: s.Rect, ID: i}
	}
	tree, err := stree.Build(entries, stree.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ring := workload.MustStockPublications(9).SampleN(rand.New(rand.NewSource(3)), 4096)
	return tree, ring
}

var benchSink int

// BenchmarkPointAppend times one point query through the flattened
// S-tree (stree's MatchAppendStats is PointAppend plus a pooled stack) on
// the ledger's two in-process populations: the stock model at 10 k and
// the selective model at 100 k.
func BenchmarkPointAppend(b *testing.B) {
	for _, c := range []struct {
		name      string
		subs      int
		selective bool
	}{
		{"stock-10k", 10_000, false},
		{"selective-100k", 100_000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			tree, ring := stockTree(b, c.subs, c.selective)
			var dst []int
			for _, p := range ring {
				dst, _ = tree.MatchAppendStats(p, dst[:0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = tree.MatchAppendStats(ring[i%len(ring)], dst[:0])
			}
			benchSink = len(dst)
		})
	}
}

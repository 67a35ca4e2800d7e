package flat_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/experiment"
	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/stree"
	"repro/internal/workload"
)

// paperRects draws n subscriptions of the Section 5 testbed. selective
// applies the ledger's narrowing (bench/workloads.go, selectiveConfig):
// no wildcard or half-open sides, unit name intervals, Pareto(0.25, 1.5)
// quote and volume lengths.
func paperRects(tb testing.TB, n int, selective bool) []geometry.Rect {
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
	rects := make([]geometry.Rect, len(bed.Subs))
	for i, s := range bed.Subs {
		rects[i] = s.Rect
	}
	return rects
}

// partitionRects builds the ledger's durable population (bench/workloads.go,
// partition): n subscriptions that are wildcards on every dimension but the
// name, which they cut into n intervals holding equally many ring points.
func partitionRects(ring []geometry.Point, n int) []geometry.Rect {
	names := make([]float64, len(ring))
	for i, p := range ring {
		names[i] = p[workload.DimName]
	}
	sort.Float64s(names)
	rects := make([]geometry.Rect, n)
	lo := math.Inf(-1)
	for i := range rects {
		hi := math.Inf(1)
		if i < n-1 {
			hi = names[(i+1)*len(names)/n]
		}
		rects[i] = geometry.FullRect(len(ring[0]))
		rects[i][workload.DimName] = geometry.NewInterval(lo, hi)
		lo = hi
	}
	return rects
}

// packTree packs rects into an S-tree, rect i with id i.
func packTree(tb testing.TB, rects []geometry.Rect) *stree.Tree {
	tb.Helper()
	entries := make([]stree.Entry, len(rects))
	for i, r := range rects {
		entries[i] = stree.Entry{Rect: r, ID: i}
	}
	tree, err := stree.Build(entries, stree.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

var benchSink int

// BenchmarkPointAppend times one point query through the flattened
// S-tree (stree's MatchAppendStats is PointAppend plus a pooled stack) on
// the ledger's three in-process populations: the stock model at 10 k, the
// selective model at 100 k and durable's 100 name partitions, where a
// query is so small that the per-call overhead dominates. It reports the
// nodes entered and the entries tested per query.
func BenchmarkPointAppend(b *testing.B) {
	ring := workload.MustStockPublications(9).SampleN(rand.New(rand.NewSource(3)), 4096)
	for _, c := range []struct {
		name  string
		rects func(testing.TB) []geometry.Rect
	}{
		{"stock-10k", func(tb testing.TB) []geometry.Rect { return paperRects(tb, 10_000, false) }},
		{"selective-100k", func(tb testing.TB) []geometry.Rect { return paperRects(tb, 100_000, true) }},
		{"durable-100", func(testing.TB) []geometry.Rect { return partitionRects(ring, 100) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			tree := packTree(b, c.rects(b))
			var dst []int
			for _, p := range ring {
				dst, _ = tree.MatchAppendStats(p, dst[:0])
			}
			nodes, entries := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st flat.Stats
				dst, st = tree.MatchAppendStats(ring[i%len(ring)], dst[:0])
				nodes += st.NodesVisited
				entries += st.EntriesTested
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
			benchSink = len(dst)
		})
	}
}

package stree_test

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/stree"
	"repro/internal/workload"
)

// testbedEntries returns n subscriptions of the seeded Section 5 testbed
// as S-tree entries. selective applies the ledger's narrowing
// (bench/workloads.go, selectiveConfig): no wildcard or half-open sides,
// unit name intervals, Pareto(0.25, 1.5) quote and volume lengths.
func testbedEntries(tb testing.TB, n int, selective bool) []stree.Entry {
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
	return entries
}

// BenchmarkBuild times one S-tree packing (binarization, compression
// and flattening) over the ledger's two in-process populations: the
// stock model at 10 k and the selective model at 100 k.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name      string
		subs      int
		selective bool
	}{
		{"stock-10k", 10_000, false},
		{"selective-100k", 100_000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			entries := testbedEntries(b, c.subs, c.selective)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stree.Build(entries, stree.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

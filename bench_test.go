// Benchmarks, one per paper artifact (see DESIGN.md's per-experiment
// index) plus micro-benchmarks of the core data structures. The bench
// harness that prints the actual figures/tables is cmd/pubsub-bench;
// these testing.B entries time the same code paths and report the key
// quality metrics via b.ReportMetric. Broker throughput and latency are
// measured by the performance ledger (bash bench/run.sh); the publish
// path's zero-allocation contract is held by
// TestPublishZeroAllocSteadyState in internal/broker.
package pubsub_test

import (
	"math/rand"
	"testing"

	pubsub "repro"
	"repro/internal/cluster"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/match"
	"repro/internal/multicast"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkFig3Topology times generation of the paper's ~600-node
// transit-stub topology.
func BenchmarkFig3Topology(b *testing.B) {
	rng := rand.New(rand.NewSource(experiment.DefaultSeed))
	var nodes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := topology.Generate(topology.DefaultConfig(), rng)
		if err != nil {
			b.Fatal(err)
		}
		nodes = g.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkFig4DataAnalysis times the synthetic-tape generation plus the
// Figure 4 distribution fits.
func BenchmarkFig4DataAnalysis(b *testing.B) {
	cfg := workload.DefaultTapeConfig()
	cfg.Trades = 20000
	var r2 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig4DataAnalysis(cfg, experiment.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		r2 = r.PriceFit.R2
	}
	b.ReportMetric(r2, "price-fit-R2")
}

// BenchmarkFig5TopStocks times the per-stock Figure 5 profiles.
func BenchmarkFig5TopStocks(b *testing.B) {
	cfg := workload.DefaultTapeConfig()
	cfg.Trades = 20000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig5TopStocks(cfg, 3, experiment.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTbl1SubscriptionGen times generation of the paper's 1000
// subscriptions from the Section 5 parameter table.
func BenchmarkTbl1SubscriptionGen(b *testing.B) {
	rng := rand.New(rand.NewSource(experiment.DefaultSeed))
	g := topology.MustGenerate(topology.DefaultConfig(), rng)
	space := workload.StockSpace()
	cfg := workload.DefaultSubscriptionConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.GenerateSubscriptions(g, space, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// fig6Bench builds the full testbed once and returns a planner plus a
// fixed publication stream.
func fig6Bench(b *testing.B, alg cluster.Algorithm, groups int, threshold float64) (*dispatch.Planner, []pubsub.Point, []int) {
	b.Helper()
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	model := workload.MustStockPublications(9)
	interests := make([]cluster.Interest, len(tb.Subs))
	msubs := make([]match.Subscription, len(tb.Subs))
	nodes := make([]int, len(tb.Subs))
	for i, s := range tb.Subs {
		interests[i] = cluster.Interest{Rect: s.Rect, Subscriber: s.ID}
		msubs[i] = match.Subscription{Rect: s.Rect, SubscriberID: s.ID}
		nodes[i] = s.Node
	}
	clu, err := cluster.Build(interests, model, tb.Space.Domain, cluster.Config{Groups: groups, Algorithm: alg})
	if err != nil {
		b.Fatal(err)
	}
	matcher, err := match.New(msubs, match.Options{Algorithm: match.AlgSTree})
	if err != nil {
		b.Fatal(err)
	}
	planner, err := dispatch.NewPlanner(clu, matcher, multicast.NewCostModel(tb.Graph), nodes,
		dispatch.Config{Threshold: threshold})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	stubs := tb.Graph.NodesByRole(topology.RoleStub)
	events := make([]pubsub.Point, 4096)
	pubsNodes := make([]int, len(events))
	for i := range events {
		events[i] = model.Sample(rng)
		pubsNodes[i] = stubs[rng.Intn(len(stubs))]
	}
	return planner, events, pubsNodes
}

// BenchmarkFig6DistributionMethod times one online delivery decision
// (locate + match + threshold rule + cost accounting) on the paper's
// testbed at the best threshold, and reports the achieved improvement.
func BenchmarkFig6DistributionMethod(b *testing.B) {
	planner, events, pubNodes := fig6Bench(b, cluster.AlgForgyKMeans, 11, 0.10)
	var tot dispatch.Totals
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(events)
		d, err := planner.Deliver(pubNodes[j], events[j])
		if err != nil {
			b.Fatal(err)
		}
		tot.Add(d)
	}
	b.ReportMetric(tot.Improvement(), "improvement%")
}

// BenchmarkMatchers compares the five matching algorithms on the paper's
// workload scale (1000 subscriptions, 4 dimensions), timing the query
// abl-match and the broker run: append into a reused buffer.
func BenchmarkMatchers(b *testing.B) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]match.Subscription, len(tb.Subs))
	for i, s := range tb.Subs {
		subs[i] = match.Subscription{Rect: s.Rect, SubscriberID: s.ID}
	}
	model := workload.MustStockPublications(9)
	rng := rand.New(rand.NewSource(3))
	events := make([]pubsub.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}
	for _, alg := range []match.Algorithm{match.AlgSTree, match.AlgHilbertRTree, match.AlgDynamicRTree, match.AlgPredCount, match.AlgBruteForce} {
		b.Run(alg.String(), func(b *testing.B) {
			m, err := match.New(subs, match.Options{Algorithm: alg})
			if err != nil {
				b.Fatal(err)
			}
			var ids []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, _ = m.MatchAppendStats(events[i%len(events)], ids[:0])
			}
		})
	}
}

// BenchmarkStreeSkew measures S-tree build time across skew factors —
// abl-skew.
func BenchmarkStreeSkew(b *testing.B) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]match.Subscription, len(tb.Subs))
	for i, s := range tb.Subs {
		subs[i] = match.Subscription{Rect: s.Rect, SubscriberID: s.ID}
	}
	for _, skew := range []float64{0.1, 0.3, 0.5} {
		b.Run(float64Name(skew), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := match.New(subs, match.Options{Algorithm: match.AlgSTree, Skew: skew}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreeBranch measures S-tree build time across branch factors —
// abl-branch.
func BenchmarkStreeBranch(b *testing.B) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]match.Subscription, len(tb.Subs))
	for i, s := range tb.Subs {
		subs[i] = match.Subscription{Rect: s.Rect, SubscriberID: s.ID}
	}
	for _, m := range []int{8, 40, 128} {
		b.Run(intName(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := match.New(subs, match.Options{Algorithm: match.AlgSTree, BranchFactor: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterAlgos times the three clustering algorithms on the
// paper's preprocessing workload — abl-cluster. The paper reports Forgy
// k-means fastest and pairwise grouping slowest.
func BenchmarkClusterAlgos(b *testing.B) {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{}, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	model := workload.MustStockPublications(9)
	interests := make([]cluster.Interest, len(tb.Subs))
	for i, s := range tb.Subs {
		interests[i] = cluster.Interest{Rect: s.Rect, Subscriber: s.ID}
	}
	for _, alg := range []cluster.Algorithm{cluster.AlgForgyKMeans, cluster.AlgPairwise, cluster.AlgMST} {
		b.Run(alg.String(), func(b *testing.B) {
			var waste float64
			for i := 0; i < b.N; i++ {
				clu, err := cluster.Build(interests, model, tb.Space.Domain,
					cluster.Config{Groups: 11, Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
				waste = clu.TotalWaste()
			}
			b.ReportMetric(waste, "waste")
		})
	}
}

func float64Name(f float64) string {
	switch f {
	case 0.1:
		return "p=0.1"
	case 0.3:
		return "p=0.3"
	case 0.5:
		return "p=0.5"
	}
	return "p"
}

func intName(m int) string {
	switch m {
	case 8:
		return "M=8"
	case 40:
		return "M=40"
	case 128:
		return "M=128"
	}
	return "M"
}

package dispatch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/multicast"
	"repro/internal/topology"
	"repro/internal/workload"
)

// fixture builds a small but complete pipeline: topology, subscriptions,
// clustering, matcher, planner.
type fixture struct {
	g          *topology.Graph
	subs       []workload.PlacedSubscription
	clustering *cluster.Clustering
	matcher    match.Matcher
	cost       *multicast.CostModel
	nodes      []int
	model      workload.PublicationModel
}

func newFixture(t *testing.T, groups int, alg cluster.Algorithm) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(2003))
	g := topology.MustGenerate(topology.DefaultConfig(), rng)
	space := workload.StockSpace()
	cfg := workload.DefaultSubscriptionConfig()
	cfg.Count = 300
	subs, err := workload.GenerateSubscriptions(g, space, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := workload.MustStockPublications(9)

	interests := make([]cluster.Interest, len(subs))
	msubs := make([]match.Subscription, len(subs))
	nodes := make([]int, len(subs))
	for i, s := range subs {
		interests[i] = cluster.Interest{Rect: s.Rect, Subscriber: s.ID}
		msubs[i] = match.Subscription{Rect: s.Rect, SubscriberID: s.ID}
		nodes[i] = s.Node
	}
	clustering, err := cluster.Build(interests, model, space.Domain, cluster.Config{
		Groups: groups, TopCells: 100, GridRes: 8, Algorithm: alg,
	})
	if err != nil {
		t.Fatal(err)
	}
	matcher := match.MustNew(msubs, match.Options{Algorithm: match.AlgSTree})
	return &fixture{
		g:          g,
		subs:       subs,
		clustering: clustering,
		matcher:    matcher,
		cost:       multicast.NewCostModel(g),
		nodes:      nodes,
		model:      model,
	}
}

func (f *fixture) planner(t *testing.T, threshold float64) *Planner {
	t.Helper()
	p, err := NewPlanner(f.clustering, f.matcher, f.cost, f.nodes, Config{Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlannerValidation(t *testing.T) {
	f := newFixture(t, 5, cluster.AlgForgyKMeans)
	if _, err := NewPlanner(f.clustering, f.matcher, f.cost, f.nodes, Config{Threshold: -0.1}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewPlanner(f.clustering, f.matcher, f.cost, f.nodes, Config{Threshold: 1.1}); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := NewPlanner(nil, f.matcher, f.cost, f.nodes, Config{}); err == nil {
		t.Error("nil clustering accepted")
	}
	if _, err := NewPlanner(f.clustering, nil, f.cost, f.nodes, Config{}); err == nil {
		t.Error("nil matcher accepted")
	}
	if _, err := NewPlanner(f.clustering, f.matcher, nil, f.nodes, Config{}); err == nil {
		t.Error("nil cost model accepted")
	}
	bad := append([]int(nil), f.nodes...)
	bad[0] = -5
	if _, err := NewPlanner(f.clustering, f.matcher, f.cost, bad, Config{}); err == nil {
		t.Error("invalid node mapping accepted")
	}
}

func TestMethodString(t *testing.T) {
	if MethodNone.String() != "none" || MethodUnicast.String() != "unicast" || MethodMulticast.String() != "multicast" {
		t.Error("method names wrong")
	}
	if Method(7).String() != "method(7)" {
		t.Error("unknown method name wrong")
	}
}

func TestDeliverDecisions(t *testing.T) {
	f := newFixture(t, 11, cluster.AlgForgyKMeans)
	p := f.planner(t, 0.15)
	rng := rand.New(rand.NewSource(7))
	publishers := f.g.NodesByRole(topology.RoleTransit)

	sawMulticast, sawUnicast, sawNone := false, false, false
	for i := 0; i < 3000; i++ {
		ev := f.model.Sample(rng)
		pub := publishers[rng.Intn(len(publishers))]
		d, err := p.Deliver(pub, ev)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check against brute-force matching.
		want := len(match.MatchSet(match.BruteForce(bruteSubs(f)), ev))
		if d.Interested != want {
			t.Fatalf("Interested = %d, want %d", d.Interested, want)
		}
		switch d.Method {
		case MethodNone:
			sawNone = true
			if d.Interested != 0 {
				t.Fatalf("MethodNone with %d interested", d.Interested)
			}
			if d.Cost != 0 {
				t.Fatalf("MethodNone with cost %v", d.Cost)
			}
		case MethodUnicast:
			sawUnicast = true
			if d.Cost != d.UnicastCost {
				t.Fatalf("unicast cost %v != %v", d.Cost, d.UnicastCost)
			}
			if d.Group >= 0 {
				ratio := float64(d.Interested) / float64(d.GroupSize)
				if ratio >= p.Threshold() {
					t.Fatalf("unicast chosen at ratio %v >= threshold %v", ratio, p.Threshold())
				}
			}
		case MethodMulticast:
			sawMulticast = true
			if d.Group < 0 {
				t.Fatal("multicast outside any group")
			}
			ratio := float64(d.Interested) / float64(d.GroupSize)
			if ratio < p.Threshold() {
				t.Fatalf("multicast chosen at ratio %v < threshold %v", ratio, p.Threshold())
			}
			// Multicast to a superset of the interested nodes can never
			// be cheaper than the ideal.
			if d.Cost < d.IdealCost-1e-9 {
				t.Fatalf("multicast cost %v below ideal %v", d.Cost, d.IdealCost)
			}
		}
		if d.Method != MethodNone {
			if d.IdealCost > d.UnicastCost+1e-9 {
				t.Fatalf("ideal %v above unicast %v", d.IdealCost, d.UnicastCost)
			}
		}
	}
	if !sawMulticast || !sawUnicast || !sawNone {
		t.Errorf("decision variety: multicast=%v unicast=%v none=%v — all should occur",
			sawMulticast, sawUnicast, sawNone)
	}
}

func bruteSubs(f *fixture) []match.Subscription {
	out := make([]match.Subscription, len(f.subs))
	for i, s := range f.subs {
		out[i] = match.Subscription{Rect: s.Rect, SubscriberID: s.ID}
	}
	return out
}

func TestZeroThresholdAlwaysMulticastsInGroups(t *testing.T) {
	f := newFixture(t, 11, cluster.AlgForgyKMeans)
	p := f.planner(t, 0)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		ev := f.model.Sample(rng)
		d, err := p.Deliver(0, ev)
		if err != nil {
			t.Fatal(err)
		}
		if d.Group >= 0 && d.Interested > 0 && d.Method != MethodMulticast {
			t.Fatalf("threshold 0 chose %v inside group %d", d.Method, d.Group)
		}
	}
}

func TestFullThresholdAlwaysUnicasts(t *testing.T) {
	f := newFixture(t, 11, cluster.AlgForgyKMeans)
	p := f.planner(t, 1.0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		ev := f.model.Sample(rng)
		d, err := p.Deliver(0, ev)
		if err != nil {
			t.Fatal(err)
		}
		// ratio < 1 except when the whole group is interested.
		if d.Method == MethodMulticast && d.Interested < d.GroupSize {
			t.Fatalf("threshold 1 multicast with ratio %d/%d", d.Interested, d.GroupSize)
		}
	}
}

func TestCatchAllIsUnicast(t *testing.T) {
	f := newFixture(t, 5, cluster.AlgForgyKMeans)
	p := f.planner(t, 0.15)
	// An event far outside the domain matches nobody: MethodNone.
	d, err := p.Deliver(0, geometry.Point{-100, -100, -100, -100})
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != MethodNone || d.Group != -1 {
		t.Errorf("far-out event: %+v", d)
	}
}

func TestTotalsAccumulation(t *testing.T) {
	var tot Totals
	tot.Add(Decision{Method: MethodUnicast, Cost: 10, UnicastCost: 10, IdealCost: 5})
	tot.Add(Decision{Method: MethodMulticast, Cost: 7, UnicastCost: 10, IdealCost: 5})
	tot.Add(Decision{Method: MethodNone})
	if tot.Messages != 3 || tot.Unicasts != 1 || tot.Multicasts != 1 || tot.Suppressed != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Cost != 17 || tot.UnicastCost != 20 || tot.IdealCost != 10 {
		t.Fatalf("costs = %+v", tot)
	}
	// Improvement: (20-17)/(20-10) = 30%.
	if got := tot.Improvement(); math.Abs(got-30) > 1e-9 {
		t.Errorf("Improvement = %v, want 30", got)
	}
}

func TestDynamicBeatsPureMulticastHere(t *testing.T) {
	// The paper's core claim (Figure 6): a moderate threshold improves on
	// threshold 0 (pure multicast) for the 9-mode workload.
	f := newFixture(t, 11, cluster.AlgForgyKMeans)
	rng := rand.New(rand.NewSource(10))
	events := f.model.SampleN(rng, 4000)
	publishers := f.g.NodesByRole(topology.RoleTransit)
	pubs := make([]int, len(events))
	for i := range pubs {
		pubs[i] = publishers[rng.Intn(len(publishers))]
	}

	run := func(threshold float64) Totals {
		p := f.planner(t, threshold)
		var tot Totals
		for i, ev := range events {
			d, err := p.Deliver(pubs[i], ev)
			if err != nil {
				t.Fatal(err)
			}
			tot.Add(d)
		}
		return tot
	}
	pure := run(0)
	dynamic := run(0.15)
	if dynamic.Cost > pure.Cost {
		t.Errorf("dynamic scheme cost %v exceeds pure multicast %v", dynamic.Cost, pure.Cost)
	}
	if dynamic.Improvement() < pure.Improvement() {
		t.Errorf("dynamic improvement %.1f%% below pure multicast %.1f%%",
			dynamic.Improvement(), pure.Improvement())
	}
}

func TestPlannerWorksWithAllClusterAlgorithms(t *testing.T) {
	for _, alg := range []cluster.Algorithm{cluster.AlgForgyKMeans, cluster.AlgPairwise, cluster.AlgMST} {
		t.Run(alg.String(), func(t *testing.T) {
			f := newFixture(t, 7, alg)
			p := f.planner(t, 0.15)
			rng := rand.New(rand.NewSource(11))
			var tot Totals
			for i := 0; i < 500; i++ {
				d, err := p.Deliver(rng.Intn(f.g.NumNodes()), f.model.Sample(rng))
				if err != nil {
					t.Fatal(err)
				}
				tot.Add(d)
			}
			if tot.Messages != 500 {
				t.Errorf("messages = %d", tot.Messages)
			}
		})
	}
}

func TestPropDecisionInvariants(t *testing.T) {
	// Across random thresholds and publishers, every decision satisfies
	// the structural invariants: costs ordered, method consistent with
	// the rule, counts sane.
	f := newFixture(t, 9, cluster.AlgForgyKMeans)
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(77))}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		th := rng.Float64()
		p, err := NewPlanner(f.clustering, f.matcher, f.cost, f.nodes, Config{Threshold: th})
		if err != nil {
			t.Log(err)
			return false
		}
		for i := 0; i < 60; i++ {
			d, err := p.Deliver(rng.Intn(f.g.NumNodes()), f.model.Sample(rng))
			if err != nil {
				t.Log(err)
				return false
			}
			const eps = 1e-9
			switch {
			case d.Interested < 0,
				d.Group >= f.clustering.NumGroups(),
				d.Method == MethodNone && d.Cost != 0,
				d.Method != MethodNone && d.IdealCost > d.UnicastCost+eps,
				d.Method == MethodUnicast && d.Cost != d.UnicastCost,
				d.Method == MethodMulticast && d.Group < 0,
				d.Method == MethodMulticast && d.Cost < d.IdealCost-eps:
				t.Logf("seed %d: invariant violated: %s (threshold %.2f)", seed, d, th)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/multicast"
	"repro/internal/stree"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// abl-match: the five matchers (S-tree, Hilbert and dynamic R-trees,
// predicate counting, brute force), scaling in k and N.
// This is the comparison the paper defers to "a subsequent paper".
// ---------------------------------------------------------------------

// MatchScalePoint is one (algorithm, k, N) measurement.
type MatchScalePoint struct {
	Algorithm match.Algorithm
	K         int // number of subscriptions
	N         int // dimensions

	BuildTime    time.Duration
	QueryTime    time.Duration // mean per point query
	NodesVisited float64       // mean; 0 for the matchers without a tree
	Matches      float64       // mean result size (sanity)
}

// MatchScaleConfig parameterises abl-match. Zero fields get defaults.
type MatchScaleConfig struct {
	Seed    int64
	Ks      []int
	Ns      []int
	Queries int
}

func (c MatchScaleConfig) withDefaults() MatchScaleConfig {
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1000, 5000, 20000}
	}
	if len(c.Ns) == 0 {
		c.Ns = []int{2, 4, 8}
	}
	if c.Queries == 0 {
		c.Queries = 2000
	}
	return c
}

// randomRects draws k axis-aligned rectangles in [0,100)^n with sides up
// to ~10 units, mimicking range subscriptions.
func randomRects(rng *rand.Rand, k, n int) []geometry.Rect {
	out := make([]geometry.Rect, k)
	for i := range out {
		r := make(geometry.Rect, n)
		for d := range r {
			lo := rng.Float64() * 95
			r[d] = geometry.NewInterval(lo, lo+0.5+rng.Float64()*10)
		}
		out[i] = r
	}
	return out
}

// AblMatchScaling measures matching performance across algorithms, k and
// N.
func AblMatchScaling(cfg MatchScaleConfig) ([]MatchScalePoint, error) {
	cfg = cfg.withDefaults()
	var points []MatchScalePoint
	for _, n := range cfg.Ns {
		for _, k := range cfg.Ks {
			rng := rand.New(rand.NewSource(cfg.Seed))
			rects := randomRects(rng, k, n)
			subs := make([]match.Subscription, k)
			for i, r := range rects {
				subs[i] = match.Subscription{Rect: r, SubscriberID: i}
			}
			queries := make([]geometry.Point, cfg.Queries)
			for i := range queries {
				p := make(geometry.Point, n)
				for d := range p {
					p[d] = rng.Float64() * 100
				}
				queries[i] = p
			}
			for _, alg := range []match.Algorithm{match.AlgSTree, match.AlgHilbertRTree, match.AlgDynamicRTree, match.AlgPredCount, match.AlgBruteForce} {
				//pubsub:allow nodeterm -- wall-clock here measures build cost, it never feeds simulation state
				start := time.Now()
				m, err := match.New(subs, match.Options{Algorithm: alg})
				if err != nil {
					return nil, err
				}
				build := time.Since(start)

				// The query the broker runs: append into a reused buffer,
				// effort counters summed from the same call.
				var effort match.QueryStats
				var ids []int
				//pubsub:allow nodeterm -- wall-clock here measures query latency, it never feeds simulation state
				start = time.Now()
				for _, q := range queries {
					var qs match.QueryStats
					ids, qs = m.MatchAppendStats(q, ids[:0])
					effort.Add(qs)
				}
				queryTime := time.Since(start) / time.Duration(len(queries))
				points = append(points, MatchScalePoint{
					Algorithm:    alg,
					K:            k,
					N:            n,
					BuildTime:    build,
					QueryTime:    queryTime,
					NodesVisited: float64(effort.NodesVisited) / float64(len(queries)),
					Matches:      float64(effort.Matched) / float64(len(queries)),
				})
			}
		}
	}
	return points, nil
}

// WriteMatchScaling renders abl-match.
func WriteMatchScaling(w io.Writer, points []MatchScalePoint) {
	fmt.Fprintf(w, "abl-match — matching algorithms vs k (subscriptions) and N (dimensions)\n")
	fmt.Fprintf(w, "%-14s %7s %3s %12s %12s %10s %8s\n",
		"algorithm", "k", "N", "build", "query/pt", "nodes/pt", "hits/pt")
	for _, p := range points {
		fmt.Fprintf(w, "%-14s %7d %3d %12v %12v %10.1f %8.2f\n",
			p.Algorithm, p.K, p.N, p.BuildTime.Round(time.Microsecond),
			p.QueryTime.Round(time.Nanosecond), p.NodesVisited, p.Matches)
	}
}

// ---------------------------------------------------------------------
// abl-skew / abl-branch: S-tree packing parameter sweeps.
// ---------------------------------------------------------------------

// StreeParamPoint is one parameter-sweep measurement.
type StreeParamPoint struct {
	Skew         float64
	BranchFactor int
	BuildTime    time.Duration
	QueryTime    time.Duration
	NodesVisited float64
	Height       int
}

// AblStreeSkew sweeps the skew factor p at the paper's M=40.
func AblStreeSkew(seed int64, skews []float64) ([]StreeParamPoint, error) {
	if len(skews) == 0 {
		skews = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	return ablStreeParams(seed, func(p float64) stree.Options {
		return stree.Options{Skew: p}
	}, skews, nil)
}

// AblStreeBranch sweeps the branch factor M at the paper's p=0.3.
func AblStreeBranch(seed int64, branches []int) ([]StreeParamPoint, error) {
	if len(branches) == 0 {
		branches = []int{4, 8, 16, 40, 64, 128}
	}
	var asFloat []float64
	for _, b := range branches {
		asFloat = append(asFloat, float64(b))
	}
	return ablStreeParams(seed, func(m float64) stree.Options {
		return stree.Options{BranchFactor: int(m)}
	}, asFloat, branches)
}

func ablStreeParams(seed int64, mk func(float64) stree.Options, params []float64, branches []int) ([]StreeParamPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	rects := randomRects(rng, 10000, 4)
	entries := make([]stree.Entry, len(rects))
	for i, r := range rects {
		entries[i] = stree.Entry{Rect: r, ID: i}
	}
	queries := make([]geometry.Point, 2000)
	for i := range queries {
		queries[i] = geometry.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	}
	var out []StreeParamPoint
	for i, p := range params {
		opts := mk(p)
		//pubsub:allow nodeterm -- wall-clock here measures build cost, it never feeds simulation state
		start := time.Now()
		t, err := stree.Build(entries, opts)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		var visited float64
		var ids []int
		//pubsub:allow nodeterm -- wall-clock here measures query latency, it never feeds simulation state
		start = time.Now()
		for _, q := range queries {
			var qs match.QueryStats
			ids, qs = t.MatchAppendStats(q, ids[:0])
			visited += float64(qs.NodesVisited)
		}
		queryTime := time.Since(start) / time.Duration(len(queries))
		pt := StreeParamPoint{
			BuildTime:    build,
			QueryTime:    queryTime,
			NodesVisited: visited / float64(len(queries)),
			Height:       t.Stats().Height,
		}
		if branches != nil {
			pt.BranchFactor = branches[i]
			pt.Skew = stree.DefaultSkew
		} else {
			pt.Skew = p
			pt.BranchFactor = stree.DefaultBranchFactor
		}
		out = append(out, pt)
	}
	return out, nil
}

// WriteStreeParams renders abl-skew / abl-branch.
func WriteStreeParams(w io.Writer, title string, points []StreeParamPoint) {
	fmt.Fprintf(w, "%s — S-tree packing parameters (10000 subs, 4 dims)\n", title)
	fmt.Fprintf(w, "%6s %4s %12s %12s %10s %7s\n", "p", "M", "build", "query/pt", "nodes/pt", "height")
	for _, p := range points {
		fmt.Fprintf(w, "%6.2f %4d %12v %12v %10.1f %7d\n",
			p.Skew, p.BranchFactor, p.BuildTime.Round(time.Microsecond),
			p.QueryTime.Round(time.Nanosecond), p.NodesVisited, p.Height)
	}
}

// ---------------------------------------------------------------------
// abl-cluster: clustering algorithm runtime and quality.
// ---------------------------------------------------------------------

// ClusterAlgoPoint is one clustering algorithm's measurement.
type ClusterAlgoPoint struct {
	Algorithm   cluster.Algorithm
	Groups      int
	Runtime     time.Duration
	TotalWaste  float64
	CoveredProb float64
	// Improvement is the Figure 6 improvement at the best threshold over
	// a fixed evaluation stream.
	Improvement   float64
	BestThreshold float64
}

// AblClusterAlgos compares the three clustering algorithms on runtime and
// on end-to-end delivery quality (paper claim: Forgy k-means is both the
// best and the fastest; MST is fast but worst; pairwise is slow).
func AblClusterAlgos(seed int64, groups int) ([]ClusterAlgoPoint, error) {
	tb, err := NewTestbed(TestbedConfig{}, seed)
	if err != nil {
		return nil, err
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
	matcher, err := match.New(msubs, match.Options{Algorithm: match.AlgSTree})
	if err != nil {
		return nil, err
	}
	cost := multicast.NewCostModel(tb.Graph)
	stubs := tb.Graph.NodesByRole(topology.RoleStub)

	rng := rand.New(rand.NewSource(seed + 9))
	const publications = 5000
	events := make([]geometry.Point, publications)
	publishers := make([]int, publications)
	for i := range events {
		events[i] = model.Sample(rng)
		publishers[i] = stubs[rng.Intn(len(stubs))]
	}

	var out []ClusterAlgoPoint
	for _, alg := range []cluster.Algorithm{cluster.AlgForgyKMeans, cluster.AlgBatchKMeans, cluster.AlgPairwise, cluster.AlgMST} {
		//pubsub:allow nodeterm -- wall-clock here measures clustering cost, it never feeds simulation state
		start := time.Now()
		clu, err := cluster.Build(interests, model, tb.Space.Domain, cluster.Config{
			Groups: groups, Algorithm: alg,
		})
		if err != nil {
			return nil, err
		}
		runtime := time.Since(start)

		best := ClusterAlgoPoint{
			Algorithm:   alg,
			Groups:      groups,
			Runtime:     runtime,
			TotalWaste:  clu.TotalWaste(),
			CoveredProb: clu.CoveredProb(),
			Improvement: -1e18,
		}
		for _, th := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
			planner, err := dispatch.NewPlanner(clu, matcher, cost, nodes, dispatch.Config{Threshold: th})
			if err != nil {
				return nil, err
			}
			var tot dispatch.Totals
			for i, ev := range events {
				d, err := planner.Deliver(publishers[i], ev)
				if err != nil {
					return nil, err
				}
				tot.Add(d)
			}
			if imp := tot.Improvement(); imp > best.Improvement {
				best.Improvement = imp
				best.BestThreshold = th
			}
		}
		out = append(out, best)
	}
	return out, nil
}

// WriteClusterAlgos renders abl-cluster.
func WriteClusterAlgos(w io.Writer, points []ClusterAlgoPoint) {
	fmt.Fprintf(w, "abl-cluster — clustering algorithms (runtime and delivery quality)\n")
	fmt.Fprintf(w, "%-14s %6s %12s %12s %10s %12s %6s\n",
		"algorithm", "groups", "runtime", "waste", "covered", "improvement", "t*")
	for _, p := range points {
		fmt.Fprintf(w, "%-14s %6d %12v %12.4f %10.3f %11.1f%% %5.0f%%\n",
			p.Algorithm, p.Groups, p.Runtime.Round(time.Millisecond),
			p.TotalWaste, p.CoveredProb, p.Improvement, p.BestThreshold*100)
	}
}

// ---------------------------------------------------------------------
// abl-groups: improvement vs number of multicast groups.
// ---------------------------------------------------------------------

// GroupsPoint is one group-count measurement.
type GroupsPoint struct {
	Groups      int
	Improvement float64
	Threshold   float64
}

// AblGroupCounts sweeps the number of multicast groups n for Forgy
// k-means at the paper's best threshold.
func AblGroupCounts(seed int64, counts []int, threshold float64) ([]GroupsPoint, error) {
	if len(counts) == 0 {
		counts = []int{1, 6, 11, 21, 41, 61, 101}
	}
	if threshold == 0 {
		threshold = 0.10
	}
	res, err := Fig6DistributionMethod(Fig6Config{
		Seed:       seed,
		Groups:     counts,
		Algorithms: []cluster.Algorithm{cluster.AlgForgyKMeans},
		Thresholds: []float64{threshold},
		Modes:      []int{9},
	})
	if err != nil {
		return nil, err
	}
	var out []GroupsPoint
	for _, p := range res.Points {
		out = append(out, GroupsPoint{Groups: p.Groups, Improvement: p.Improvement, Threshold: p.Threshold})
	}
	return out, nil
}

// WriteGroupCounts renders abl-groups.
func WriteGroupCounts(w io.Writer, points []GroupsPoint) {
	fmt.Fprintf(w, "abl-groups — improvement vs number of multicast groups (forgy k-means)\n")
	fmt.Fprintf(w, "%8s %12s %6s\n", "groups", "improvement", "t")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %11.1f%% %5.0f%%\n", p.Groups, p.Improvement, p.Threshold*100)
	}
}

// ---------------------------------------------------------------------
// abl-mode: dense-mode vs sparse-mode vs application-level multicast.
// ---------------------------------------------------------------------

// ModePoint is one (mode, threshold) measurement.
type ModePoint struct {
	Mode        multicast.Mode
	Threshold   float64
	Improvement float64
	Cost        float64
}

// AblMulticastModes compares the three multicast mechanisms on the
// Figure 6 testbed across the threshold sweep, with Forgy k-means
// clustering into 11 groups and the 9-mode publication model. The paper
// evaluates dense mode only; this ablation quantifies what its results
// would look like under sparse mode or application-level multicast.
func AblMulticastModes(seed int64, thresholds []float64) ([]ModePoint, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0, 0.05, 0.10, 0.15, 0.30}
	}
	tb, err := NewTestbed(TestbedConfig{}, seed)
	if err != nil {
		return nil, err
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
	clu, err := cluster.Build(interests, model, tb.Space.Domain, cluster.Config{
		Groups: 11, Algorithm: cluster.AlgForgyKMeans,
	})
	if err != nil {
		return nil, err
	}
	matcher, err := match.New(msubs, match.Options{Algorithm: match.AlgSTree})
	if err != nil {
		return nil, err
	}
	cost := multicast.NewCostModel(tb.Graph)
	stubs := tb.Graph.NodesByRole(topology.RoleStub)

	rng := rand.New(rand.NewSource(seed + 31))
	const publications = 5000
	events := make([]geometry.Point, publications)
	publishers := make([]int, publications)
	for i := range events {
		events[i] = model.Sample(rng)
		publishers[i] = stubs[rng.Intn(len(stubs))]
	}

	var out []ModePoint
	for _, mode := range []multicast.Mode{multicast.ModeDense, multicast.ModeSparse, multicast.ModeALM} {
		for _, th := range thresholds {
			planner, err := dispatch.NewPlanner(clu, matcher, cost, nodes,
				dispatch.Config{Threshold: th, Mode: mode})
			if err != nil {
				return nil, err
			}
			var tot dispatch.Totals
			for i, ev := range events {
				d, err := planner.Deliver(publishers[i], ev)
				if err != nil {
					return nil, err
				}
				tot.Add(d)
			}
			out = append(out, ModePoint{
				Mode:        mode,
				Threshold:   th,
				Improvement: tot.Improvement(),
				Cost:        tot.Cost,
			})
		}
	}
	return out, nil
}

// WriteMulticastModes renders abl-mode.
func WriteMulticastModes(w io.Writer, points []ModePoint) {
	fmt.Fprintf(w, "abl-mode — multicast mechanisms under the distribution-method scheme\n")
	fmt.Fprintf(w, "%-8s %10s %12s %14s\n", "mode", "threshold", "improvement", "total cost")
	for _, p := range points {
		fmt.Fprintf(w, "%-8s %9.0f%% %11.1f%% %14.0f\n",
			p.Mode, p.Threshold*100, p.Improvement, p.Cost)
	}
}

// ---------------------------------------------------------------------
// abl-grid: sensitivity to the grid resolution C and top-cell count T.
// ---------------------------------------------------------------------

// GridPoint is one (C, T) measurement.
type GridPoint struct {
	GridRes     int
	TopCells    int
	NonEmpty    int     // non-empty grid cells
	Covered     float64 // publication mass covered by S_1..S_n
	Improvement float64 // at threshold 0.10, Forgy k-means, 11 groups
}

// AblGridSensitivity sweeps the clustering grid parameters the paper
// leaves unspecified: the per-dimension resolution C (with T fixed at
// the paper's 200) and the top-cell budget T (with C fixed at the
// library default). It quantifies the coverage/selectivity trade-off
// that motivated the default C = 4.
func AblGridSensitivity(seed int64) ([]GridPoint, error) {
	tb, err := NewTestbed(TestbedConfig{}, seed)
	if err != nil {
		return nil, err
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
	matcher, err := match.New(msubs, match.Options{Algorithm: match.AlgSTree})
	if err != nil {
		return nil, err
	}
	cost := multicast.NewCostModel(tb.Graph)
	stubs := tb.Graph.NodesByRole(topology.RoleStub)

	rng := rand.New(rand.NewSource(seed + 41))
	const publications = 5000
	events := make([]geometry.Point, publications)
	publishers := make([]int, publications)
	for i := range events {
		events[i] = model.Sample(rng)
		publishers[i] = stubs[rng.Intn(len(stubs))]
	}

	measure := func(res, top int) (GridPoint, error) {
		clu, err := cluster.Build(interests, model, tb.Space.Domain, cluster.Config{
			Groups: 11, TopCells: top, GridRes: res, Algorithm: cluster.AlgForgyKMeans,
		})
		if err != nil {
			return GridPoint{}, err
		}
		grid, err := cluster.NewGrid(tb.Space.Domain, res)
		if err != nil {
			return GridPoint{}, err
		}
		cells, err := cluster.BuildCells(grid, interests, model)
		if err != nil {
			return GridPoint{}, err
		}
		planner, err := dispatch.NewPlanner(clu, matcher, cost, nodes, dispatch.Config{Threshold: 0.10})
		if err != nil {
			return GridPoint{}, err
		}
		var tot dispatch.Totals
		for i, ev := range events {
			d, err := planner.Deliver(publishers[i], ev)
			if err != nil {
				return GridPoint{}, err
			}
			tot.Add(d)
		}
		return GridPoint{
			GridRes:     res,
			TopCells:    top,
			NonEmpty:    len(cells),
			Covered:     clu.CoveredProb(),
			Improvement: tot.Improvement(),
		}, nil
	}

	var out []GridPoint
	for _, res := range []int{3, 4, 5, 6, 8} {
		p, err := measure(res, 200)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	for _, top := range []int{50, 100, 400} {
		p, err := measure(cluster.DefaultGridRes, top)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// WriteGridSensitivity renders abl-grid.
func WriteGridSensitivity(w io.Writer, points []GridPoint) {
	fmt.Fprintf(w, "abl-grid — clustering grid parameters (forgy k-means, 11 groups, t=10%%)\n")
	fmt.Fprintf(w, "%4s %6s %10s %10s %12s\n", "C", "T", "nonempty", "covered", "improvement")
	for _, p := range points {
		fmt.Fprintf(w, "%4d %6d %10d %9.1f%% %11.1f%%\n",
			p.GridRes, p.TopCells, p.NonEmpty, 100*p.Covered, p.Improvement)
	}
}

// ---------------------------------------------------------------------
// abl-publisher: publisher placement and popularity.
// ---------------------------------------------------------------------

// PublisherPoint is one publisher-model measurement.
type PublisherPoint struct {
	Model       string
	Threshold   float64
	Improvement float64
}

// AblPublisherModels compares uniform stub publishers (the default used
// throughout the reproduction), Zipf-popular stub publishers, and
// transit-node publishers, under the standard Figure 6 configuration
// (Forgy k-means, 11 groups, 9 modes). The paper leaves publisher
// placement V_P unspecified; this ablation shows how much it matters.
func AblPublisherModels(seed int64, thresholds []float64) ([]PublisherPoint, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0, 0.10, 0.20}
	}
	tb, err := NewTestbed(TestbedConfig{}, seed)
	if err != nil {
		return nil, err
	}
	model := workload.MustStockPublications(9)
	stubs := tb.Graph.NodesByRole(topology.RoleStub)
	transit := tb.Graph.NodesByRole(topology.RoleTransit)

	pmRng := rand.New(rand.NewSource(seed + 51))
	uniform, err := workload.UniformPublishers(stubs)
	if err != nil {
		return nil, err
	}
	zipf, err := workload.ZipfPublishers(stubs, 1.0, pmRng)
	if err != nil {
		return nil, err
	}
	backbone, err := workload.UniformPublishers(transit)
	if err != nil {
		return nil, err
	}
	models := []struct {
		name string
		pm   *workload.PublisherModel
	}{
		{name: "uniform-stub", pm: uniform},
		{name: "zipf-stub", pm: zipf},
		{name: "transit", pm: backbone},
	}

	var out []PublisherPoint
	for _, th := range thresholds {
		eng, err := core.New(tb.Graph, tb.Subs, model, core.Config{
			Space:     tb.Space,
			Matcher:   match.Options{Algorithm: match.AlgSTree},
			Cluster:   cluster.Config{Groups: 11, Algorithm: cluster.AlgForgyKMeans},
			Threshold: th,
		})
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			tot, err := eng.RunWith(rand.New(rand.NewSource(seed+61)), 5000, m.pm)
			if err != nil {
				return nil, err
			}
			out = append(out, PublisherPoint{
				Model:       m.name,
				Threshold:   th,
				Improvement: tot.Improvement(),
			})
		}
	}
	return out, nil
}

// WritePublisherModels renders abl-publisher.
func WritePublisherModels(w io.Writer, points []PublisherPoint) {
	fmt.Fprintf(w, "abl-publisher — publisher placement under the distribution-method scheme\n")
	fmt.Fprintf(w, "%-14s %10s %12s\n", "publishers", "threshold", "improvement")
	for _, p := range points {
		fmt.Fprintf(w, "%-14s %9.0f%% %11.1f%%\n", p.Model, p.Threshold*100, p.Improvement)
	}
}

// ---------------------------------------------------------------------
// abl-rule: threshold rule vs per-publication cost oracle.
// ---------------------------------------------------------------------

// RulePoint is one decision-rule measurement.
type RulePoint struct {
	Rule        string
	Threshold   float64
	Improvement float64
}

// AblDecisionRules compares the paper's threshold rule (swept over t)
// against the cost oracle that picks the cheaper of unicast and group
// multicast per publication — the "where to draw the line" question the
// paper leaves for future work. The oracle upper-bounds every threshold
// setting.
func AblDecisionRules(seed int64, thresholds []float64) ([]RulePoint, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0, 0.05, 0.10, 0.15, 0.20}
	}
	tb, err := NewTestbed(TestbedConfig{}, seed)
	if err != nil {
		return nil, err
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
	clu, err := cluster.Build(interests, model, tb.Space.Domain, cluster.Config{
		Groups: 11, Algorithm: cluster.AlgForgyKMeans,
	})
	if err != nil {
		return nil, err
	}
	matcher, err := match.New(msubs, match.Options{Algorithm: match.AlgSTree})
	if err != nil {
		return nil, err
	}
	cost := multicast.NewCostModel(tb.Graph)
	stubs := tb.Graph.NodesByRole(topology.RoleStub)

	rng := rand.New(rand.NewSource(seed + 71))
	const publications = 5000
	events := make([]geometry.Point, publications)
	publishers := make([]int, publications)
	for i := range events {
		events[i] = model.Sample(rng)
		publishers[i] = stubs[rng.Intn(len(stubs))]
	}

	run := func(cfg dispatch.Config) (float64, error) {
		planner, err := dispatch.NewPlanner(clu, matcher, cost, nodes, cfg)
		if err != nil {
			return 0, err
		}
		var tot dispatch.Totals
		for i, ev := range events {
			d, err := planner.Deliver(publishers[i], ev)
			if err != nil {
				return 0, err
			}
			tot.Add(d)
		}
		return tot.Improvement(), nil
	}

	var out []RulePoint
	for _, th := range thresholds {
		imp, err := run(dispatch.Config{Threshold: th})
		if err != nil {
			return nil, err
		}
		out = append(out, RulePoint{Rule: "threshold", Threshold: th, Improvement: imp})
	}
	imp, err := run(dispatch.Config{Rule: dispatch.RuleCost})
	if err != nil {
		return nil, err
	}
	out = append(out, RulePoint{Rule: "cost-oracle", Improvement: imp})
	return out, nil
}

// WriteDecisionRules renders abl-rule.
func WriteDecisionRules(w io.Writer, points []RulePoint) {
	fmt.Fprintf(w, "abl-rule — threshold rule vs per-publication cost oracle\n")
	fmt.Fprintf(w, "%-12s %10s %12s\n", "rule", "threshold", "improvement")
	for _, p := range points {
		th := fmt.Sprintf("%.0f%%", p.Threshold*100)
		if p.Rule == "cost-oracle" {
			th = "-"
		}
		fmt.Fprintf(w, "%-12s %10s %11.1f%%\n", p.Rule, th, p.Improvement)
	}
}

// Package dispatch implements the paper's distribution method scheme
// (Section 4): the online, per-publication decision whether to deliver
// via the precomputed multicast group covering the event or via unicast
// messages to exactly the interested subscribers.
//
// Given a clustering S_1..S_n (plus catch-all S_0) and a matcher, the
// planner processes a publication ω as follows:
//
//  1. If ω ∈ S_0, deliver by unicast to the matched subscribers.
//  2. Otherwise ω ∈ S_q for a unique q. Run the matching algorithm to
//     obtain the interested subscriber list s. If s is empty, do not send.
//  3. If |s|/|S_q| < t for the threshold t, deliver by unicast to s;
//     otherwise multicast once to the whole group M_q.
package dispatch

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/geometry"
	"repro/internal/match"
	"repro/internal/multicast"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Method is the delivery method chosen for one publication.
type Method int

const (
	// MethodNone means no interested subscriber existed; nothing was
	// sent.
	MethodNone Method = iota
	// MethodUnicast means one message per interested subscriber node.
	MethodUnicast
	// MethodMulticast means a single dense-mode multicast to the
	// covering group.
	MethodMulticast
)

// String returns the method's display name.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodUnicast:
		return "unicast"
	case MethodMulticast:
		return "multicast"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Decision records the outcome of delivering one publication, including
// the cost accounting needed for the paper's improvement metric.
type Decision struct {
	// Group is the covering group index, or -1 for the catch-all S_0.
	Group int
	// Method is the chosen delivery method.
	Method Method
	// Interested is the number of interested subscribers |s|.
	Interested int
	// GroupSize is |S_q| (0 in the catch-all region).
	GroupSize int
	// Cost is the network cost actually paid.
	Cost float64
	// UnicastCost is what pure unicast delivery would have cost.
	UnicastCost float64
	// IdealCost is the per-message ideal (multicast tree spanning
	// exactly the interested nodes) — the 100%-improvement bound.
	IdealCost float64
}

// Rule selects how the planner decides between unicast and multicast
// for publications that fall inside a group.
type Rule int

const (
	// RuleThreshold is the paper's scheme: unicast when the interested
	// fraction |s|/|S_q| is below the threshold t.
	RuleThreshold Rule = iota
	// RuleCost compares the actual unicast cost against the actual
	// group-multicast cost and picks the cheaper — the oracle answering
	// the paper's future-work question of "where to draw the line" on
	// employing an inefficient multicast group. A deployed system would
	// approximate these costs; the oracle bounds what any threshold
	// rule can achieve.
	RuleCost
)

// String returns the rule's display name.
func (r Rule) String() string {
	switch r {
	case RuleThreshold:
		return "threshold"
	case RuleCost:
		return "cost"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Config parameterises the planner.
type Config struct {
	// Threshold is t: the publication is unicast when the interested
	// fraction |s|/|S_q| falls below it. 0 disables the dynamic scheme
	// (always multicast to the covering group); the paper finds ~0.15
	// consistently best. Ignored under RuleCost.
	Threshold float64
	// Rule selects the decision rule (RuleThreshold by default).
	Rule Rule
	// Mode selects the multicast mechanism (dense-mode network
	// multicast by default; sparse-mode and application-level multicast
	// are provided for the abl-mode ablation).
	Mode multicast.Mode
	// RendezvousCandidates restricts sparse-mode rendezvous-point
	// placement to these nodes. Empty selects the topology's transit
	// nodes (or, if there are none, all nodes).
	RendezvousCandidates []int
	// Metrics, when non-nil, receives the planner's decision counters
	// (by method) and the interested-fraction histogram. Nil disables
	// metrics at zero cost per decision.
	Metrics *telemetry.Registry
	// Recorder receives one flight-recorder decision record per
	// delivery (method, interested count, group size, interest ratio).
	// Nil selects the process-wide telemetry.Default() recorder.
	Recorder *telemetry.Recorder
}

func (c Config) validate() error {
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("dispatch: threshold must lie in [0, 1], got %g", c.Threshold)
	}
	switch c.Mode {
	case multicast.ModeDense, multicast.ModeSparse, multicast.ModeALM:
	default:
		return fmt.Errorf("dispatch: unknown multicast mode %d", int(c.Mode))
	}
	switch c.Rule {
	case RuleThreshold, RuleCost:
	default:
		return fmt.Errorf("dispatch: unknown decision rule %d", int(c.Rule))
	}
	return nil
}

// Planner makes per-publication delivery decisions. Build one with
// NewPlanner; it is safe for concurrent use.
type Planner struct {
	clustering *cluster.Clustering
	matcher    match.Matcher
	cost       *multicast.CostModel
	threshold  float64
	mode       multicast.Mode
	rule       Rule

	// subscriberNode maps subscriber id -> topology node.
	subscriberNode []int
	// groupNodes caches, per group, the deduplicated sorted node list of
	// its members (the multicast tree receivers).
	groupNodes [][]int
	// groupRP caches, per group, the sparse-mode rendezvous point
	// (only populated for ModeSparse).
	groupRP []int

	tel *dispatchTel
	rec *telemetry.Recorder
}

// dispatchTel bundles the planner's metric handles; nil disables them.
type dispatchTel struct {
	decisions [3]*telemetry.Counter // indexed by Method
	ratio     *telemetry.Histogram
	latency   *telemetry.Histogram
}

// RegisterDispatchMetrics registers the planner's metric families
// against reg and returns the handles. It is exported (beyond planner
// construction) so a daemon can pre-register the families — making them
// visible, zero-valued, on /metrics — before any planner exists;
// idempotent registration means a later planner shares them.
func RegisterDispatchMetrics(reg *telemetry.Registry) *dispatchTel {
	if reg == nil {
		return nil
	}
	t := &dispatchTel{
		ratio: reg.Histogram("pubsub_dispatch_interest_ratio",
			"Interested fraction |s|/|S_q| per in-group publication.", telemetry.RatioBuckets()),
		latency: reg.Histogram("pubsub_dispatch_decide_seconds",
			"Deliver decision latency: match plus cost accounting.", telemetry.LatencyBuckets()),
	}
	for _, m := range []Method{MethodNone, MethodUnicast, MethodMulticast} {
		t.decisions[m] = reg.Counter("pubsub_dispatch_decisions_total",
			"Delivery decisions by chosen method.", telemetry.L("method", m.String()))
	}
	return t
}

// record counts one decision.
func (t *dispatchTel) record(d Decision, took float64) {
	if t == nil {
		return
	}
	if int(d.Method) >= 0 && int(d.Method) < len(t.decisions) {
		t.decisions[d.Method].Inc()
	}
	if d.GroupSize > 0 {
		t.ratio.Observe(float64(d.Interested) / float64(d.GroupSize))
	}
	t.latency.Observe(took)
}

// NewPlanner assembles a planner. subscriberNode maps every subscriber id
// the matcher can return (and every id in the clustering's groups) to its
// topology node.
func NewPlanner(
	c *cluster.Clustering,
	m match.Matcher,
	cost *multicast.CostModel,
	subscriberNode []int,
	cfg Config,
) (*Planner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if c == nil || m == nil || cost == nil {
		return nil, fmt.Errorf("dispatch: clustering, matcher and cost model are all required")
	}
	nodes := cost.Graph().NumNodes()
	for id, node := range subscriberNode {
		if node < 0 || node >= nodes {
			return nil, fmt.Errorf("dispatch: subscriber %d mapped to invalid node %d", id, node)
		}
	}
	p := &Planner{
		clustering:     c,
		matcher:        m,
		cost:           cost,
		threshold:      cfg.Threshold,
		mode:           cfg.Mode,
		rule:           cfg.Rule,
		subscriberNode: append([]int(nil), subscriberNode...),
		groupNodes:     make([][]int, c.NumGroups()),
		tel:            RegisterDispatchMetrics(cfg.Metrics),
		rec:            cfg.Recorder,
	}
	if p.rec == nil {
		p.rec = telemetry.Default()
	}
	for q := 0; q < c.NumGroups(); q++ {
		g := c.Group(q)
		nodes, err := p.nodesOf(g.Subscribers)
		if err != nil {
			return nil, fmt.Errorf("dispatch: group %d: %w", q, err)
		}
		p.groupNodes[q] = nodes
	}
	if cfg.Mode == multicast.ModeSparse {
		candidates := cfg.RendezvousCandidates
		if len(candidates) == 0 {
			candidates = cost.Graph().NodesByRole(topology.RoleTransit)
		}
		p.groupRP = make([]int, c.NumGroups())
		for q := range p.groupRP {
			rp, err := cost.BestRendezvous(p.groupNodes[q], candidates)
			if err != nil {
				return nil, fmt.Errorf("dispatch: group %d rendezvous: %w", q, err)
			}
			p.groupRP[q] = rp
		}
	}
	return p, nil
}

// Mode returns the configured multicast mode.
func (p *Planner) Mode() multicast.Mode { return p.mode }

// Rule returns the configured decision rule.
func (p *Planner) Rule() Rule { return p.rule }

// multicastCost prices one multicast to group q from the publisher under
// the configured mode.
func (p *Planner) multicastCost(publisher, q int) (float64, error) {
	switch p.mode {
	case multicast.ModeSparse:
		return p.cost.SparseCost(publisher, p.groupRP[q], p.groupNodes[q])
	case multicast.ModeALM:
		return p.cost.ALMCost(publisher, p.groupNodes[q])
	default:
		return p.cost.MulticastCost(publisher, p.groupNodes[q])
	}
}

// Threshold returns the configured threshold t.
func (p *Planner) Threshold() float64 { return p.threshold }

// nodesOf maps subscriber ids to a sorted, deduplicated node list.
// Co-located subscribers receive one network message; endpoint fan-out is
// free in the cost model.
func (p *Planner) nodesOf(subscribers []int) ([]int, error) {
	seen := make(map[int]struct{}, len(subscribers))
	nodes := make([]int, 0, len(subscribers))
	for _, s := range subscribers {
		if s < 0 || s >= len(p.subscriberNode) {
			return nil, fmt.Errorf("dispatch: subscriber id %d has no node mapping", s)
		}
		n := p.subscriberNode[s]
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes, nil
}

// Deliver decides and cost-accounts the delivery of one publication from
// the given publisher node.
func (p *Planner) Deliver(publisher int, event geometry.Point) (Decision, error) {
	return p.DeliverTraced(publisher, event, 0)
}

// DeliverTraced is Deliver correlated with a publication trace: the
// decision is written to the flight recorder under the given trace id
// (0 leaves the record uncorrelated).
func (p *Planner) DeliverTraced(publisher int, event geometry.Point, traceID uint64) (Decision, error) {
	var t0 time.Time
	if p.tel != nil { // no clock read without metrics
		t0 = time.Now()
	}
	d, err := p.deliver(publisher, event)
	if err != nil {
		return d, err
	}
	if p.tel != nil {
		p.tel.record(d, time.Since(t0).Seconds())
	}
	p.recordDecision(d, traceID)
	return d, nil
}

// recordDecision writes one flight-recorder decision record. The
// interest ratio |s|/|S_q| is carried in parts per million so the
// fixed-size integer record can express it.
func (p *Planner) recordDecision(d Decision, traceID uint64) {
	ratioPPM := int64(0)
	if d.GroupSize > 0 {
		ratioPPM = int64(d.Interested) * 1_000_000 / int64(d.GroupSize)
	}
	p.rec.Record(telemetry.KindDecision, traceID, 0,
		int64(d.Method), int64(d.Interested), int64(d.GroupSize), ratioPPM)
}

func (p *Planner) deliver(publisher int, event geometry.Point) (Decision, error) {
	d := Decision{Group: p.clustering.Locate(event)}

	// Match: the interested subscriber list s.
	interested := match.MatchUnique(p.matcher, event)
	d.Interested = len(interested)
	if len(interested) == 0 {
		// Nothing to send. (In S_0 there is nobody to reach; in a group,
		// the paper's rule is explicit: "If this list is empty, the
		// publication will be not sent.")
		d.Method = MethodNone
		return d, nil
	}
	interestedNodes, err := p.nodesOf(interested)
	if err != nil {
		return Decision{}, err
	}

	d.UnicastCost, err = p.cost.UnicastCost(publisher, interestedNodes)
	if err != nil {
		return Decision{}, err
	}
	d.IdealCost, err = p.cost.IdealCost(publisher, interestedNodes)
	if err != nil {
		return Decision{}, err
	}

	if d.Group < 0 {
		// Catch-all region: always unicast.
		d.Method = MethodUnicast
		d.Cost = d.UnicastCost
		return d, nil
	}

	g := p.clustering.Group(d.Group)
	d.GroupSize = g.Size()

	if p.rule == RuleCost {
		mc, err := p.multicastCost(publisher, d.Group)
		if err != nil {
			return Decision{}, err
		}
		if d.UnicastCost <= mc {
			d.Method = MethodUnicast
			d.Cost = d.UnicastCost
		} else {
			d.Method = MethodMulticast
			d.Cost = mc
		}
		return d, nil
	}

	ratio := float64(d.Interested) / float64(d.GroupSize)
	if ratio < p.threshold {
		d.Method = MethodUnicast
		d.Cost = d.UnicastCost
		return d, nil
	}
	d.Method = MethodMulticast
	d.Cost, err = p.multicastCost(publisher, d.Group)
	if err != nil {
		return Decision{}, err
	}
	return d, nil
}

// Totals aggregates decisions into the paper's improvement metric.
type Totals struct {
	Messages   int
	Unicasts   int
	Multicasts int
	Suppressed int // publications with no interested subscriber

	Cost        float64
	UnicastCost float64
	IdealCost   float64
}

// Add accumulates one decision.
func (t *Totals) Add(d Decision) {
	t.Messages++
	switch d.Method {
	case MethodNone:
		t.Suppressed++
		return
	case MethodUnicast:
		t.Unicasts++
	case MethodMulticast:
		t.Multicasts++
	}
	t.Cost += d.Cost
	t.UnicastCost += d.UnicastCost
	t.IdealCost += d.IdealCost
}

// Improvement returns the aggregate improvement percentage over pure
// unicast (0% = all unicast, 100% = per-message ideal multicast).
func (t *Totals) Improvement() float64 {
	return multicast.Improvement(t.UnicastCost, t.Cost, t.IdealCost)
}

// String renders a decision for logs and debugging.
func (d Decision) String() string {
	group := "S_0"
	if d.Group >= 0 {
		group = fmt.Sprintf("S_%d(|%d|)", d.Group+1, d.GroupSize)
	}
	return fmt.Sprintf("%s in %s: %d interested, cost %.1f (unicast %.1f, ideal %.1f)",
		d.Method, group, d.Interested, d.Cost, d.UnicastCost, d.IdealCost)
}

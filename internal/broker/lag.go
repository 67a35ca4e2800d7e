package broker

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/geometry"
	"repro/internal/health"
	"repro/internal/match"
	"repro/internal/stree"
	"repro/internal/telemetry"
)

// SubLag is one subscription's consumer-lag snapshot.
type SubLag struct {
	ID     int    `json:"id"`
	Policy string `json:"policy"`
	// Buffered and Capacity are the subscription's channel's, or — for a
	// subscription registered on a sink — the sink's, in deliveries for
	// all of its subscriptions together.
	Buffered int `json:"buffered"`
	Capacity int `json:"capacity"`
	// DeliveredSeq is the highest Seq successfully enqueued on the
	// subscription's channel (the broker head at creation before the
	// first delivery).
	DeliveredSeq uint64 `json:"delivered_seq"`
	// LagEvents is how many events the subscription is behind the
	// broker head. It counts every publication since the last
	// successful delivery (or creation), whether or not it matched
	// this subscription's rectangles — the resume depth a reconnecting
	// consumer would replay, not a missed-match count.
	LagEvents uint64 `json:"lag_events"`
	// LagAgeSeconds is how long ago the last successful delivery
	// happened; zero when the subscription has zero lag.
	LagAgeSeconds float64 `json:"lag_age_seconds,omitempty"`
	Dropped       uint64  `json:"dropped"`
	Slow          bool    `json:"slow,omitempty"`
	Evicting      bool    `json:"evicting,omitempty"`
}

// LagReport is a point-in-time view of how far every subscription sits
// behind the broker head.
type LagReport struct {
	// Head is the highest assigned sequence number: the WAL offset in
	// durable mode (surviving restarts), the in-memory Seq otherwise.
	Head uint64 `json:"head"`
	// Durable reports which of those two regimes Head lives in.
	Durable bool `json:"durable"`
	// SlowSubs counts subscriptions currently flagged past the
	// SlowLagThreshold; SlowTransitions counts flips since creation.
	SlowSubs        int    `json:"slow_subs"`
	SlowTransitions uint64 `json:"slow_transitions"`
	MaxLagEvents    uint64 `json:"max_lag_events"`
	// Subs lists every live subscription in id order.
	Subs []SubLag `json:"subs"`
}

// Head returns the highest assigned sequence number: the WAL offset in
// durable mode (surviving restarts), the in-memory Seq otherwise. A
// single atomic load, cheap enough for per-connection lag probes.
func (b *Broker) Head() uint64 { return b.head.Load() }

// lagOf computes one subscription's lag pair against the given head
// and recorder-clock now. Shared by LagReport and the scrape-time
// gauges so both report identical numbers.
func lagOf(s *Subscription, head uint64, nowNS int64) (events uint64, ageNS int64) {
	seen := s.deliveredSeq.Load()
	if head <= seen {
		return 0, 0
	}
	ageNS = nowNS - s.deliveredAtNS.Load()
	if ageNS < 0 {
		ageNS = 0
	}
	return head - seen, ageNS
}

// LagReport snapshots per-subscription consumer lag. It takes the
// broker lock in read mode only; the per-subscription numbers are
// atomic reads, so the probe never blocks publishing.
func (b *Broker) LagReport() LagReport {
	head := b.head.Load()
	nowNS := b.rec.Now()
	rep := LagReport{
		Head:            head,
		Durable:         b.log != nil,
		SlowSubs:        int(b.slowSubs.Load()),
		SlowTransitions: b.slowTransitions.Load(),
	}
	b.mu.RLock()
	rep.Subs = make([]SubLag, 0, len(b.subs))
	for _, s := range b.subs {
		lag, ageNS := lagOf(s, head, nowNS)
		sl := SubLag{
			ID:           s.id,
			Policy:       b.opts.Overflow.String(),
			DeliveredSeq: s.deliveredSeq.Load(),
			LagEvents:    lag,
			Dropped:      s.dropCt.Load(),
			Slow:         s.slow.Load(),
			Evicting:     s.evicting.Load(),
		}
		sl.Buffered, sl.Capacity, _ = s.queue()
		if lag > 0 {
			sl.LagAgeSeconds = time.Duration(ageNS).Seconds()
		}
		if lag > rep.MaxLagEvents {
			rep.MaxLagEvents = lag
		}
		rep.Subs = append(rep.Subs, sl)
	}
	b.mu.RUnlock()
	sort.Slice(rep.Subs, func(i, j int) bool { return rep.Subs[i].ID < rep.Subs[j].ID })
	return rep
}

// DimSelectivity describes one dimension of the live rectangle
// population — the inputs a split-axis or partitioning decision needs.
type DimSelectivity struct {
	Dim int `json:"dim"`
	// Bounded counts rectangles whose interval on this dimension has
	// both endpoints finite; a dimension most subscriptions constrain
	// is selective, one they leave at (-inf, +inf] is not.
	Bounded int `json:"bounded"`
	// BoundedFraction is Bounded over the sampled rectangle count.
	BoundedFraction float64 `json:"bounded_fraction"`
	// MeanWidthFraction is the mean width of the bounded intervals
	// relative to the span covered by their extreme endpoints (0 when
	// no interval is bounded or the span is degenerate). Small values
	// mean narrow, selective predicates.
	MeanWidthFraction float64 `json:"mean_width_fraction"`
}

// IndexReport is a point-in-time description of the matching state:
// the index's stat, the compiled snapshot's shape, and, over a bounded
// sample of the live rectangles, their per-dimension selectivity and
// duplicate/covering counts — the inputs the split-rule and
// aggregation roadmap items consume.
type IndexReport struct {
	ShardStat
	// ShardCount is how many parts the current snapshot's base is
	// packed in (1 before the first rebuild, when the overlay is the
	// one part).
	ShardCount int `json:"shard_count"`
	// Shape describes the first part's largest tree (zero before the
	// first rebuild); the parts hold near-equal shares of one
	// population, packed the same way.
	Shape match.Shape `json:"shape"`
	// Dims holds per-dimension selectivity over the sampled live
	// rectangles; empty when there are none.
	Dims []DimSelectivity `json:"dims,omitempty"`
	// SampledRects is how many rectangles the scans looked at (at most
	// introspectSampleCap).
	SampledRects int `json:"sampled_rects"`
	// DuplicatePairs counts sampled rectangle pairs that are exactly
	// equal; CoveringPairs counts the other pairs where one strictly
	// covers the other, each unordered pair once. Both are aggregation
	// candidates.
	DuplicatePairs int `json:"duplicate_pairs"`
	CoveringPairs  int `json:"covering_pairs"`
}

// introspectSampleCap bounds the O(n²) duplicate/covering scan and the
// selectivity scan. 512 rectangles is ~131k pair comparisons, well
// under a millisecond.
const introspectSampleCap = 512

// IndexReport snapshots the index's stat and shape and the live
// rectangle population's selectivity. It reads the stat under the
// broker lock in read mode and samples the snapshot it found after
// releasing it.
func (b *Broker) IndexReport() IndexReport {
	b.mu.RLock()
	rep := IndexReport{ShardStat: b.statLocked(), ShardCount: b.numParts()}
	snap := b.snap.Load()
	b.mu.RUnlock()

	var sample []geometry.Rect
	if snap != nil { // nil once closed
		if len(snap.base) > 0 {
			rep.Shape = match.Describe(slices.MaxFunc(snap.base[0], func(x, y *stree.Tree) int { return x.Len() - y.Len() }))
		}
		sample = sampleRects(snap, rep.Rectangles)
	}
	rep.SampledRects = len(sample)
	rep.Dims = dimSelectivity(sample)
	rep.DuplicatePairs, rep.CoveringPairs = coveringScan(sample)
	return rep
}

// sampleRects reads up to introspectSampleCap of snap's n live
// rectangles out of the index, spread evenly: with m the sample's size,
// the ⌊i·n/m⌋-th for i < m, counting the base part by part and each tree
// in leaf order, past stale entries, then the overlay. An unchanged
// broker samples the same rectangles.
func sampleRects(snap *snapshot, n int) (sample []geometry.Rect) {
	m, k := min(n, introspectSampleCap), 0
	take := func() bool { // whether the k-th live rectangle is sampled; it passes it
		k++
		return len(sample) < m && k-1 == len(sample)*n/m
	}
	for _, p := range snap.base {
		for _, t := range p {
			for e := range t.Len() {
				if snap.slots[t.Entry(e, nil)].Load() != nil && take() {
					sample = append(sample, make(geometry.Rect, t.Dims()))
					t.Entry(e, sample[len(sample)-1])
				}
			}
		}
	}
	for j := range snap.overlay.boxes.Len() {
		if take() {
			sample = append(sample, snap.overlay.boxes.Box(j, nil))
		}
	}
	return sample
}

// dimSelectivity computes per-dimension boundedness and relative width
// over the sampled rectangles. Dimensionality follows the widest
// rectangle seen; rectangles shorter than a dimension simply do not
// constrain it.
func dimSelectivity(rects []geometry.Rect) []DimSelectivity {
	dims := 0
	for _, r := range rects {
		if len(r) > dims {
			dims = len(r)
		}
	}
	if dims == 0 {
		return nil
	}
	out := make([]DimSelectivity, dims)
	for d := 0; d < dims; d++ {
		sel := DimSelectivity{Dim: d}
		lo, hi := 0.0, 0.0
		widthSum := 0.0
		for _, r := range rects {
			if d >= len(r) {
				continue
			}
			iv := r[d]
			if math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1) {
				continue
			}
			if sel.Bounded == 0 || iv.Lo < lo {
				lo = iv.Lo
			}
			if sel.Bounded == 0 || iv.Hi > hi {
				hi = iv.Hi
			}
			sel.Bounded++
			widthSum += iv.Length()
		}
		if len(rects) > 0 {
			sel.BoundedFraction = float64(sel.Bounded) / float64(len(rects))
		}
		if sel.Bounded > 0 && hi > lo {
			sel.MeanWidthFraction = widthSum / float64(sel.Bounded) / (hi - lo)
		}
		out[d] = sel
	}
	return out
}

// coveringScan counts exactly-equal and strictly-covering rectangle
// pairs in the sample: duplicates and covered rectangles are the
// paper-adjacent aggregation candidates (a covered subscription's
// matches are a subset of its cover's).
func coveringScan(rects []geometry.Rect) (duplicates, covering int) {
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			a, b := rects[i], rects[j]
			switch {
			case a.Equal(b):
				duplicates++
			case a.ContainsRect(b) || b.ContainsRect(a):
				covering++
			}
		}
	}
	return duplicates, covering
}

// RegisterHealth registers the broker's health checks: "broker" (basic
// open/closed liveness plus slow-subscriber pressure) and "rebuilder"
// (whether rebuild-worthy churn has been left unfolded past
// defaultStaleWindow). Checks run only when a probe fires; nothing is added
// to the publish path.
func (b *Broker) RegisterHealth(hr *health.Registry) {
	hr.Register("broker", func() (health.State, string) {
		b.mu.RLock()
		subs := len(b.subs)
		b.mu.RUnlock()
		if b.closed.Load() {
			return health.Unhealthy, "broker closed"
		}
		if slow := b.slowSubs.Load(); slow > 0 {
			return health.Degraded, fmt.Sprintf("%d slow subscription(s), max lag %d events", slow, b.maxLag())
		}
		return health.Healthy, fmt.Sprintf("%d subscription(s), head %d", subs, b.head.Load())
	})
	hr.Register("rebuilder", func() (health.State, string) {
		if b.closed.Load() {
			return health.Unhealthy, "broker closed"
		}
		// Churn left unfolded past the stale window degrades the broker:
		// every publish is paying unfolded overlay boxes (or stale-slot
		// filtering).
		b.mu.RLock()
		st := b.statLocked()
		b.mu.RUnlock()
		if age := time.Duration(st.SecondsSinceRebuild * float64(time.Second)); st.RebuildDue && age > b.staleWindow {
			return health.Degraded, fmt.Sprintf(
				"index stale: unfolded for %s; overlay %d, stale %d/%d",
				age.Round(time.Millisecond), st.OverlayLen, st.Stale, st.BaseLen)
		}
		return health.Healthy, fmt.Sprintf("%d part(s), overlay %d, stale %d/%d",
			b.numParts(), st.OverlayLen, st.Stale, st.BaseLen)
	})
}

// maxLag returns the largest per-subscription lag right now. Read-lock
// plus atomic loads only.
func (b *Broker) maxLag() uint64 {
	head := b.head.Load()
	var maxLag uint64
	b.mu.RLock()
	for _, s := range b.subs {
		if lag, _ := lagOf(s, head, 0); lag > maxLag {
			maxLag = lag
		}
	}
	b.mu.RUnlock()
	return maxLag
}

// lagHistogram builds a scrape-time histogram of per-subscription lag
// for the registry's HistogramFunc: the fanout-wide lag distribution
// at this instant, not an accumulation over time.
func (b *Broker) lagHistogram() telemetry.HistogramSnapshot {
	bounds := telemetry.CountBuckets()
	snap := telemetry.HistogramSnapshot{
		Bounds: bounds,
		Counts: make([]uint64, len(bounds)+1),
	}
	head := b.head.Load()
	nowNS := b.rec.Now()
	b.mu.RLock()
	first := true
	for _, s := range b.subs {
		lag, _ := lagOf(s, head, nowNS)
		v := float64(lag)
		i := sort.SearchFloat64s(bounds, v)
		snap.Counts[i]++
		snap.Count++
		snap.Sum += v
		if first || v < snap.Min {
			snap.Min = v
		}
		if first || v > snap.Max {
			snap.Max = v
		}
		first = false
	}
	b.mu.RUnlock()
	return snap
}

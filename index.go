package pubsub

import (
	"sync"

	"repro/internal/match"
)

// Subscription couples a predicate rectangle with the identifier of the
// subscriber that owns it.
type Subscription = match.Subscription

// IndexAlgorithm selects a matching algorithm.
type IndexAlgorithm = match.Algorithm

// Matching algorithms.
const (
	// STree is the paper's unbalanced S-tree index (the default).
	STree = match.AlgSTree
	// HilbertRTree is the balanced Hilbert-packed R-tree baseline.
	HilbertRTree = match.AlgHilbertRTree
	// BruteForce scans every subscription.
	BruteForce = match.AlgBruteForce
	// PredCount is the predicate-counting matcher (per-dimension
	// interval trees plus satisfaction counters), in the style of the
	// prior-art algorithms the paper cites.
	PredCount = match.AlgPredCount
	// DynamicRTree is a Guttman-style dynamic R-tree built
	// incrementally; the online counterpart to the packed indexes.
	DynamicRTree = match.AlgDynamicRTree
)

// IndexOptions tune index construction. The zero value selects the
// S-tree with the paper's typical parameters (M=40, p=0.3).
type IndexOptions = match.Options

// Index answers the matching problem: given a published event, find
// every interested subscriber. It is immutable and safe for concurrent
// use; for a mutable registry with delivery, use Broker.
type Index struct {
	m    match.Matcher
	subs []Subscription
}

// NewIndex builds an index over the subscriptions.
func NewIndex(subs []Subscription, opts IndexOptions) (*Index, error) {
	m, err := match.New(subs, opts)
	if err != nil {
		return nil, err
	}
	owned := make([]Subscription, len(subs))
	copy(owned, subs)
	return &Index{m: m, subs: owned}, nil
}

// Match returns the subscriber IDs of all subscriptions containing p,
// once per matching rectangle.
func (ix *Index) Match(p Point) []int {
	ids, _ := ix.m.MatchAppendStats(p, nil)
	return ids
}

// MatchUnique returns the deduplicated subscriber IDs interested in p.
func (ix *Index) MatchUnique(p Point) []int { return match.MatchUnique(ix.m, p) }

// idBufs recycles the id buffers MatchEach streams from, so that it and
// Count allocate nothing.
var idBufs = sync.Pool{New: func() any { return new([]int) }}

// MatchEach streams subscriber IDs to fn; return false to stop early.
func (ix *Index) MatchEach(p Point, fn func(subscriberID int) bool) {
	buf := idBufs.Get().(*[]int)
	*buf, _ = ix.m.MatchAppendStats(p, (*buf)[:0])
	for _, id := range *buf {
		if !fn(id) {
			break
		}
	}
	idBufs.Put(buf)
}

// Count returns the number of matching subscriptions.
func (ix *Index) Count(p Point) int {
	n := 0
	ix.MatchEach(p, func(int) bool { n++; return true })
	return n
}

// Len reports the number of indexed subscriptions.
func (ix *Index) Len() int { return ix.m.Len() }

// QueryStats reports index traversal effort for one point query: nodes
// entered, leaves among them, leaf records tested, and matches.
type QueryStats = match.QueryStats

// PointQueryStats returns the subscriber IDs matching p together with
// traversal statistics — the per-query effort counters the paper uses
// to compare tree packings ("the number of node pages which need to be
// examined"). Matchers without a tree (PredCount) report only the match
// count, and brute force tests every entry and visits no node.
func (ix *Index) PointQueryStats(p Point) ([]int, QueryStats) {
	return ix.m.MatchAppendStats(p, nil)
}

// MatchRegion returns the subscriber IDs of every subscription whose
// rectangles intersect the query region — the administrative "who is
// interested in this part of the event space" question. Subscribers are
// reported once per intersecting rectangle.
func (ix *Index) MatchRegion(region Rect) []int {
	var ids []int
	for _, s := range ix.subs {
		if s.Rect.Intersects(region) {
			ids = append(ids, s.SubscriberID)
		}
	}
	return ids
}

// Package match defines the matching-problem abstraction: given a
// publication event (a point in the event space), find every subscription
// rectangle that contains it. Its Matcher interface is implemented
// directly by the five indexes New builds: the paper's S-tree, the
// Hilbert-packed R-tree baseline, the incrementally built (Guttman)
// R-tree, the predicate-counting matcher of the prior art the paper
// cites, and a brute-force scanner that serves as both the correctness
// oracle and the naive baseline in benchmarks.
package match

import (
	"fmt"

	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/predindex"
	"repro/internal/rtree"
	"repro/internal/stree"
)

// Subscription couples a subscription rectangle with the identifier of the
// subscriber that owns it. Several subscriptions may share a SubscriberID
// (the paper's r_i rectangles per subscriber v_i).
type Subscription struct {
	Rect geometry.Rect
	// SubscriberID identifies the subscriber; it is what queries return.
	SubscriberID int
}

// Matcher answers the paper's matching problem: which subscribers are
// interested in an event?
type Matcher interface {
	// MatchAppendStats appends the SubscriberIDs of all subscriptions
	// containing p to dst and returns it, with the effort the query took.
	// A subscriber with several matching rectangles is reported once per
	// matching rectangle; use MatchSet for deduplicated results.
	// Implementations perform no allocation beyond growing dst, so
	// callers that reuse dst across events match with zero steady-state
	// allocation.
	MatchAppendStats(p geometry.Point, dst []int) ([]int, QueryStats)
	// Len reports the number of indexed subscriptions.
	Len() int
}

// StatsMatcher is Matcher under the name it had when the effort counters
// were an optional extension; callers written against it keep compiling.
type StatsMatcher = Matcher

// QueryStats reports index traversal effort for one match: how many
// tree nodes were entered, how many of them were leaves, how many leaf
// records were compared against the event point, and how many matched.
// Non-tree matchers report the counters that make sense for them (the
// brute-force scanner tests every entry and visits no nodes; the
// predicate-counting matcher reports only Matched).
type QueryStats = flat.Stats

var (
	_ Matcher = BruteForce(nil)
	_ Matcher = (*stree.Tree)(nil)
	_ Matcher = (*rtree.Tree)(nil)
	_ Matcher = (*rtree.Dynamic)(nil)
	_ Matcher = (*predindex.Index)(nil)
)

// MatchSet returns the deduplicated set of subscriber IDs interested in p.
// This is the list s used by the distribution-method scheme.
func MatchSet(m Matcher, p geometry.Point) map[int]struct{} {
	ids, _ := m.MatchAppendStats(p, nil)
	set := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}

// MatchUnique returns the deduplicated subscriber IDs interested in p as a
// slice, in unspecified order.
func MatchUnique(m Matcher, p geometry.Point) []int {
	set := MatchSet(m, p)
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	return ids
}

// Algorithm selects a matcher implementation.
type Algorithm int

const (
	// AlgSTree is the paper's S-tree matcher.
	AlgSTree Algorithm = iota
	// AlgHilbertRTree is the Hilbert-packed R-tree baseline.
	AlgHilbertRTree
	// AlgBruteForce scans every subscription.
	AlgBruteForce
	// AlgPredCount is a predicate-counting matcher in the style of the
	// prior art the paper cites (Aguilera et al. [3], Fabret et al.
	// [6]): per-dimension interval trees plus per-subscription
	// satisfaction counters.
	AlgPredCount
	// AlgDynamicRTree is a Guttman-style dynamic R-tree built by
	// inserting the subscriptions one at a time — the online
	// counterpart to the statically packed trees, included to measure
	// the packing advantage.
	AlgDynamicRTree
)

// String returns the algorithm's display name.
func (a Algorithm) String() string {
	switch a {
	case AlgSTree:
		return "s-tree"
	case AlgHilbertRTree:
		return "hilbert-rtree"
	case AlgBruteForce:
		return "brute-force"
	case AlgPredCount:
		return "pred-count"
	case AlgDynamicRTree:
		return "dynamic-rtree"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Options configure matcher construction. Zero values select the
// defaults used throughout the paper (M=40, p=0.3).
type Options struct {
	Algorithm    Algorithm
	BranchFactor int
	Skew         float64 // S-tree only
}

// New builds a Matcher of the requested algorithm over the subscriptions.
func New(subs []Subscription, opts Options) (Matcher, error) {
	switch opts.Algorithm {
	case AlgSTree:
		entries := make([]stree.Entry, len(subs))
		for i, s := range subs {
			entries[i] = stree.Entry{Rect: s.Rect, ID: s.SubscriberID}
		}
		t, err := stree.Build(entries, stree.Options{BranchFactor: opts.BranchFactor, Skew: opts.Skew})
		if err != nil {
			return nil, fmt.Errorf("match: building s-tree: %w", err)
		}
		return t, nil
	case AlgHilbertRTree:
		entries := make([]rtree.Entry, len(subs))
		for i, s := range subs {
			entries[i] = rtree.Entry{Rect: s.Rect, ID: s.SubscriberID}
		}
		t, err := rtree.Build(entries, rtree.Options{BranchFactor: opts.BranchFactor})
		if err != nil {
			return nil, fmt.Errorf("match: building hilbert r-tree: %w", err)
		}
		return t, nil
	case AlgBruteForce:
		bf := make(BruteForce, len(subs))
		copy(bf, subs)
		return bf, nil
	case AlgPredCount:
		psubs := make([]predindex.Subscription, len(subs))
		for i, s := range subs {
			psubs[i] = predindex.Subscription{Rect: s.Rect, SubscriberID: s.SubscriberID}
		}
		ix, err := predindex.Build(psubs)
		if err != nil {
			return nil, fmt.Errorf("match: building predicate index: %w", err)
		}
		return ix, nil
	case AlgDynamicRTree:
		d, err := rtree.NewDynamic(opts.BranchFactor)
		if err != nil {
			return nil, fmt.Errorf("match: building dynamic r-tree: %w", err)
		}
		for _, s := range subs {
			if err := d.Insert(rtree.Entry{Rect: s.Rect, ID: s.SubscriberID}); err != nil {
				return nil, fmt.Errorf("match: building dynamic r-tree: %w", err)
			}
		}
		return d, nil
	default:
		return nil, fmt.Errorf("match: unknown algorithm %d", opts.Algorithm)
	}
}

// MustNew is New, panicking on error.
func MustNew(subs []Subscription, opts Options) Matcher {
	m, err := New(subs, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// BruteForce matches by scanning every subscription. It is the O(k)
// baseline and the oracle against which tree matchers are validated.
type BruteForce []Subscription

// MatchAppend appends the SubscriberIDs of all subscriptions containing p
// to dst, in subscription order, and returns it: the oracle's answer.
func (b BruteForce) MatchAppend(p geometry.Point, dst []int) []int {
	for _, s := range b {
		if s.Rect.Contains(p) {
			dst = append(dst, s.SubscriberID)
		}
	}
	return dst
}

// MatchAppendStats implements Matcher. The scan tests every entry and
// touches no tree nodes.
func (b BruteForce) MatchAppendStats(p geometry.Point, dst []int) ([]int, QueryStats) {
	n := len(dst)
	dst = b.MatchAppend(p, dst)
	return dst, QueryStats{EntriesTested: len(b), Matched: len(dst) - n}
}

// Len implements Matcher.
func (b BruteForce) Len() int { return len(b) }

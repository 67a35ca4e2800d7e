// Package predindex implements a predicate-counting matcher in the
// style of the matching algorithms the paper cites as prior art
// (Aguilera et al., PODC 1999 [3]; Fabret et al. [6]): subscriptions are
// decomposed into per-attribute predicates, each attribute's non-trivial
// predicates are indexed in a static interval tree, and a publication is
// matched by counting, per subscription, how many of its predicates the
// event satisfies — a subscription matches when the count reaches its
// number of non-wildcard predicates.
package predindex

import "sort"

// treeEntry is one indexed predicate: a half-open interval (Lo, Hi]
// owned by subscription Sub.
type treeEntry struct {
	Lo, Hi float64
	Sub    int32
}

// intervalTree is a static centered interval tree answering stabbing
// queries under the half-open containment test Lo < x <= Hi.
type intervalTree struct {
	root *itNode
	size int
}

type itNode struct {
	center      float64
	left, right *itNode
	// byLo holds the entries spanning center, sorted by Lo ascending;
	// byHi holds the same entries sorted by Hi descending.
	byLo []treeEntry
	byHi []treeEntry
}

// buildIntervalTree constructs the tree over the entries. Entries with
// empty intervals must be filtered out by the caller.
func buildIntervalTree(entries []treeEntry) *intervalTree {
	t := &intervalTree{size: len(entries)}
	if len(entries) > 0 {
		t.root = buildNode(entries)
	}
	return t
}

func buildNode(entries []treeEntry) *itNode {
	if len(entries) == 0 {
		return nil
	}
	// Median of all endpoints keeps the tree balanced.
	endpoints := make([]float64, 0, 2*len(entries))
	for _, e := range entries {
		endpoints = append(endpoints, e.Lo, e.Hi)
	}
	sort.Float64s(endpoints)
	center := endpoints[len(endpoints)/2]

	var lefts, rights, spans []treeEntry
	for _, e := range entries {
		switch {
		case e.Hi < center:
			lefts = append(lefts, e)
		case e.Lo >= center:
			rights = append(rights, e)
		default: // Lo < center <= Hi: spans the center
			spans = append(spans, e)
		}
	}
	// Degenerate split (all endpoints equal): keep everything here.
	if len(spans) == 0 && (len(lefts) == len(entries) || len(rights) == len(entries)) {
		spans = entries
		lefts, rights = nil, nil
	}

	n := &itNode{center: center}
	n.byLo = append([]treeEntry(nil), spans...)
	sort.Slice(n.byLo, func(i, j int) bool { return n.byLo[i].Lo < n.byLo[j].Lo })
	n.byHi = append([]treeEntry(nil), spans...)
	sort.Slice(n.byHi, func(i, j int) bool { return n.byHi[i].Hi > n.byHi[j].Hi })
	n.left = buildNode(lefts)
	n.right = buildNode(rights)
	return n
}

// stabCount bumps the satisfaction counter of every subscription owning
// an entry whose interval contains x (Lo < x <= Hi). The sorted scans
// prune by one bound; the other bound is verified explicitly so that
// degenerate nodes (which may hold non-spanning entries) stay correct.
// Incrementing the counter set directly, rather than streaming through a
// callback, keeps the match hot path free of closures.
func (t *intervalTree) stabCount(x float64, cs *counterSet) {
	for n := t.root; n != nil; {
		switch {
		case x < n.center:
			for _, e := range n.byLo {
				if e.Lo >= x {
					break
				}
				if x <= e.Hi {
					cs.bump(e.Sub)
				}
			}
			n = n.left
		case x > n.center:
			for _, e := range n.byHi {
				if e.Hi < x {
					break
				}
				if e.Lo < x {
					cs.bump(e.Sub)
				}
			}
			n = n.right
		default: // x == center
			for _, e := range n.byLo {
				if e.Lo < x && x <= e.Hi {
					cs.bump(e.Sub)
				}
			}
			return
		}
	}
}

// Len reports the number of indexed predicates.
func (t *intervalTree) Len() int { return t.size }

package predindex

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/flat"
	"repro/internal/geometry"
)

// Subscription couples a predicate rectangle with its subscriber id,
// mirroring match.Subscription (duplicated here to avoid an import
// cycle; the match package adapts between the two).
type Subscription struct {
	Rect         geometry.Rect
	SubscriberID int
}

// Index is the predicate-counting matcher. Build one with Build; it is
// immutable and safe for concurrent use.
type Index struct {
	dims int
	size int

	// trees[d] indexes the non-wildcard predicates of dimension d.
	trees []*intervalTree
	// required[i] is the number of non-wildcard predicates of
	// subscription i; a publication matches i when it satisfies all of
	// them.
	required []uint16
	// subscriberID[i] is the caller's id for subscription i.
	subscriberID []int
	// alwaysMatch lists subscriptions whose predicates are all
	// wildcards.
	alwaysMatch []int32

	scratch sync.Pool // *counterSet
}

// counterSet is per-query scratch: satisfaction counters plus the list
// of touched subscriptions for O(touched) reset.
type counterSet struct {
	counts  []uint16
	touched []int32
}

func (cs *counterSet) bump(sub int32) {
	if cs.counts[sub] == 0 {
		cs.touched = append(cs.touched, sub)
	}
	cs.counts[sub]++
}

func (cs *counterSet) reset() {
	for _, i := range cs.touched {
		cs.counts[i] = 0
	}
	cs.touched = cs.touched[:0]
}

// isWildcard reports whether the interval constrains nothing.
func isWildcard(iv geometry.Interval) bool {
	return math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1)
}

// Build constructs the index. All rectangles must share dimensionality
// and be non-empty.
func Build(subs []Subscription) (*Index, error) {
	ix := &Index{size: len(subs)}
	if len(subs) == 0 {
		return ix, nil
	}
	ix.dims = subs[0].Rect.Dims()
	if ix.dims == 0 {
		return nil, fmt.Errorf("predindex: zero-dimensional subscription")
	}
	perDim := make([][]treeEntry, ix.dims)
	ix.required = make([]uint16, len(subs))
	ix.subscriberID = make([]int, len(subs))
	for i, s := range subs {
		if s.Rect.Dims() != ix.dims {
			return nil, fmt.Errorf("predindex: mixed dimensionality: %d vs %d", s.Rect.Dims(), ix.dims)
		}
		if s.Rect.Empty() {
			return nil, fmt.Errorf("predindex: subscription %d has an empty rectangle", i)
		}
		ix.subscriberID[i] = s.SubscriberID
		for d, iv := range s.Rect {
			if isWildcard(iv) {
				continue
			}
			perDim[d] = append(perDim[d], treeEntry{Lo: iv.Lo, Hi: iv.Hi, Sub: int32(i)})
			ix.required[i]++
		}
		if ix.required[i] == 0 {
			ix.alwaysMatch = append(ix.alwaysMatch, int32(i))
		}
	}
	ix.trees = make([]*intervalTree, ix.dims)
	for d := range perDim {
		ix.trees[d] = buildIntervalTree(perDim[d])
	}
	ix.scratch.New = func() interface{} {
		return &counterSet{counts: make([]uint16, len(subs))}
	}
	return ix, nil
}

// MustBuild is Build, panicking on error.
func MustBuild(subs []Subscription) *Index {
	ix, err := Build(subs)
	if err != nil {
		panic(err)
	}
	return ix
}

// Len reports the number of indexed subscriptions.
func (ix *Index) Len() int { return ix.size }

// Dims reports the indexed dimensionality (0 when empty).
func (ix *Index) Dims() int { return ix.dims }

// MatchAppendStats appends the subscriber IDs of all subscriptions
// containing p to dst and returns it. It performs no allocation beyond
// growing dst. The per-dimension merge has no nodes or leaf records, so
// of the effort counters only Matched is reported. A point of the wrong
// dimensionality matches nothing.
func (ix *Index) MatchAppendStats(p geometry.Point, dst []int) ([]int, flat.Stats) {
	if ix.size == 0 || len(p) != ix.dims {
		return dst, flat.Stats{}
	}
	n := len(dst)
	cs := ix.scratch.Get().(*counterSet)
	for d, tree := range ix.trees {
		tree.stabCount(p[d], cs)
	}
	for _, i := range ix.alwaysMatch {
		dst = append(dst, ix.subscriberID[i])
	}
	for _, i := range cs.touched {
		if cs.counts[i] == ix.required[i] {
			dst = append(dst, ix.subscriberID[i])
		}
	}
	cs.reset()
	ix.scratch.Put(cs)
	return dst, flat.Stats{Matched: len(dst) - n}
}

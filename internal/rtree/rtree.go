// Package rtree implements a Hilbert-packed R-tree (Kamel & Faloutsos,
// VLDB 1994), the matching baseline named by the paper. In contrast to the
// S-tree's top-down binarization, packing here is bottom-up: rectangle
// centers are sorted along a d-dimensional Hilbert space-filling curve and
// grouped into full leaves of M entries, then leaf MBRs are grouped M at a
// time into internal nodes, and so on to the root. The resulting tree is
// perfectly height balanced.
package rtree

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/invariant"
)

// Entry is one indexed rectangle with its caller-assigned identifier.
type Entry struct {
	Rect geometry.Rect
	ID   int
}

// DefaultBranchFactor mirrors the S-tree's typical fanout so that the two
// indexes are compared at equal page capacity.
const DefaultBranchFactor = 40

// Options configure packing.
type Options struct {
	// BranchFactor is the node capacity M. Zero selects
	// DefaultBranchFactor.
	BranchFactor int
}

func (o Options) withDefaults() Options {
	if o.BranchFactor == 0 {
		o.BranchFactor = DefaultBranchFactor
	}
	return o
}

type node struct {
	mbr      geometry.Rect
	children []*node
	entries  []Entry
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

// Tree is an immutable Hilbert-packed R-tree. The zero value is an empty
// tree matching nothing.
type Tree struct {
	root *node
	size int
	dims int
	// flat is the contiguous array compilation of the pointer tree; all
	// queries run against it (the pointer tree is kept for structural
	// statistics and invariant checks).
	flat *flat.Tree
}

// flatNode adapts *node to flat.Node for flattening after Build.
type flatNode struct{ n *node }

func (a flatNode) MBR() geometry.Rect { return a.n.mbr }
func (a flatNode) NumChildren() int   { return len(a.n.children) }
func (a flatNode) Child(i int) flat.Node {
	return flatNode{a.n.children[i]}
}
func (a flatNode) NumEntries() int { return len(a.n.entries) }
func (a flatNode) Entry(i int) (geometry.Rect, int) {
	e := a.n.entries[i]
	return e.Rect, e.ID
}

// Build packs the entries into a Hilbert R-tree. The input slice is not
// retained or reordered. All rectangles must share dimensionality and be
// non-empty.
func Build(entries []Entry, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	if opts.BranchFactor < 2 {
		return nil, fmt.Errorf("rtree: branch factor must be >= 2, got %d", opts.BranchFactor)
	}
	t := &Tree{size: len(entries)}
	if len(entries) == 0 {
		return t, nil
	}
	t.dims = entries[0].Rect.Dims()
	for _, e := range entries {
		if e.Rect.Dims() != t.dims {
			return nil, fmt.Errorf("rtree: mixed dimensionality: %d vs %d", e.Rect.Dims(), t.dims)
		}
		if e.Rect.Empty() {
			return nil, fmt.Errorf("rtree: entry %d has an empty rectangle", e.ID)
		}
	}

	ordered := hilbertSort(entries)
	level := packLeaves(ordered, opts.BranchFactor)
	for len(level) > 1 {
		level = packInternal(level, opts.BranchFactor)
	}
	t.root = level[0]
	t.flat = flat.Build(flatNode{t.root}, t.dims)
	if invariant.Enabled {
		err := t.checkInvariants(opts.BranchFactor)
		invariant.Assertf(err == nil, "rtree.Build produced an invalid tree: %v", err)
	}
	return t, nil
}

// MustBuild is Build, panicking on error.
func MustBuild(entries []Entry, opts Options) *Tree {
	t, err := Build(entries, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// hilbertSort returns the entries ordered by the Hilbert index of their
// centers, quantised onto a 2^bitsPerDim grid over the data bounding box.
func hilbertSort(entries []Entry) []Entry {
	dims := entries[0].Rect.Dims()
	frame := make(geometry.Rect, dims)
	centers := make([]geometry.Point, len(entries))
	for i, e := range entries {
		centers[i] = e.Rect.Center()
	}
	for d := 0; d < dims; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range centers {
			lo = math.Min(lo, c[d])
			hi = math.Max(hi, c[d])
		}
		if hi <= lo {
			hi = lo + 1
		}
		frame[d] = geometry.NewInterval(lo, hi)
	}

	type keyed struct {
		key []byte
		e   Entry
	}
	keyedEntries := make([]keyed, len(entries))
	coords := make([]uint32, dims)
	maxCoord := float64(uint32(1)<<bitsPerDim - 1)
	for i, e := range entries {
		for d := 0; d < dims; d++ {
			f := (centers[i][d] - frame[d].Lo) / (frame[d].Hi - frame[d].Lo)
			coords[d] = uint32(math.Round(f * maxCoord))
		}
		work := append([]uint32(nil), coords...)
		axesToTranspose(work)
		keyedEntries[i] = keyed{key: hilbertKey(work), e: e}
	}
	sort.SliceStable(keyedEntries, func(i, j int) bool {
		return bytes.Compare(keyedEntries[i].key, keyedEntries[j].key) < 0
	})
	out := make([]Entry, len(entries))
	for i, k := range keyedEntries {
		out[i] = k.e
	}
	return out
}

func packLeaves(ordered []Entry, m int) []*node {
	var leaves []*node
	for start := 0; start < len(ordered); start += m {
		end := start + m
		if end > len(ordered) {
			end = len(ordered)
		}
		chunk := ordered[start:end]
		rects := make([]geometry.Rect, len(chunk))
		for i, e := range chunk {
			rects[i] = e.Rect
		}
		leaves = append(leaves, &node{
			mbr:     geometry.BoundingBox(rects...),
			entries: append([]Entry(nil), chunk...),
		})
	}
	return leaves
}

func packInternal(level []*node, m int) []*node {
	var parents []*node
	for start := 0; start < len(level); start += m {
		end := start + m
		if end > len(level) {
			end = len(level)
		}
		chunk := level[start:end]
		var mbr geometry.Rect
		for _, c := range chunk {
			mbr = mbr.Union(c.mbr)
		}
		parents = append(parents, &node{
			mbr:      mbr,
			children: append([]*node(nil), chunk...),
		})
	}
	return parents
}

// Len reports the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Dims reports the dimensionality of the indexed rectangles, 0 when empty.
func (t *Tree) Dims() int { return t.dims }

// Bounds returns the MBR of all entries, or nil when empty.
func (t *Tree) Bounds() geometry.Rect {
	if t.root == nil {
		return nil
	}
	return t.root.mbr.Clone()
}

// MatchAppendStats appends the IDs of every rectangle containing p to
// dst, in walk order, and returns it with the walk's effort counters. It
// performs no allocation beyond growing dst.
//
//pubsub:hotpath
func (t *Tree) MatchAppendStats(p geometry.Point, dst []int) ([]int, flat.Stats) {
	var st flat.Stats
	if t.flat == nil {
		return dst, st
	}
	sp := flat.GetStack()
	dst, *sp = t.flat.PointAppend(p, dst, *sp, &st)
	flat.PutStack(sp)
	return dst, st
}

// TreeStats describes the packed tree's shape.
type TreeStats struct {
	Nodes     int
	Leaves    int
	Height    int
	MaxBranch int
}

// FlatSize reports the node and entry counts of the flattened
// structure-of-arrays form queries actually traverse (0, 0 before the
// tree is built).
func (t *Tree) FlatSize() (nodes, entries int) {
	if t == nil || t.flat == nil {
		return 0, 0
	}
	return t.flat.NumNodes(), t.flat.NumEntries()
}

// Stats computes structural statistics.
func (t *Tree) Stats() TreeStats {
	var s TreeStats
	if t.root == nil {
		return s
	}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.isLeaf() {
			s.Leaves++
			return
		}
		if len(n.children) > s.MaxBranch {
			s.MaxBranch = len(n.children)
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 1)
	return s
}

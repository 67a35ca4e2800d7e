// Package stree implements the S-tree spatial index of Aggarwal, Wolf, Yu
// and Epelman ("Using unbalanced trees for indexing multidimensional
// objects", Knowledge and Information Systems 1:309-336, 1999), as used by
// the paper for the content-based matching problem.
//
// An S-tree stores axis-aligned rectangles (subscriptions). Its node
// structure is identical to an R-tree's — leaf records hold
// (rectangle, subscription-id) pairs and internal records hold
// (minimum-bounding-rectangle, child-pointer) pairs — but unlike an R-tree
// it is not necessarily height balanced. Construction is a two stage
// static packing:
//
//  1. Binarization: a binary tree is built top-down. Each node's entries
//     are ordered by their centers along the node MBR's longest dimension
//     and swept for the two-way split minimising the sum of the children's
//     bounding-box volumes, subject to the skew constraint that each child
//     holds at least p·N_A of the node's N_A objects.
//  2. Compression: the binary tree is collapsed into an M-ary tree by
//     repeatedly merging a parent with a branch-factor-2 child (the one
//     with the highest leaf number), top-down in BFS order, until every
//     node other than leaf and penultimate nodes has branch factor M.
//
// Cost of a build. Build copies every entry's bounds once into a slab,
// 2·dims floats per entry, and never moves an entry: the working order is
// an array of pointer-free (center, index) pairs, and each node sorts
// only its own range of it with a pdqsort specialized to those pairs
// (sort.go), whose comparison inlines; a node split along its parent's
// dimension is already in order and is not sorted again. Sort keys and
// the running unions read the slab, never an entry's rectangle. One forward and one backward
// running union record bounding boxes only at the candidate splits,
// which are scored by an allocation-free clamped volume and perimeter.
// The children's MBRs are the chosen prefix and suffix boxes, so only the
// root's bounding box is computed from scratch. The pointer tree is
// transient: it is compressed, checked under the invariants build tag,
// flattened — the slab becomes the flat tree's entry planes — and
// dropped, so a Tree holds only the flat arrays. One builder holds all
// scratch, so a build allocates O(nodes) times, not O(n log n).
//
// A publication event is matched with a point query: descend from the
// root, pruning every subtree whose MBR does not contain the point.
// Because subscriptions are exactly their own bounding boxes, the result
// is exact, not approximate.
package stree

import (
	"fmt"
	"math"

	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/invariant"
)

// Entry is one indexed subscription: its rectangle and caller-assigned
// identifier.
type Entry struct {
	Rect geometry.Rect
	ID   int
}

// DefaultBranchFactor is the paper's typical fanout M ("M is typically
// chosen to be about 40").
const DefaultBranchFactor = 40

// DefaultSkew is the paper's typical skew factor p ("Typically p is chosen
// to be about 0.3").
const DefaultSkew = 0.3

// Options configure S-tree construction.
type Options struct {
	// BranchFactor is the maximum fanout M of internal nodes. It also
	// bounds the number of entries per leaf. Zero selects
	// DefaultBranchFactor.
	BranchFactor int
	// Skew is the skew factor p in (0, 1/2]. Every binarization split
	// leaves at least Skew·N_A objects on each side. Zero selects
	// DefaultSkew.
	Skew float64
}

func (o Options) withDefaults() Options {
	if o.BranchFactor == 0 {
		o.BranchFactor = DefaultBranchFactor
	}
	if o.Skew == 0 {
		o.Skew = DefaultSkew
	}
	return o
}

func (o Options) validate() error {
	if o.BranchFactor < 2 {
		return fmt.Errorf("stree: branch factor M must be >= 2, got %d", o.BranchFactor)
	}
	if o.Skew <= 0 || o.Skew > 0.5 {
		return fmt.Errorf("stree: skew factor p must lie in (0, 1/2], got %g", o.Skew)
	}
	return nil
}

// node is a node of the transient pointer tree. A node covers the
// entries at positions [lo, hi) of the build's final entry order; a leaf
// (no children) holds exactly them.
type node struct {
	mbr      geometry.Rect
	children []*node
	lo, hi   int
	order    *leafOrder // the build's final entry order
	dead     bool       // set when compression merges this node away
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

// leafObjects is the paper's "leaf number" N_A: the number of data
// objects stored in the leaf descendants of this node.
func (n *node) leafObjects() int { return n.hi - n.lo }

// Tree is an immutable S-tree over a set of subscription entries.
// Build it with Build; the zero value is an empty tree that matches
// nothing.
type Tree struct {
	opts Options
	size int
	dims int
	// flat is the contiguous array compilation of the packed tree, and
	// the only form a Tree keeps: queries, Stats, Bounds and the
	// invariant checks all read it.
	flat *flat.Tree
}

// leafOrder is a packing's final entry order: position k holds
// src[keys[k].i].
type leafOrder struct {
	src  []Entry
	keys []keyed
}

func (o *leafOrder) entry(k int) Entry { return o.src[o.keys[k].i] }

// flatNode adapts *node to flat.Node for flattening after Build. It is
// one pointer, so an interface holds it without allocating.
type flatNode struct{ n *node }

func (a flatNode) MBR() geometry.Rect { return a.n.mbr }
func (a flatNode) NumChildren() int   { return len(a.n.children) }
func (a flatNode) Child(i int) flat.Node {
	return flatNode{a.n.children[i]}
}

func (a flatNode) NumEntries() int {
	if !a.n.isLeaf() {
		return 0
	}
	return a.n.leafObjects()
}

func (a flatNode) Entry(i int) (geometry.Rect, int) {
	e := a.n.order.entry(a.n.lo + i)
	return e.Rect, e.ID
}

// Build constructs an S-tree over the entries. The entries slice is not
// retained, nor are the rectangles: the tree keeps its own copy of the
// bounds. All rectangles must share the same dimensionality. Building an
// empty set yields a tree whose queries return nothing.
func Build(entries []Entry, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Tree{opts: opts, size: len(entries)}
	if len(entries) == 0 {
		return t, nil
	}
	t.dims = entries[0].Rect.Dims()
	for _, e := range entries {
		if e.Rect.Dims() != t.dims {
			return nil, fmt.Errorf("stree: mixed dimensionality: %d vs %d", e.Rect.Dims(), t.dims)
		}
		if e.Rect.Empty() {
			return nil, fmt.Errorf("stree: entry %d has an empty rectangle", e.ID)
		}
	}
	b := newBuilder(entries, opts)
	root := b.root()
	compress(root, opts.BranchFactor)
	// The flat tree reads the entries, not the slab, so the slab can
	// become its entry planes.
	t.flat = flat.BuildInto(flatNode{root}, t.dims, b.slab)
	if invariant.Enabled {
		err := t.checkInvariants()
		invariant.Assertf(err == nil, "stree.Build produced an invalid tree: %v", err)
	}
	return t, nil
}

// MustBuild is Build, panicking on error. Intended for tests and for
// callers that pass validated options.
func MustBuild(entries []Entry, opts Options) *Tree {
	t, err := Build(entries, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// finiteFrame computes a finite rectangle that covers every finite bound
// among the entries, used to measure volumes in the presence of unbounded
// subscription rectangles (e.g. "volume >= 1000" has no upper bound). A
// dimension with no finite bounds at all measures as unit length.
func finiteFrame(entries []Entry) geometry.Rect {
	dims := entries[0].Rect.Dims()
	frame := make(geometry.Rect, dims)
	for d := range frame {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range entries {
			if v := e.Rect[d].Lo; !math.IsInf(v, 0) && v < lo {
				lo = v
			}
			if v := e.Rect[d].Hi; !math.IsInf(v, 0) && v > hi {
				hi = v
			}
			// A finite Hi can also lower-bound the frame, and vice versa.
			if v := e.Rect[d].Hi; !math.IsInf(v, 0) && v < lo {
				lo = v
			}
			if v := e.Rect[d].Lo; !math.IsInf(v, 0) && v > hi {
				hi = v
			}
		}
		if math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi <= lo {
			frame[d] = geometry.NewInterval(0, 1)
			continue
		}
		// Pad so clamped unbounded sides still dominate bounded ones.
		pad := (hi - lo) * 0.1
		frame[d] = geometry.NewInterval(lo-pad, hi+pad)
	}
	return frame
}

// builder holds all scratch of one Build. The entries are never moved
// while the tree is binarized: keys is the working order (keys[k].i
// indexes src) and each node sorts only its own range of it.
type builder struct {
	opts  Options
	dims  int
	frame geometry.Rect
	// slab holds the bounds of src[i] at [2·dims·i, 2·dims·(i+1)): Lo
	// and Hi of dimension 0, then of dimension 1, and so on.
	slab  []float64
	keys  []keyed       // the working order and the sort's pairs
	order leafOrder     // src in the order keys ends in
	acc   geometry.Rect // running union of the split sweep
	// pre and suf hold, dims intervals per candidate split, the MBRs of
	// the entries before and from that split.
	pre, suf []geometry.Interval
}

// keyed is one entry's sort key — its center on the node's split
// dimension — and its index into src. It holds no pointer, so sorting
// moves 16-byte values with no write barrier.
type keyed struct {
	key float64
	i   int32
}

func newBuilder(entries []Entry, opts Options) *builder {
	n, dims := len(entries), entries[0].Rect.Dims()
	// The root has the most candidate splits; sizing pre and suf for it
	// sizes them for every node.
	cands := n/opts.BranchFactor + 1
	b := &builder{
		opts:  opts,
		dims:  dims,
		frame: finiteFrame(entries),
		slab:  make([]float64, 2*dims*n),
		keys:  make([]keyed, n),
		acc:   make(geometry.Rect, dims),
		pre:   make([]geometry.Interval, cands*dims),
		suf:   make([]geometry.Interval, cands*dims),
	}
	b.order = leafOrder{src: entries, keys: b.keys}
	for i, e := range entries {
		row := b.slab[2*dims*i : 2*dims*(i+1)]
		for d, iv := range e.Rect {
			row[2*d], row[2*d+1] = iv.Lo, iv.Hi
		}
		b.keys[i].i = int32(i)
	}
	return b
}

// bounds returns the slab row of the entry at working position k.
func (b *builder) bounds(k int) []float64 {
	w := 2 * b.dims
	i := int(b.keys[k].i) * w
	return b.slab[i : i+w : i+w]
}

// load sets acc to the rectangle of a slab row.
func load(acc geometry.Rect, row []float64) {
	row = row[:2*len(acc)]
	for d := range acc {
		acc[d] = geometry.Interval{Lo: row[2*d], Hi: row[2*d+1]}
	}
}

// extend is geometry.Rect.Extend by the rectangle of a slab row: the
// same min and max, so the same bits.
func extend(acc geometry.Rect, row []float64) {
	row = row[:2*len(acc)]
	for d := range acc {
		acc[d].Lo = min(acc[d].Lo, row[2*d])
		acc[d].Hi = max(acc[d].Hi, row[2*d+1])
	}
}

// root binarizes every entry under their bounding box.
func (b *builder) root() *node {
	w := 2 * b.dims
	mbr := make(geometry.Rect, b.dims)
	load(mbr, b.slab)
	for i := w; i < len(b.slab); i += w {
		extend(mbr, b.slab[i:i+w])
	}
	return b.binarize(0, len(b.keys), mbr, -1)
}

// binarize implements the paper's Section 3.1 recursive sweep partition
// over the working positions [lo, hi), whose bounding box is mbr and
// which are already in center order along sorted (−1: no order).
func (b *builder) binarize(lo, hi int, mbr geometry.Rect, sorted int) *node {
	n := &node{mbr: mbr, lo: lo, hi: hi, order: &b.order}
	if hi-lo <= b.opts.BranchFactor {
		return n
	}
	// A child split along its parent's dimension is a run of the
	// parent's sorted order. pdqsort leaves a sorted run as it is — its
	// pivot sampling then reports an increasing run, which one
	// insertion pass confirms — so the node skips the sort and packs
	// the same tree. (Centers are never NaN, which would break the
	// order: a NaN bound makes a rectangle empty, and Build rejects it.)
	dim := mbr.LongestDim()
	if dim != sorted {
		b.sortByCenter(lo, hi, dim)
	}
	q, left, right := b.bestSplit(lo, hi)
	n.children = []*node{b.binarize(lo, lo+q, left, dim), b.binarize(lo+q, hi, right, dim)}
	return n
}

// sortByCenter orders the working positions [lo, hi) by the entries'
// centers along dim.
func (b *builder) sortByCenter(lo, hi, dim int) {
	keys, w := b.keys[lo:hi], 2*b.dims
	for k := range keys {
		j := int(keys[k].i)*w + 2*dim
		keys[k].key = geometry.Interval{Lo: b.slab[j], Hi: b.slab[j+1]}.Center()
	}
	sortKeyed(keys)
}

// bestSplit sweeps candidate split positions q with
// ceil(p·N) <= q <= floor((1-p)·N), in increments of M, over the sorted
// positions [lo, hi), and returns the q minimising V(I_B1)+V(I_B2), ties
// broken by minimum total perimeter, with the two sides' MBRs. The MBRs
// "can be computed incrementally as the sweep progresses" (the paper): a
// forward and a backward running union record them at the candidates
// only. Volumes are measured clamped to the finite frame, so unbounded
// subscriptions stay comparable.
func (b *builder) bestSplit(lo, hi int) (q int, left, right geometry.Rect) {
	n, d, m := hi-lo, b.dims, b.opts.BranchFactor
	qmin, qmax := splitRange(n, b.opts.Skew)
	cands := (qmax-qmin)/m + 1
	pre, suf, acc := b.pre[:cands*d], b.suf[:cands*d], b.acc

	// Forward: pre holds the MBR of the first qmin+c·M entries.
	load(acc, b.bounds(lo))
	for k, c := 1, 0; ; k++ {
		if k == qmin+c*m {
			copy(pre[c*d:], acc)
			if c++; c == cands {
				break
			}
		}
		extend(acc, b.bounds(lo+k))
	}
	// Backward: suf holds the MBR of the entries from qmin+c·M on.
	load(acc, b.bounds(hi-1))
	for k, c := n-1, cands-1; ; k-- {
		if k == qmin+c*m {
			copy(suf[c*d:], acc)
			if c--; c < 0 {
				break
			}
		}
		extend(acc, b.bounds(lo+k-1))
	}

	best := 0
	bestVol, bestPerim := math.Inf(1), math.Inf(1)
	for c := 0; c < cands; c++ {
		lv, lp := geometry.Rect(pre[c*d : (c+1)*d]).ClampedMeasure(b.frame)
		rv, rp := geometry.Rect(suf[c*d : (c+1)*d]).ClampedMeasure(b.frame)
		if vol, perim := lv+rv, lp+rp; vol < bestVol || (vol == bestVol && perim < bestPerim) {
			best, bestVol, bestPerim = c, vol, perim
		}
	}
	q = qmin + best*m
	invariant.Assertf(q >= qmin && q <= qmax && q < n,
		"stree: split point %d outside skew bounds [%d, %d], n=%d", q, qmin, qmax, n)
	boxes := make(geometry.Rect, 2*d)
	copy(boxes, pre[best*d:(best+1)*d])
	copy(boxes[d:], suf[best*d:(best+1)*d])
	return q, boxes[:d:d], boxes[d:]
}

// splitRange returns the skew-constrained candidate range [qmin, qmax]
// for splitting n > M objects, falling back to the median split when the
// constraint admits no position.
func splitRange(n int, p float64) (qmin, qmax int) {
	qmin = int(math.Ceil(p * float64(n)))
	qmax = int(math.Floor((1 - p) * float64(n)))
	if qmin < 1 {
		qmin = 1
	}
	if qmax > n-1 {
		qmax = n - 1
	}
	if qmax < qmin {
		qmin, qmax = n/2, n/2
	}
	return qmin, qmax
}

// compress implements the paper's Section 3.2 in two phases:
// first the bottom-up formation of penultimate nodes, then the top-down
// BFS collapse of branch-factor-2 children.
func compress(root *node, m int) {
	if root.isLeaf() {
		return
	}
	formPenultimate(root, m, nil)
	collapseTopDown(root, m)
}

// formPenultimate finds every node A whose leaf-node count is <= M while
// its parent's exceeds M, and flattens A so its children are exactly its
// leaf descendants. Such A become the penultimate nodes of the final tree.
func formPenultimate(n *node, m int, parent *node) {
	if n.isLeaf() {
		return
	}
	if leafNodeCount(n) <= m && (parent == nil || leafNodeCount(parent) > m) {
		n.children = collectLeaves(n)
		return
	}
	for _, c := range n.children {
		formPenultimate(c, m, n)
	}
}

func leafNodeCount(n *node) int {
	if n.isLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.children {
		total += leafNodeCount(c)
	}
	return total
}

func collectLeaves(n *node) []*node {
	if n.isLeaf() {
		return []*node{n}
	}
	var leaves []*node
	for _, c := range n.children {
		leaves = append(leaves, collectLeaves(c)...)
	}
	return leaves
}

// collapseTopDown processes non-leaf nodes in BFS order. Each node keeps
// absorbing its eligible child — the non-leaf, branch-factor-2 child with
// the highest leaf number — until its branch factor reaches M or no
// eligible child remains. Absorbing a child replaces it, in the parent's
// child list, with the child's own children, raising the branch factor by
// exactly one per step so M is never exceeded.
func collapseTopDown(root *node, m int) {
	queue := bfsInternal(root)
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		if a.dead || a.isLeaf() {
			continue
		}
		for len(a.children) < m {
			b := eligibleChild(a)
			if b == nil {
				break
			}
			b.dead = true
			a.children = replaceChild(a.children, b, b.children)
		}
	}
}

// eligibleChild returns the non-leaf child of a with branch factor 2 that
// has the highest leaf number, or nil if none exists. As the paper notes,
// such a child can never be a leaf node.
func eligibleChild(a *node) *node {
	var best *node
	for _, c := range a.children {
		if c.isLeaf() || len(c.children) != 2 {
			continue
		}
		if best == nil || c.leafObjects() > best.leafObjects() {
			best = c
		}
	}
	return best
}

func replaceChild(children []*node, old *node, repl []*node) []*node {
	out := make([]*node, 0, len(children)-1+len(repl))
	for _, c := range children {
		if c == old {
			out = append(out, repl...)
			continue
		}
		out = append(out, c)
	}
	return out
}

func bfsInternal(root *node) []*node {
	var order []*node
	frontier := []*node{root}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		if n.isLeaf() {
			continue
		}
		order = append(order, n)
		frontier = append(frontier, n.children...)
	}
	return order
}

// Len reports the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Dims reports the dimensionality of the indexed rectangles, 0 when empty.
func (t *Tree) Dims() int { return t.dims }

// Bounds returns the minimum bounding rectangle of all indexed entries,
// or nil for an empty tree.
func (t *Tree) Bounds() geometry.Rect {
	if t.flat == nil {
		return nil
	}
	return t.flat.NodeRect(0)
}

// MatchAppendStats is the paper's matching operation: it appends the IDs
// of every subscription rectangle containing p to dst, in walk order, and
// returns it with the walk's effort counters (the paper: "the choice of
// tree packing influences the number of node pages which need to be
// examined"). It performs no allocation beyond growing dst.
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

// RegionQuery returns the IDs of every subscription rectangle intersecting
// the query rectangle r.
func (t *Tree) RegionQuery(r geometry.Rect) []int {
	var ids []int
	t.RegionQueryFunc(r, func(id int) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// RegionQueryFunc streams the IDs of subscriptions intersecting r to fn;
// return false from fn to stop early. Region queries answer
// administrative questions such as "which subscriptions overlap this
// part of the event space".
func (t *Tree) RegionQueryFunc(r geometry.Rect, fn func(id int) bool) {
	if t.flat == nil {
		return
	}
	var st flat.Stats
	sp := flat.GetStack()
	*sp = t.flat.RegionFunc(r, *sp, &st, fn)
	flat.PutStack(sp)
}

// TreeStats describes the structure of a built tree.
type TreeStats struct {
	Nodes       int // total nodes
	Leaves      int // leaf nodes
	Height      int // levels; a single-leaf tree has height 1
	MaxBranch   int // maximum fanout observed
	MeanBranch  float64
	MeanLeafLen float64 // mean entries per leaf
}

// Stats computes structural statistics of the tree from its flat
// arrays. Their BFS numbering keeps each level in one node range, and the
// level after [lo, hi) is exactly the children of its nodes.
func (t *Tree) Stats() TreeStats {
	var s TreeStats
	if t.flat == nil {
		return s
	}
	f := t.flat
	internal, childSum, entrySum := 0, 0, 0
	for lo, hi := 0, 1; lo < hi; {
		s.Height++
		next := hi
		for i := lo; i < hi; i++ {
			cs, ce := f.Children(i)
			if cs == ce {
				s.Leaves++
				es, ee := f.Entries(i)
				entrySum += ee - es
				continue
			}
			internal++
			childSum += ce - cs
			s.MaxBranch = max(s.MaxBranch, ce-cs)
			next = ce
		}
		lo, hi = hi, next
	}
	s.Nodes = f.NumNodes()
	if internal > 0 {
		s.MeanBranch = float64(childSum) / float64(internal)
	}
	if s.Leaves > 0 {
		s.MeanLeafLen = float64(entrySum) / float64(s.Leaves)
	}
	return s
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

// checkInvariants verifies the structural invariants of the packing on
// the flat arrays; Build runs it under the invariants build tag, after
// flat.Build has checked the arrays against the pointer tree node for
// node, and tests run it on any tree. It returns an error describing the
// first violation found.
func (t *Tree) checkInvariants() error {
	if t.flat == nil {
		return nil
	}
	f, m := t.flat, t.opts.BranchFactor
	seen := 0
	for i := 0; i < f.NumNodes(); i++ {
		mbr := f.NodeRect(i)
		cs, ce := f.Children(i)
		if cs == ce {
			es, ee := f.Entries(i)
			if ee == es {
				return fmt.Errorf("stree: empty leaf %d", i)
			}
			if ee-es > m {
				return fmt.Errorf("stree: leaf %d holds %d > M=%d entries", i, ee-es, m)
			}
			if es != seen {
				return fmt.Errorf("stree: leaf %d starts at entry %d, want %d", i, es, seen)
			}
			seen = ee
			var union geometry.Rect
			for e := es; e < ee; e++ {
				r, _ := f.Entry(e)
				union = union.Union(r)
			}
			if !mbr.Equal(union) {
				return fmt.Errorf("stree: leaf %d MBR %v != computed %v", i, mbr, union)
			}
			continue
		}
		if ce-cs > m {
			return fmt.Errorf("stree: node %d has branch factor %d > M=%d", i, ce-cs, m)
		}
		if ce-cs < 2 && i != 0 {
			return fmt.Errorf("stree: non-root internal node %d with branch factor %d", i, ce-cs)
		}
		var union geometry.Rect
		for c := cs; c < ce; c++ {
			// Compression fixpoint: a node below branch factor M must
			// have no remaining eligible (non-leaf, branch-factor-2)
			// child.
			if gs, ge := f.Children(c); ce-cs < m && ge-gs == 2 {
				return fmt.Errorf("stree: node %d with branch factor %d < M=%d still has an eligible child", i, ce-cs, m)
			}
			r := f.NodeRect(c)
			if !mbr.ContainsRect(r) {
				return fmt.Errorf("stree: child MBR %v escapes parent %v", r, mbr)
			}
			union = union.Union(r)
		}
		if !mbr.Equal(union) {
			return fmt.Errorf("stree: node %d MBR %v != union of children %v", i, mbr, union)
		}
	}
	if seen != t.size || f.NumEntries() != t.size {
		return fmt.Errorf("stree: tree holds %d entries in its leaves and %d flattened, expected %d", seen, f.NumEntries(), t.size)
	}
	return nil
}

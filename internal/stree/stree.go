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
// Cost of a build. Binarization never moves an entry: per node it runs
// one pdqsort of pointer-free (center, index) pairs and permutes an index
// array. One forward and one backward running union record bounding boxes
// only at the candidate splits, which are scored by an allocation-free
// clamped volume and perimeter. The children's MBRs are the chosen
// prefix and suffix boxes, so only the root's bounding box is computed
// from scratch. One builder holds all scratch, so a build allocates
// O(nodes) times, not O(n log n).
//
// A publication event is matched with a point query: descend from the
// root, pruning every subtree whose MBR does not contain the point.
// Because subscriptions are exactly their own bounding boxes, the result
// is exact, not approximate.
package stree

import (
	"fmt"
	"math"
	"slices"

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

// node is a tree node. Exactly one of children/entries is non-empty;
// leaves hold entries.
type node struct {
	mbr      geometry.Rect
	children []*node
	entries  []Entry
	// leafObjects is the paper's "leaf number" N_A: the number of data
	// objects stored in the leaf descendants of this node.
	leafObjects int
	dead        bool // set when compression merges this node away
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

// penultimate reports whether every child is a leaf.
func (n *node) penultimate() bool {
	if n.isLeaf() {
		return false
	}
	for _, c := range n.children {
		if !c.isLeaf() {
			return false
		}
	}
	return true
}

// Tree is an immutable S-tree over a set of subscription entries.
// Build it with Build; the zero value is an empty tree that matches
// nothing.
type Tree struct {
	root *node
	opts Options
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

// Build constructs an S-tree over the entries. The entries slice is not
// retained; rectangles are referenced, not copied. All rectangles must
// share the same dimensionality. Building an empty set yields a tree whose
// queries return nothing.
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
	root := newBuilder(entries, opts).root()
	compress(root, opts.BranchFactor)
	t.root = root
	t.flat = flat.Build(flatNode{root}, t.dims)
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
// while the tree is binarized: perm is the working order (perm[k] indexes
// src) and each node permutes only its own range of it.
type builder struct {
	opts  Options
	dims  int
	frame geometry.Rect
	src   []Entry // the caller's entries, read only
	out   []Entry // src in final leaf order; the leaves slice it
	perm  []int32
	keys  []keyed       // sort scratch, one pair per entry of the node
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

// cmpKeyed orders pairs by key alone. pdqsort only ever asks cmp < 0,
// which holds exactly when x.key < y.key: the same question, on the same
// sequence of ranges, as the sort.Slice less function the builder once
// used, so ties land in the same order too.
func cmpKeyed(x, y keyed) int {
	switch {
	case x.key < y.key:
		return -1
	case x.key > y.key:
		return 1
	}
	return 0
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
		src:   entries,
		out:   make([]Entry, n),
		perm:  make([]int32, n),
		keys:  make([]keyed, n),
		acc:   make(geometry.Rect, dims),
		pre:   make([]geometry.Interval, cands*dims),
		suf:   make([]geometry.Interval, cands*dims),
	}
	for i := range b.perm {
		b.perm[i] = int32(i)
	}
	return b
}

func (b *builder) rect(k int) geometry.Rect { return b.src[b.perm[k]].Rect }

// root binarizes every entry under their bounding box.
func (b *builder) root() *node {
	mbr := b.src[0].Rect.Clone()
	for _, e := range b.src[1:] {
		mbr.Extend(e.Rect)
	}
	return b.binarize(0, len(b.src), mbr)
}

// binarize implements the paper's Section 3.1 recursive sweep partition
// over perm[lo:hi], whose bounding box is mbr.
func (b *builder) binarize(lo, hi int, mbr geometry.Rect) *node {
	n := &node{mbr: mbr, leafObjects: hi - lo}
	if hi-lo <= b.opts.BranchFactor {
		for k := lo; k < hi; k++ {
			b.out[k] = b.src[b.perm[k]]
		}
		n.entries = b.out[lo:hi]
		return n
	}
	b.sortByCenter(lo, hi, mbr.LongestDim())
	q, left, right := b.bestSplit(lo, hi)
	n.children = []*node{b.binarize(lo, lo+q, left), b.binarize(lo+q, hi, right)}
	return n
}

// sortByCenter orders perm[lo:hi] by the entries' centers along dim.
func (b *builder) sortByCenter(lo, hi, dim int) {
	keys := b.keys[:hi-lo]
	for k := range keys {
		i := b.perm[lo+k]
		keys[k] = keyed{key: b.src[i].Rect[dim].Center(), i: i}
	}
	slices.SortFunc(keys, cmpKeyed)
	for k, kv := range keys {
		b.perm[lo+k] = kv.i
	}
}

// bestSplit sweeps candidate split positions q with
// ceil(p·N) <= q <= floor((1-p)·N), in increments of M, over the sorted
// perm[lo:hi], and returns the q minimising V(I_B1)+V(I_B2), ties broken
// by minimum total perimeter, with the two sides' MBRs. The MBRs "can be
// computed incrementally as the sweep progresses" (the paper): a forward
// and a backward running union record them at the candidates only.
// Volumes are measured clamped to the finite frame, so unbounded
// subscriptions stay comparable.
func (b *builder) bestSplit(lo, hi int) (q int, left, right geometry.Rect) {
	n, d, m := hi-lo, b.dims, b.opts.BranchFactor
	qmin, qmax := splitRange(n, b.opts.Skew)
	cands := (qmax-qmin)/m + 1
	pre, suf, acc := b.pre[:cands*d], b.suf[:cands*d], b.acc

	// Forward: pre holds the MBR of the first qmin+c·M entries.
	copy(acc, b.rect(lo))
	for k, c := 1, 0; ; k++ {
		if k == qmin+c*m {
			copy(pre[c*d:], acc)
			if c++; c == cands {
				break
			}
		}
		acc.Extend(b.rect(lo + k))
	}
	// Backward: suf holds the MBR of the entries from qmin+c·M on.
	copy(acc, b.rect(hi-1))
	for k, c := n-1, cands-1; ; k-- {
		if k == qmin+c*m {
			copy(suf[c*d:], acc)
			if c--; c < 0 {
				break
			}
		}
		acc.Extend(b.rect(lo + k - 1))
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
		if best == nil || c.leafObjects > best.leafObjects {
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
	if t.root == nil {
		return nil
	}
	return t.root.mbr.Clone()
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
	if t.root == nil {
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

// Stats computes structural statistics of the tree.
func (t *Tree) Stats() TreeStats {
	var s TreeStats
	if t.root == nil {
		return s
	}
	internal := 0
	childSum := 0
	entrySum := 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.isLeaf() {
			s.Leaves++
			entrySum += len(n.entries)
			return
		}
		internal++
		childSum += len(n.children)
		if len(n.children) > s.MaxBranch {
			s.MaxBranch = len(n.children)
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 1)
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

// checkInvariants verifies structural invariants; it is used by tests.
// It returns an error describing the first violation found.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	m := t.opts.BranchFactor
	seen := 0
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if n.dead {
			return fmt.Errorf("stree: dead node reachable")
		}
		if n.isLeaf() {
			if len(n.entries) == 0 {
				return fmt.Errorf("stree: empty leaf")
			}
			if len(n.entries) > m {
				return fmt.Errorf("stree: leaf holds %d > M=%d entries", len(n.entries), m)
			}
			seen += len(n.entries)
			var mbr geometry.Rect
			for _, e := range n.entries {
				mbr = mbr.Union(e.Rect)
			}
			if !n.mbr.Equal(mbr) {
				return fmt.Errorf("stree: leaf MBR %v != computed %v", n.mbr, mbr)
			}
			return nil
		}
		if len(n.children) > m {
			return fmt.Errorf("stree: node has branch factor %d > M=%d", len(n.children), m)
		}
		if len(n.children) < 2 && !isRoot {
			return fmt.Errorf("stree: non-root internal node with branch factor %d", len(n.children))
		}
		// Compression fixpoint: a node below branch factor M must have
		// no remaining eligible (non-leaf, branch-factor-2) child.
		if len(n.children) < m && eligibleChild(n) != nil {
			return fmt.Errorf("stree: node with branch factor %d < M=%d still has an eligible child", len(n.children), m)
		}
		var mbr geometry.Rect
		for _, c := range n.children {
			if !n.mbr.ContainsRect(c.mbr) {
				return fmt.Errorf("stree: child MBR %v escapes parent %v", c.mbr, n.mbr)
			}
			mbr = mbr.Union(c.mbr)
			if err := walk(c, false); err != nil {
				return err
			}
		}
		if !n.mbr.Equal(mbr) {
			return fmt.Errorf("stree: node MBR %v != union of children %v", n.mbr, mbr)
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if seen != t.size {
		return fmt.Errorf("stree: tree holds %d entries, expected %d", seen, t.size)
	}
	// The flattened compilation must cover exactly the same entries; its
	// node-for-node equivalence with the pointer tree is checked inside
	// flat.Build when invariants are enabled.
	if t.flat == nil || t.flat.NumEntries() != t.size {
		return fmt.Errorf("stree: flat layout missing or holds wrong entry count")
	}
	return nil
}

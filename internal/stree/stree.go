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
// Cost of a build. Build reads the caller's rectangles once: it checks
// each, copies its bounds into a slab, 2·dims floats per entry, and folds
// them into the root's bounding box and the finite frame volumes are
// clamped to. It never moves an entry: the working order is an array of
// pointer-free (center, index) pairs, and each node sorts only its own
// range of it with a pdqsort specialized to those pairs (sort.go), whose
// comparison inlines; a node split along its parent's dimension is
// already in order and is not sorted again. Sort keys and the split
// sweep read the slab, never an entry's rectangle. The sweep's
// candidate splits cut a node's range into blocks, and every row is
// folded once, into its block's union; prefix and suffix unions of the
// blocks are the candidates' sides, scored by an allocation-free clamped
// volume and perimeter. The children's MBRs are the chosen sides, so
// only the root's bounding box is computed from scratch. The pointer
// tree is transient — its nodes, MBRs and child lists are runs of slabs
// sized up front — compressed, checked under the invariants build tag,
// flattened — the slab becomes the flat tree's entry planes — and
// dropped, so a Tree holds only the flat arrays. A build allocates a
// fixed number of objects, whatever the number of entries.
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
// (no children) holds exactly them. A node is an element of its
// builder's node slab, its MBR the run of the box slab at its index and
// its final child list a run of the child slab, so the tree becomes
// garbage only as a whole.
type node struct {
	// first and next link the node's children, in order, while the tree
	// is binarized and compressed.
	first, next *node
	b           *builder
	lo, hi      int32
	idx         int32 // the node's index in the node slab
	nchild      int32 // the number of children
	leaves      int32 // the binary subtree's leaf-node count
	kids        int32 // where the final child list starts in the child slab
}

func (n *node) isLeaf() bool { return n.first == nil }

func (n *node) mbr() geometry.Rect { return n.b.box(int(n.idx)) }

// leafObjects is the paper's "leaf number" N_A: the number of data
// objects stored in the leaf descendants of this node.
func (n *node) leafObjects() int { return int(n.hi - n.lo) }

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

func (a flatNode) MBR() geometry.Rect { return a.n.mbr() }
func (a flatNode) NumChildren() int   { return int(a.n.nchild) }
func (a flatNode) Child(i int) flat.Node {
	return flatNode{a.n.b.kids[int(a.n.kids)+i]}
}

func (a flatNode) NumEntries() int {
	if !a.n.isLeaf() {
		return 0
	}
	return a.n.leafObjects()
}

func (a flatNode) Entry(i int) (geometry.Rect, int) {
	e := a.n.b.order.entry(int(a.n.lo) + i)
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
	if t.dims == 0 {
		return nil, errEmptyRect(entries[0])
	}
	b := newBuilder(len(entries), t.dims, opts)
	root, err := b.load(entries)
	if err != nil {
		return nil, err
	}
	b.binarize(root, -1)
	b.compress(root)
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

func errEmptyRect(e Entry) error {
	return fmt.Errorf("stree: entry %d has an empty rectangle", e.ID)
}

// builder holds all scratch of one Build. The entries are never moved
// while the tree is binarized: keys is the working order (keys[k].i
// indexes src) and each node sorts only its own range of it.
type builder struct {
	opts Options
	dims int
	// frame is a finite rectangle covering every finite bound among the
	// entries, which volumes are measured clamped to, so unbounded
	// subscriptions (e.g. "volume >= 1000") stay comparable.
	frame geometry.Rect
	// slab holds the bounds of src[i] at [2·dims·i, 2·dims·(i+1)): Lo
	// and Hi of dimension 0, then of dimension 1, and so on.
	slab  []float64
	keys  []keyed   // the working order and the sort's pairs
	order leafOrder // src in the order keys ends in
	// pre and suf hold, dims intervals per candidate split, the MBRs of
	// the entries before and from that split.
	pre, suf []geometry.Interval
	acc      []float64 // two slab rows' worth: union's accumulators
	// nodes is the node slab, boxes holds dims intervals per node, the
	// nodes' MBRs, and kids the final child lists.
	nodes []node
	boxes []geometry.Interval
	kids  []*node
}

// keyed is one entry's sort key — its center on the node's split
// dimension — and its index into src. It holds no pointer, so sorting
// moves 16-byte values with no write barrier.
type keyed struct {
	key float64
	i   int32
}

func newBuilder(n, dims int, opts Options) *builder {
	// The root has the most candidate splits; sizing pre and suf for it
	// sizes them for every node.
	cands := n/opts.BranchFactor + 1
	nodes := maxNodes(n, opts)
	b := &builder{
		opts:  opts,
		dims:  dims,
		frame: make(geometry.Rect, dims),
		slab:  make([]float64, 2*dims*n),
		keys:  make([]keyed, n),
		pre:   make([]geometry.Interval, cands*dims),
		suf:   make([]geometry.Interval, cands*dims),
		acc:   make([]float64, 4*dims),
		nodes: make([]node, 0, nodes),
		boxes: make([]geometry.Interval, nodes*dims),
	}
	b.order.keys = b.keys
	return b
}

// maxNodes bounds the node count of the binary tree over n entries: no
// leaf under a split holds fewer than minLeaf entries, so there are at
// most n/minLeaf leaves, and one node fewer than twice that.
func maxNodes(n int, opts Options) int {
	if n <= opts.BranchFactor {
		return 1
	}
	return 2*(n/minLeaf(opts)) - 1
}

// minLeaf is the fewest entries a split of more than M entries leaves on
// either side, taken from splitRange itself. A split of N entries leaves
// each side at least ⌈p·N⌉ − 1 of them (the rounding of p·N and
// (1 − p)·N costs at most one), so no N past the one where p·N − 1
// passes the fewest seen can leave fewer, and the scan stops there.
func minLeaf(opts Options) int {
	least := math.MaxInt
	for n := opts.BranchFactor + 1; least > 1 && opts.Skew*float64(n) < float64(least)+2; n++ {
		qmin, qmax := splitRange(n, opts.Skew)
		least = min(least, qmin, n-qmax)
	}
	return least
}

// newNode takes the next node of the slab, which maxNodes sizes, covering
// the working positions [lo, hi); its MBR is still to fill.
func (b *builder) newNode(lo, hi int) *node {
	k := len(b.nodes)
	b.nodes = b.nodes[:k+1]
	n := &b.nodes[k]
	n.b, n.lo, n.hi, n.idx = b, int32(lo), int32(hi), int32(k)
	return n
}

// box returns the MBR of the node at index k of the node slab.
func (b *builder) box(k int) geometry.Rect {
	d := b.dims
	return b.boxes[k*d : (k+1)*d : (k+1)*d]
}

// load is the one pass over the caller's rectangles: it checks each,
// copies its bounds into its slab row, and folds the row into the root's
// MBR and the finite frame. It returns the root, which covers every
// entry.
func (b *builder) load(entries []Entry) (*node, error) {
	d, w := b.dims, 2*b.dims
	b.order.src = entries
	root := b.newNode(0, len(entries))
	mbr, frame := root.mbr(), b.frame
	for k := range mbr {
		none := geometry.Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
		mbr[k], frame[k] = none, none
	}
	for i, e := range entries {
		if e.Rect.Dims() != d {
			return nil, fmt.Errorf("stree: mixed dimensionality: %d vs %d", e.Rect.Dims(), d)
		}
		row := b.slab[w*i : w*(i+1) : w*(i+1)]
		for k, iv := range e.Rect {
			if iv.Empty() {
				return nil, errEmptyRect(e)
			}
			row[2*k], row[2*k+1] = iv.Lo, iv.Hi
			mbr[k].Lo, mbr[k].Hi = min(mbr[k].Lo, row[2*k]), max(mbr[k].Hi, row[2*k+1])
			frame[k] = widenFrame(frame[k], row[2*k], row[2*k+1])
		}
		b.keys[i].i = int32(i)
	}
	for k, f := range frame {
		if math.IsInf(f.Lo, 0) || math.IsInf(f.Hi, 0) || f.Hi <= f.Lo {
			// A dimension with no finite bounds at all measures as unit
			// length.
			frame[k] = geometry.NewInterval(0, 1)
			continue
		}
		// Pad so clamped unbounded sides still dominate bounded ones.
		pad := (f.Hi - f.Lo) * 0.1
		frame[k] = geometry.NewInterval(f.Lo-pad, f.Hi+pad)
	}
	return root, nil
}

// widenFrame extends f, the finite bounds seen so far in one dimension,
// by an entry's bounds lo and hi, skipping infinite ones. Ties keep the
// bound seen first, so −0 and +0 land as the entries order them.
func widenFrame(f geometry.Interval, lo, hi float64) geometry.Interval {
	if !math.IsInf(lo, 0) && lo < f.Lo {
		f.Lo = lo
	}
	if !math.IsInf(hi, 0) && hi > f.Hi {
		f.Hi = hi
	}
	// A finite Hi can also lower-bound the frame, and vice versa.
	if !math.IsInf(hi, 0) && hi < f.Lo {
		f.Lo = hi
	}
	if !math.IsInf(lo, 0) && lo > f.Hi {
		f.Hi = lo
	}
	return f
}

// union sets box to the MBR of the slab rows at the working positions
// [from, to), which is not empty. Alternate rows fold into two
// accumulators, so two chains of min and max run side by side and their
// rows' loads overlap; the chains then join. Min and max are exact and
// order-free on bounds that are never NaN — geometry.Rect.Extend's — so
// the box has the bits of one running union.
func (b *builder) union(box geometry.Rect, from, to int) {
	w, slab, keys := 2*len(box), b.slab, b.keys[from:to]
	even := b.acc[:w]
	odd := b.acc[w:][:len(even)]
	i := int(keys[0].i) * w
	copy(even, slab[i:i+w])
	copy(odd, even)
	// Slicing to len(even) lets the compiler drop the loop's bounds
	// checks; an odd count folds the last row into both chains.
	for k := 1; k < len(keys); k += 2 {
		i, j := int(keys[k].i)*w, int(keys[min(k+1, len(keys)-1)].i)*w
		r, s := slab[i:][:len(even)], slab[j:][:len(even)]
		for x := 0; x+1 < len(even); x += 2 {
			even[x], odd[x] = min(even[x], r[x]), min(odd[x], s[x])
			even[x+1], odd[x+1] = max(even[x+1], r[x+1]), max(odd[x+1], s[x+1])
		}
	}
	for d := range box {
		box[d] = geometry.Interval{Lo: min(even[2*d], odd[2*d]), Hi: max(even[2*d+1], odd[2*d+1])}
	}
}

// binarize implements the paper's Section 3.1 recursive sweep partition
// of n, whose MBR is filled in and whose working positions are already in
// center order along sorted (−1: no order).
func (b *builder) binarize(n *node, sorted int) {
	lo, hi := int(n.lo), int(n.hi)
	if hi-lo <= b.opts.BranchFactor {
		n.leaves = 1
		return
	}
	// A child split along its parent's dimension is a run of the
	// parent's sorted order. pdqsort leaves a sorted run as it is — its
	// pivot sampling then reports an increasing run, which one
	// insertion pass confirms — so the node skips the sort and packs
	// the same tree. (Centers are never NaN, which would break the
	// order: a NaN bound makes a rectangle empty, and Build rejects it.)
	dim := n.mbr().LongestDim()
	if dim != sorted {
		b.sortByCenter(lo, hi, dim)
	}
	q, leftBox, rightBox := b.bestSplit(lo, hi)
	left, right := b.newNode(lo, lo+q), b.newNode(lo+q, hi)
	copy(left.mbr(), leftBox)
	copy(right.mbr(), rightBox)
	n.first, left.next, n.nchild = left, right, 2
	b.binarize(left, dim)
	b.binarize(right, dim)
	n.leaves = left.leaves + right.leaves
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
// broken by minimum total perimeter, with the two sides' MBRs, which the
// next call overwrites. The MBRs "can be computed incrementally as the
// sweep progresses" (the paper): the candidates cut the range into
// blocks — the head before the first, M entries between two, the tail
// from the last — and every slab row is folded once, into its block's
// union; prefix and suffix unions of the blocks are then the candidates'
// sides. Min and max are exact and order-free on bounds that are never
// NaN, so the boxes are the bits two running unions give. Volumes are
// measured clamped to the finite frame, so unbounded subscriptions stay
// comparable.
func (b *builder) bestSplit(lo, hi int) (q int, left, right geometry.Rect) {
	n, d, m := hi-lo, b.dims, b.opts.BranchFactor
	qmin, qmax := splitRange(n, b.opts.Skew)
	cands := (qmax-qmin)/m + 1
	pre, suf := b.pre[:cands*d], b.suf[:cands*d]
	box := func(s []geometry.Interval, c int) geometry.Rect { return s[c*d : (c+1)*d : (c+1)*d] }

	// Blocks: pre[c] takes the entries just before candidate c, suf's
	// last box the tail.
	last := cands - 1
	b.union(box(pre, 0), lo, lo+qmin)
	for c := 1; c <= last; c++ {
		b.union(box(pre, c), lo+qmin+(c-1)*m, lo+qmin+c*m)
	}
	b.union(box(suf, last), lo+qmin+last*m, hi)
	// Suffixes first, while pre[c+1] still holds the block after
	// candidate c: suf[c] is the MBR of the entries from qmin+c·M on.
	for c := last - 1; c >= 0; c-- {
		s := box(suf, c)
		copy(s, box(pre, c+1))
		s.Extend(box(suf, c+1))
	}
	// Then pre[c] becomes the MBR of the first qmin+c·M entries.
	for c := 1; c <= last; c++ {
		box(pre, c).Extend(box(pre, c-1))
	}

	best := 0
	bestVol, bestPerim := math.Inf(1), math.Inf(1)
	for c := 0; c < cands; c++ {
		lv, lp := box(pre, c).ClampedMeasure(b.frame)
		rv, rp := box(suf, c).ClampedMeasure(b.frame)
		if vol, perim := lv+rv, lp+rp; vol < bestVol || (vol == bestVol && perim < bestPerim) {
			best, bestVol, bestPerim = c, vol, perim
		}
	}
	q = qmin + best*m
	invariant.Assertf(q >= qmin && q <= qmax && q < n,
		"stree: split point %d outside skew bounds [%d, %d], n=%d", q, qmin, qmax, n)
	return q, box(pre, best), box(suf, best)
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

// compress implements the paper's Section 3.2 in two phases: first the
// bottom-up formation of penultimate nodes, then the top-down BFS
// collapse of branch-factor-2 children. Both edit the first/next child
// lists in place; the lists left are then laid out in one slab as the
// nodes' children.
func (b *builder) compress(root *node) {
	if root.isLeaf() {
		return
	}
	m := b.opts.BranchFactor
	formPenultimate(root, m, nil)
	// The binary tree's N nodes are (N−1)/2 internal ones, at most that
	// many in the BFS order, and N−1 others, at most that many in the
	// child lists.
	internal := (len(b.nodes) - 1) / 2
	ptrs := make([]*node, internal+len(b.nodes)-1)
	order := bfsInternal(root, ptrs[:0:internal])
	collapseTopDown(order, m)
	b.kids = ptrs[internal:internal]
	for _, a := range order {
		if a.isLeaf() {
			continue
		}
		a.kids = int32(len(b.kids))
		for c := a.first; c != nil; c = c.next {
			b.kids = append(b.kids, c)
		}
	}
}

// formPenultimate finds every node A whose leaf-node count is <= M while
// its parent's exceeds M, and flattens A so its children are exactly its
// leaf descendants. Such A become the penultimate nodes of the final
// tree. Flattening keeps every node's leaf-node count, so the binary
// tree's counts hold throughout.
func formPenultimate(n *node, m int, parent *node) {
	if n.isLeaf() {
		return
	}
	if int(n.leaves) <= m && (parent == nil || int(parent.leaves) > m) {
		*linkLeaves(n, &n.first) = nil
		n.nchild = n.leaves
		return
	}
	for c := n.first; c != nil; c = c.next {
		formPenultimate(c, m, n)
	}
}

// linkLeaves links the leaves under n, left to right, from *link on and
// returns the next-link of the last of them. Each sibling link is read
// before a later leaf can overwrite it.
func linkLeaves(n *node, link **node) **node {
	if n.isLeaf() {
		*link = n
		return &n.next
	}
	for c := n.first; c != nil; {
		next := c.next
		link = linkLeaves(c, link)
		c = next
	}
	return link
}

// collapseTopDown processes the non-leaf nodes in BFS order. Each node
// keeps absorbing its eligible child — the non-leaf, branch-factor-2
// child with the highest leaf number — until its branch factor reaches M
// or no eligible child remains. Absorbing a child replaces it, in the
// parent's child list, with the child's own two children, raising the
// branch factor by exactly one per step so M is never exceeded. The
// absorbed child is left with no children, so the order passes over it
// as over a leaf.
func collapseTopDown(order []*node, m int) {
	for _, a := range order {
		if a.isLeaf() {
			continue
		}
		for a.nchild < int32(m) {
			link, b := eligibleChild(a)
			if b == nil {
				break
			}
			*link = b.first
			b.first.next.next = b.next
			b.first, b.nchild = nil, 0
			a.nchild++
		}
	}
}

// eligibleChild returns the non-leaf child of a with branch factor 2 that
// has the highest leaf number, and the link that points to it, or nil if
// none exists. As the paper notes, such a child can never be a leaf node.
func eligibleChild(a *node) (link **node, best *node) {
	for l := &a.first; *l != nil; l = &(*l).next {
		c := *l
		if c.nchild != 2 {
			continue
		}
		if best == nil || c.leafObjects() > best.leafObjects() {
			link, best = l, c
		}
	}
	return link, best
}

// bfsInternal appends the non-leaf nodes under root, root first, in BFS
// order to order, which it also uses as the queue.
func bfsInternal(root *node, order []*node) []*node {
	order = append(order, root)
	for i := 0; i < len(order); i++ {
		for c := order[i].first; c != nil; c = c.next {
			if !c.isLeaf() {
				order = append(order, c)
			}
		}
	}
	return order
}

// Len reports the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Dims reports the dimensionality of the indexed rectangles, 0 when empty.
func (t *Tree) Dims() int { return t.dims }

// Entry copies the bounds of entry e, 0 <= e < Len() in leaf order, into
// r, one interval for each of its first len(r) dimensions, and returns
// the entry's identifier; a nil r reads the identifier alone. It does
// not allocate.
func (t *Tree) Entry(e int, r geometry.Rect) int { return t.flat.Entry(e, r) }

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
			r := make(geometry.Rect, t.dims)
			for e := es; e < ee; e++ {
				f.Entry(e, r)
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

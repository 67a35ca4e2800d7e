package stree

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/flat"
	"repro/internal/geometry"
)

// ReferenceBuild is Build with the binarization the allocation-free
// builder replaced: sort.Slice over the entries themselves, an allocated
// Rect.Union prefix and suffix MBR at every position, and a BoundingBox
// of every node's entries. It also keeps the builder's earlier finite
// frame, d passes over the entries, and compression, which rebuilt a
// parent's child list at every step. It is kept only as the oracle that
// the builder packs the same tree, bit for bit. The caller validates the
// entries and options.
func ReferenceBuild(entries []Entry, opts Options) *Tree {
	t, _ := ReferencePacking(entries, opts)
	return t
}

// PointerShape is what the pointer tree of a packing says about itself,
// read by walking its nodes: the oracle for Stats and Bounds, which a
// Tree reads from its flat arrays.
type PointerShape struct {
	Stats  TreeStats
	Bounds geometry.Rect
}

// ReferencePacking is ReferenceBuild, also returning the shape of its
// pointer tree before the tree is dropped.
func ReferencePacking(entries []Entry, opts Options) (*Tree, PointerShape) {
	opts = opts.withDefaults()
	t := &Tree{opts: opts, size: len(entries)}
	if len(entries) == 0 {
		return t, PointerShape{}
	}
	t.dims = entries[0].Rect.Dims()
	own := make([]Entry, len(entries))
	copy(own, entries)
	identity := make([]keyed, len(own))
	for k := range identity {
		identity[k].i = int32(k)
	}
	b := &referenceBuilder{opts: opts, frame: refFiniteFrame(entries), order: leafOrder{src: own, keys: identity}}
	root := b.binarize(0, len(own))
	refCompress(root, opts.BranchFactor)
	t.flat = flat.Build(refFlatNode{root}, t.dims)
	return t, PointerShape{Stats: pointerStats(root), Bounds: root.mbr.Clone()}
}

// pointerStats is Stats computed by walking the pointer tree.
func pointerStats(root *refNode) TreeStats {
	var s TreeStats
	internal := 0
	childSum := 0
	entrySum := 0
	var walk func(n *refNode, depth int)
	walk = func(n *refNode, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.isLeaf() {
			s.Leaves++
			entrySum += n.leafObjects()
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
	walk(root, 1)
	if internal > 0 {
		s.MeanBranch = float64(childSum) / float64(internal)
	}
	if s.Leaves > 0 {
		s.MeanLeafLen = float64(entrySum) / float64(s.Leaves)
	}
	return s
}

// referenceBuilder binarizes its own copy of the entries, sorting each
// node's range of it in place, so the copy ends in the final entry order.
type referenceBuilder struct {
	opts  Options
	frame geometry.Rect
	order leafOrder // the copy, in the order it is sorted into
}

func (b *referenceBuilder) binarize(lo, hi int) *refNode {
	entries := b.order.src[lo:hi]
	mbr := geometry.BoundingBox(rectsOf(entries)...)
	n := &refNode{mbr: mbr, lo: lo, hi: hi, order: &b.order}
	if len(entries) <= b.opts.BranchFactor {
		return n
	}
	dim := mbr.LongestDim()
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect[dim].Center() < entries[j].Rect[dim].Center()
	})
	q := b.bestSplit(entries)
	n.children = []*refNode{b.binarize(lo, lo+q), b.binarize(lo+q, hi)}
	return n
}

func (b *referenceBuilder) bestSplit(entries []Entry) int {
	n := len(entries)
	p := b.opts.Skew
	qmin := int(math.Ceil(p * float64(n)))
	qmax := int(math.Floor((1 - p) * float64(n)))
	if qmin < 1 {
		qmin = 1
	}
	if qmax > n-1 {
		qmax = n - 1
	}
	if qmax < qmin {
		qmin, qmax = n/2, n/2
	}
	prefix := make([]geometry.Rect, n+1)
	suffix := make([]geometry.Rect, n+1)
	acc := geometry.Rect(nil)
	for i := 0; i < n; i++ {
		acc = acc.Union(entries[i].Rect)
		prefix[i+1] = acc
	}
	acc = nil
	for i := n - 1; i >= 0; i-- {
		acc = acc.Union(entries[i].Rect)
		suffix[i] = acc
	}
	bestQ := qmin
	bestVol := math.Inf(1)
	bestPerim := math.Inf(1)
	for q := qmin; q <= qmax; q += b.opts.BranchFactor {
		vol := prefix[q].Intersect(b.frame).Volume() + suffix[q].Intersect(b.frame).Volume()
		perim := prefix[q].Intersect(b.frame).Perimeter() + suffix[q].Intersect(b.frame).Perimeter()
		if vol < bestVol || (vol == bestVol && perim < bestPerim) {
			bestQ, bestVol, bestPerim = q, vol, perim
		}
	}
	return bestQ
}

// Identical reports the first difference between two trees, nil when
// they are the same packing: the same header and flattened arrays equal
// bit for bit (−0 is not 0). The arrays are the whole tree — BFS node
// order, child ranges, MBRs, leaf entry ranges, entry rectangles and IDs
// in order — and flat.Build checks them against the pointer tree node
// for node under the invariants build tag.
func Identical(got, want *Tree) error {
	if got.size != want.size || got.dims != want.dims || got.opts != want.opts {
		return fmt.Errorf("header: size %d dims %d %+v, want %d %d %+v",
			got.size, got.dims, got.opts, want.size, want.dims, want.opts)
	}
	if (got.flat == nil) != (want.flat == nil) {
		return fmt.Errorf("flat presence differs")
	}
	if got.flat == nil {
		return nil
	}
	return sameBits(reflect.ValueOf(got.flat).Elem(), reflect.ValueOf(want.flat).Elem(), "flat")
}

// sameBits compares two values of one struct, slice or scalar type field
// by field and element by element, floats by their bits. It reads the
// flat tree's unexported arrays without widening flat's API.
func sameBits(a, b reflect.Value, path string) error {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); err != nil {
				return err
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d, want %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %v, want %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int32:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d, want %d", path, a.Int(), b.Int())
		}
	default:
		return fmt.Errorf("%s: no bitwise comparison for kind %s", path, a.Kind())
	}
	return nil
}

// rectsOf lists the entries' rectangles for BoundingBox.
func rectsOf(entries []Entry) []geometry.Rect {
	rs := make([]geometry.Rect, len(entries))
	for i, e := range entries {
		rs[i] = e.Rect
	}
	return rs
}

// refFiniteFrame is the builder's finite frame as it was computed before
// load folded it into the pass over the entries: d passes, each reading
// every entry's rectangle.
func refFiniteFrame(entries []Entry) geometry.Rect {
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

// refNode is a node of the reference's pointer tree: it covers the
// entries at positions [lo, hi) of the reference's final entry order,
// and a leaf (no children) holds exactly them.
type refNode struct {
	mbr      geometry.Rect
	children []*refNode
	lo, hi   int
	order    *leafOrder
	dead     bool // set when compression merges this node away
}

func (n *refNode) isLeaf() bool { return len(n.children) == 0 }

func (n *refNode) leafObjects() int { return n.hi - n.lo }

// refFlatNode adapts *refNode to flat.Node.
type refFlatNode struct{ n *refNode }

func (a refFlatNode) MBR() geometry.Rect { return a.n.mbr }
func (a refFlatNode) NumChildren() int   { return len(a.n.children) }
func (a refFlatNode) Child(i int) flat.Node {
	return refFlatNode{a.n.children[i]}
}

func (a refFlatNode) NumEntries() int {
	if !a.n.isLeaf() {
		return 0
	}
	return a.n.leafObjects()
}

func (a refFlatNode) Entry(i int) (geometry.Rect, int) {
	e := a.n.order.entry(a.n.lo + i)
	return e.Rect, e.ID
}

// refCompress is the paper's Section 3.2 on child-list slices: the
// bottom-up formation of penultimate nodes, then the top-down BFS
// collapse of branch-factor-2 children.
func refCompress(root *refNode, m int) {
	if root.isLeaf() {
		return
	}
	refFormPenultimate(root, m, nil)
	refCollapseTopDown(root, m)
}

func refFormPenultimate(n *refNode, m int, parent *refNode) {
	if n.isLeaf() {
		return
	}
	if refLeafNodeCount(n) <= m && (parent == nil || refLeafNodeCount(parent) > m) {
		n.children = refCollectLeaves(n)
		return
	}
	for _, c := range n.children {
		refFormPenultimate(c, m, n)
	}
}

func refLeafNodeCount(n *refNode) int {
	if n.isLeaf() {
		return 1
	}
	total := 0
	for _, c := range n.children {
		total += refLeafNodeCount(c)
	}
	return total
}

func refCollectLeaves(n *refNode) []*refNode {
	if n.isLeaf() {
		return []*refNode{n}
	}
	var leaves []*refNode
	for _, c := range n.children {
		leaves = append(leaves, refCollectLeaves(c)...)
	}
	return leaves
}

func refCollapseTopDown(root *refNode, m int) {
	queue := refBFSInternal(root)
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		if a.dead || a.isLeaf() {
			continue
		}
		for len(a.children) < m {
			b := refEligibleChild(a)
			if b == nil {
				break
			}
			b.dead = true
			a.children = refReplaceChild(a.children, b, b.children)
		}
	}
}

func refEligibleChild(a *refNode) *refNode {
	var best *refNode
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

func refReplaceChild(children []*refNode, old *refNode, repl []*refNode) []*refNode {
	out := make([]*refNode, 0, len(children)-1+len(repl))
	for _, c := range children {
		if c == old {
			out = append(out, repl...)
			continue
		}
		out = append(out, c)
	}
	return out
}

func refBFSInternal(root *refNode) []*refNode {
	var order []*refNode
	frontier := []*refNode{root}
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

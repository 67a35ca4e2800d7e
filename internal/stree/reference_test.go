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
// of every node's entries. It is kept only as the oracle that the
// builder packs the same tree, bit for bit. The caller validates the
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
	b := &referenceBuilder{opts: opts, frame: finiteFrame(entries), order: leafOrder{src: own, keys: identity}}
	root := b.binarize(0, len(own))
	compress(root, opts.BranchFactor)
	t.flat = flat.Build(flatNode{root}, t.dims)
	return t, PointerShape{Stats: pointerStats(root), Bounds: root.mbr.Clone()}
}

// pointerStats is Stats computed by walking the pointer tree.
func pointerStats(root *node) TreeStats {
	var s TreeStats
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

func (b *referenceBuilder) binarize(lo, hi int) *node {
	entries := b.order.src[lo:hi]
	mbr := geometry.BoundingBox(rectsOf(entries)...)
	n := &node{mbr: mbr, lo: lo, hi: hi, order: &b.order}
	if len(entries) <= b.opts.BranchFactor {
		return n
	}
	dim := mbr.LongestDim()
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect[dim].Center() < entries[j].Rect[dim].Center()
	})
	q := b.bestSplit(entries)
	n.children = []*node{b.binarize(lo, lo+q), b.binarize(lo+q, hi)}
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

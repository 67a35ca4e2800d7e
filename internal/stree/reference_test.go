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
	opts = opts.withDefaults()
	t := &Tree{opts: opts, size: len(entries)}
	if len(entries) == 0 {
		return t
	}
	t.dims = entries[0].Rect.Dims()
	b := &referenceBuilder{opts: opts, frame: finiteFrame(entries)}
	own := make([]Entry, len(entries))
	copy(own, entries)
	root := b.binarize(own)
	compress(root, opts.BranchFactor)
	t.root = root
	t.flat = flat.Build(flatNode{root}, t.dims)
	return t
}

type referenceBuilder struct {
	opts  Options
	frame geometry.Rect
}

func (b *referenceBuilder) binarize(entries []Entry) *node {
	mbr := geometry.BoundingBox(rectsOf(entries)...)
	n := &node{mbr: mbr, leafObjects: len(entries)}
	if len(entries) <= b.opts.BranchFactor {
		n.entries = entries
		return n
	}
	dim := mbr.LongestDim()
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect[dim].Center() < entries[j].Rect[dim].Center()
	})
	q := b.bestSplit(entries)
	n.children = []*node{b.binarize(entries[:q]), b.binarize(entries[q:])}
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
// they are the same packing: node for node the same MBRs bit for bit
// (−0 is not 0), leaf numbers, child order and entries — IDs and
// rectangle bits in order — and flattened arrays equal bit for bit.
func Identical(got, want *Tree) error {
	if got.size != want.size || got.dims != want.dims || got.opts != want.opts {
		return fmt.Errorf("header: size %d dims %d %+v, want %d %d %+v",
			got.size, got.dims, got.opts, want.size, want.dims, want.opts)
	}
	if (got.root == nil) != (want.root == nil) {
		return fmt.Errorf("root presence differs")
	}
	if got.root != nil {
		if err := sameNode(got.root, want.root, "root"); err != nil {
			return err
		}
	}
	if (got.flat == nil) != (want.flat == nil) {
		return fmt.Errorf("flat presence differs")
	}
	if got.flat == nil {
		return nil
	}
	return sameBits(reflect.ValueOf(got.flat).Elem(), reflect.ValueOf(want.flat).Elem(), "flat")
}

func sameNode(a, b *node, path string) error {
	if !sameRect(a.mbr, b.mbr) {
		return fmt.Errorf("%s: MBR %v, want %v", path, a.mbr, b.mbr)
	}
	if a.leafObjects != b.leafObjects || len(a.children) != len(b.children) || len(a.entries) != len(b.entries) {
		return fmt.Errorf("%s: %d objects, %d children, %d entries; want %d, %d, %d", path,
			a.leafObjects, len(a.children), len(a.entries), b.leafObjects, len(b.children), len(b.entries))
	}
	for i, e := range a.entries {
		if w := b.entries[i]; e.ID != w.ID || !sameRect(e.Rect, w.Rect) {
			return fmt.Errorf("%s: entry %d is %d %v, want %d %v", path, i, e.ID, e.Rect, w.ID, w.Rect)
		}
	}
	for i, c := range a.children {
		if err := sameNode(c, b.children[i], fmt.Sprintf("%s.%d", path, i)); err != nil {
			return err
		}
	}
	return nil
}

func sameRect(a, b geometry.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
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

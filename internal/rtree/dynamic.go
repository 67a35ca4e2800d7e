package rtree

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/flat"
	"repro/internal/geometry"
	"repro/internal/invariant"
)

// Dynamic is an insert/delete-capable R-tree (Guttman-style, quadratic
// split), the online counterpart to the statically packed trees: where
// Build and the S-tree assume the subscription population is known up
// front, Dynamic supports incremental registration and cancellation at
// the cost of a less tightly packed tree. It is not safe for concurrent
// mutation; wrap with a lock for shared use.
type Dynamic struct {
	root   *dnode
	m      int // max entries per node
	minFil int // min entries per node after split
	size   int
	dims   int
}

type dnode struct {
	mbr      geometry.Rect
	children []*dnode
	entries  []Entry
	leaf     bool
}

// NewDynamic creates an empty dynamic R-tree with node capacity m
// (0 selects DefaultBranchFactor).
func NewDynamic(m int) (*Dynamic, error) {
	if m == 0 {
		m = DefaultBranchFactor
	}
	if m < 4 {
		return nil, fmt.Errorf("rtree: dynamic tree needs branch factor >= 4, got %d", m)
	}
	return &Dynamic{m: m, minFil: m * 2 / 5}, nil
}

// MustNewDynamic is NewDynamic, panicking on error.
func MustNewDynamic(m int) *Dynamic {
	t, err := NewDynamic(m)
	if err != nil {
		panic(err)
	}
	return t
}

// Len reports the number of stored entries.
func (t *Dynamic) Len() int { return t.size }

// Stats computes structural statistics of the in-place tree, in the
// same shape the packed trees report.
func (t *Dynamic) Stats() TreeStats {
	var s TreeStats
	if t == nil || t.root == nil {
		return s
	}
	var walk func(n *dnode, depth int)
	walk = func(n *dnode, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.leaf {
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

// Insert adds an entry. Rectangles must be non-empty and share
// dimensionality with previous insertions.
func (t *Dynamic) Insert(e Entry) error {
	if e.Rect.Empty() {
		return fmt.Errorf("rtree: inserting empty rectangle for id %d", e.ID)
	}
	if t.root == nil {
		t.dims = e.Rect.Dims()
		t.root = &dnode{leaf: true, mbr: e.Rect.Clone(), entries: []Entry{e}}
		t.size = 1
		return nil
	}
	if e.Rect.Dims() != t.dims {
		return fmt.Errorf("rtree: dimensionality %d != tree's %d", e.Rect.Dims(), t.dims)
	}
	split := t.insert(t.root, e)
	if split != nil {
		// Root split: grow the tree.
		old := t.root
		t.root = &dnode{
			children: []*dnode{old, split},
			mbr:      old.mbr.Union(split.mbr),
		}
	}
	t.size++
	if invariant.Enabled {
		err := t.checkInvariants()
		invariant.Assertf(err == nil, "rtree.Insert broke the tree: %v", err)
	}
	return nil
}

// insert descends to a leaf, returning a new sibling if the child split.
func (t *Dynamic) insert(n *dnode, e Entry) *dnode {
	n.mbr.ExpandInPlace(e.Rect)
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.m {
			return t.splitLeaf(n)
		}
		return nil
	}
	child := chooseChild(n.children, e.Rect)
	if split := t.insert(child, e); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.m {
			return t.splitInternal(n)
		}
	}
	return nil
}

// chooseChild picks the child whose MBR needs the least volume
// enlargement (ties: smaller volume).
func chooseChild(children []*dnode, r geometry.Rect) *dnode {
	best := children[0]
	bestEnl, bestVol := enlargement(best.mbr, r), boundedVolume(best.mbr)
	for _, c := range children[1:] {
		enl := enlargement(c.mbr, r)
		vol := boundedVolume(c.mbr)
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = c, enl, vol
		}
	}
	return best
}

// boundedVolume measures a rectangle with each side length capped, so
// unbounded subscription rectangles (e.g. "volume >= 1000") still yield
// finite, comparable volumes instead of Inf - Inf = NaN in enlargement
// arithmetic.
func boundedVolume(r geometry.Rect) float64 {
	const sideCap = 1e30
	v := 1.0
	for _, iv := range r {
		l := iv.Length()
		if l > sideCap {
			l = sideCap
		}
		v *= l
	}
	return v
}

func enlargement(mbr, r geometry.Rect) float64 {
	return boundedVolume(mbr.Union(r)) - boundedVolume(mbr)
}

// splitLeaf splits an overflowing leaf with the quadratic method,
// mutating n into one half and returning the other.
func (t *Dynamic) splitLeaf(n *dnode) *dnode {
	gA, gB := quadraticSplit(len(n.entries), t.minFil, func(i int) geometry.Rect { return n.entries[i].Rect })
	a := make([]Entry, 0, len(gA))
	b := make([]Entry, 0, len(gB))
	for _, i := range gA {
		a = append(a, n.entries[i])
	}
	for _, i := range gB {
		b = append(b, n.entries[i])
	}
	sib := &dnode{leaf: true, entries: b}
	n.entries = a
	n.mbr = entriesMBR(n.entries)
	sib.mbr = entriesMBR(sib.entries)
	return sib
}

func (t *Dynamic) splitInternal(n *dnode) *dnode {
	gA, gB := quadraticSplit(len(n.children), t.minFil, func(i int) geometry.Rect { return n.children[i].mbr })
	a := make([]*dnode, 0, len(gA))
	b := make([]*dnode, 0, len(gB))
	for _, i := range gA {
		a = append(a, n.children[i])
	}
	for _, i := range gB {
		b = append(b, n.children[i])
	}
	sib := &dnode{children: b}
	n.children = a
	n.mbr = childrenMBR(n.children)
	sib.mbr = childrenMBR(sib.children)
	return sib
}

func entriesMBR(es []Entry) geometry.Rect {
	var mbr geometry.Rect
	for _, e := range es {
		mbr = mbr.Union(e.Rect)
	}
	return mbr
}

func childrenMBR(cs []*dnode) geometry.Rect {
	var mbr geometry.Rect
	for _, c := range cs {
		mbr = mbr.Union(c.mbr)
	}
	return mbr
}

// quadraticSplit partitions indices 0..n-1 into two groups by Guttman's
// quadratic method: seed with the pair wasting the most volume together,
// then repeatedly place the unassigned item with the strongest group
// preference into the group whose MBR it enlarges least, force-assigning
// the tail when a group needs every remaining item to reach minFill.
func quadraticSplit(n, minFill int, rect func(int) geometry.Rect) (a, b []int) {
	// PickSeeds: the pair with the greatest dead volume.
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			waste := boundedVolume(rect(i).Union(rect(j))) - boundedVolume(rect(i)) - boundedVolume(rect(j))
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	assigned := make([]bool, n)
	assigned[seedA], assigned[seedB] = true, true
	a, b = []int{seedA}, []int{seedB}
	mbrA := rect(seedA).Clone()
	mbrB := rect(seedB).Clone()
	remaining := n - 2

	for remaining > 0 {
		// Force-assign when a group must take everything left to reach
		// the minimum fill.
		if len(a)+remaining <= minFill {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					a = append(a, i)
					mbrA.ExpandInPlace(rect(i))
					assigned[i] = true
				}
			}
			return a, b
		}
		if len(b)+remaining <= minFill {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					b = append(b, i)
					mbrB.ExpandInPlace(rect(i))
					assigned[i] = true
				}
			}
			return a, b
		}
		// PickNext: the item with the largest |enlargement difference|.
		pick, pickA, pickB := -1, 0.0, 0.0
		bestDiff := -1.0
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			enlA := enlargement(mbrA, rect(i))
			enlB := enlargement(mbrB, rect(i))
			if diff := math.Abs(enlA - enlB); diff > bestDiff {
				bestDiff, pick, pickA, pickB = diff, i, enlA, enlB
			}
		}
		if pick < 0 {
			// Defensive: degenerate measurements; take the first
			// unassigned item.
			for i := 0; i < n; i++ {
				if !assigned[i] {
					pick = i
					pickA = enlargement(mbrA, rect(i))
					pickB = enlargement(mbrB, rect(i))
					break
				}
			}
		}
		if pickA < pickB || (pickA == pickB && len(a) <= len(b)) {
			a = append(a, pick)
			mbrA.ExpandInPlace(rect(pick))
		} else {
			b = append(b, pick)
			mbrB.ExpandInPlace(rect(pick))
		}
		assigned[pick] = true
		remaining--
	}
	return a, b
}

// Delete removes one entry with the given id whose rectangle equals r.
// It reports whether an entry was removed. Emptied nodes are pruned and
// ancestor MBRs recomputed; unlike textbook R-trees no reinsertion is
// performed, trading a looser tree for simplicity (quality is recovered
// on the next rebuild in workloads that use one).
func (t *Dynamic) Delete(id int, r geometry.Rect) bool {
	if t.root == nil {
		return false
	}
	removed := t.remove(t.root, id, r)
	if !removed {
		return false
	}
	t.size--
	// Shrink the root: an internal root with one child is replaced by
	// that child; an empty tree drops the root.
	for t.root != nil {
		if t.root.leaf {
			if len(t.root.entries) == 0 {
				t.root = nil
			}
			break
		}
		if len(t.root.children) == 1 {
			t.root = t.root.children[0]
			continue
		}
		break
	}
	if invariant.Enabled {
		err := t.checkInvariants()
		invariant.Assertf(err == nil, "rtree.Delete broke the tree: %v", err)
	}
	return true
}

func (t *Dynamic) remove(n *dnode, id int, r geometry.Rect) bool {
	if !n.mbr.ContainsRect(r) {
		return false
	}
	if n.leaf {
		for i, e := range n.entries {
			if e.ID == id && e.Rect.Equal(r) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				n.mbr = entriesMBR(n.entries)
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if !c.mbr.ContainsRect(r) {
			continue
		}
		if t.remove(c, id, r) {
			if (c.leaf && len(c.entries) == 0) || (!c.leaf && len(c.children) == 0) {
				n.children = append(n.children[:i], n.children[i+1:]...)
			}
			n.mbr = childrenMBR(n.children)
			return true
		}
	}
	return false
}

// dstackPool recycles traversal stacks so steady-state queries over the
// dynamic tree allocate nothing.
var dstackPool = sync.Pool{
	New: func() any {
		s := make([]*dnode, 0, 64)
		return &s
	},
}

// MatchAppendStats appends the IDs of all rectangles containing p to dst
// and returns it with the walk's effort counters. It performs no
// allocation beyond growing dst.
func (t *Dynamic) MatchAppendStats(p geometry.Point, dst []int) ([]int, flat.Stats) {
	var st flat.Stats
	if t.root == nil || !t.root.mbr.Contains(p) {
		return dst, st
	}
	sp := dstackPool.Get().(*[]*dnode)
	stack := append((*sp)[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.NodesVisited++
		if n.leaf {
			st.LeavesVisited++
			st.EntriesTested += len(n.entries)
			for _, e := range n.entries {
				if e.Rect.Contains(p) {
					st.Matched++
					dst = append(dst, e.ID)
				}
			}
			continue
		}
		for _, c := range n.children {
			if c.mbr.Contains(p) {
				stack = append(stack, c)
			}
		}
	}
	*sp = stack
	dstackPool.Put(sp)
	return dst, st
}

// checkInvariants verifies structure; used by tests.
func (t *Dynamic) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("rtree: nil root with size %d", t.size)
		}
		return nil
	}
	count := 0
	var walk func(n *dnode) error
	walk = func(n *dnode) error {
		if n.leaf {
			count += len(n.entries)
			if len(n.entries) > t.m {
				return fmt.Errorf("rtree: leaf overflow %d > %d", len(n.entries), t.m)
			}
			if !n.mbr.Equal(entriesMBR(n.entries)) {
				return fmt.Errorf("rtree: leaf MBR stale")
			}
			return nil
		}
		if len(n.children) == 0 {
			return fmt.Errorf("rtree: empty internal node")
		}
		if len(n.children) > t.m {
			return fmt.Errorf("rtree: node overflow %d > %d", len(n.children), t.m)
		}
		if !n.mbr.Equal(childrenMBR(n.children)) {
			return fmt.Errorf("rtree: internal MBR stale: %v vs %v", n.mbr, childrenMBR(n.children))
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: holds %d entries, size says %d", count, t.size)
	}
	return nil
}

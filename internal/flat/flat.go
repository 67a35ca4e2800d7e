// Package flat compiles a pointer-linked spatial tree (S-tree or packed
// R-tree) into a contiguous, cache-conscious array layout and answers
// point and region queries by walking integer indices instead of chasing
// pointers.
//
// Layout. Nodes are numbered in BFS order, so the children of any node
// occupy a contiguous index range [childStart, childEnd). Leaf entries are
// likewise laid out in one contiguous range [entryStart, entryEnd) of a
// single entries array. Bounds are stored struct-of-arrays as planes: for
// a tree with n nodes over d dimensions, plane 2*k holds the lower bounds
// of dimension k for all n nodes and plane 2*k+1 the upper bounds, i.e.
//
//	nodeBounds[(2*k+0)*n + i] = node i, dimension k, Lo
//	nodeBounds[(2*k+1)*n + i] = node i, dimension k, Hi
//
// Entry bounds use the same plane layout over the entry count.
//
// Point queries. A node's children and a leaf's entries are contiguous
// runs of every plane, so the point walk, PointAppend, tests up to 64 of
// them at a time, a plane at a time: the point's coordinate in dimension
// k is compared against a run of Lo values and a run of Hi values and the
// outcomes are ANDed into a 64-bit mask, with no branch per box. The only
// branches on the data are per run and plane: each plane after the first
// is read only from the lowest to the highest box still in the mask, and
// a run with no box left reads no further planes. On amd64 processors
// with AVX2 the mask comes from an assembly kernel that tests four boxes
// a step (kernel_amd64.s); elsewhere from the Go loop in containMaskGo,
// which gives the same mask bit for bit.
//
// Compaction. A leaf's matching ids are appended by visiting only the
// mask's set bits, lowest first, so a run costs its matches rather than
// its length. Matching children are pushed onto the stack branch-free
// instead, writing every index of the run and advancing the write
// position by its mask bit: a set-bit push measured no faster there.
//
// Runs. Boxes applies the same kernel and compaction to rectangles that
// are not in a tree: an append-only run stored as 64-box plane blocks,
// matched a block at a time like a leaf.
//
// Queries take a caller-provided scratch stack of node indices (returned
// for reuse; see GetStack/PutStack) and never allocate.
//
// The half-open containment convention matches geometry.Interval.Contains:
// x is inside (Lo, Hi] iff x > Lo && x <= Hi.
package flat

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/geometry"
	"repro/internal/invariant"
)

var errf = fmt.Errorf

// Node is the pointer-tree shape flattened by Build. A node is a leaf iff
// NumChildren returns 0; only leaves hold entries.
type Node interface {
	MBR() geometry.Rect
	NumChildren() int
	Child(i int) Node
	NumEntries() int
	Entry(i int) (geometry.Rect, int)
}

// Stats counts the traversal effort of one query: tree nodes entered,
// leaves among them, leaf records tested against the point, and matches.
// It is the one effort type of every index (match.QueryStats aliases it);
// an index without nodes reports the counters that make sense for it.
type Stats struct {
	NodesVisited  int
	LeavesVisited int
	EntriesTested int
	Matched       int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.NodesVisited += o.NodesVisited
	s.LeavesVisited += o.LeavesVisited
	s.EntriesTested += o.EntriesTested
	s.Matched += o.Matched
}

// Tree is the flattened, immutable index. The zero value is an empty tree
// matching nothing.
type Tree struct {
	dims       int
	numNodes   int
	numEntries int

	// nodeBounds holds 2*dims planes of numNodes floats each (see the
	// package comment for the plane layout).
	nodeBounds []float64
	childStart []int32 // per node; childStart==childEnd marks a leaf
	childEnd   []int32
	entryStart []int32 // per node; non-empty only on leaves
	entryEnd   []int32

	entryBounds []float64 // 2*dims planes of numEntries floats each
	entryIDs    []int     // caller-assigned entry identifiers
}

// Build flattens the pointer tree rooted at root. A nil root yields an
// empty tree. dims is the dimensionality of every rectangle in the tree.
func Build(root Node, dims int) *Tree { return BuildInto(root, dims, nil) }

// BuildInto is Build storing the entry planes in planes when it holds
// 2·dims floats per entry of the tree, so a packer's per-entry scratch of
// that size becomes the tree's storage instead of garbage. It
// overwrites planes: root must not read them.
func BuildInto(root Node, dims int, planes []float64) *Tree {
	t := &Tree{dims: dims}
	if root == nil || dims == 0 {
		return t
	}

	// Pass 1: size the arrays, and the BFS queue, so that a build
	// allocates as often at any size.
	nodes, entries := count(root)
	queue := make([]Node, 0, nodes)
	t.numNodes = nodes
	t.numEntries = entries
	t.nodeBounds = make([]float64, 2*dims*nodes)
	t.childStart = make([]int32, nodes)
	t.childEnd = make([]int32, nodes)
	t.entryStart = make([]int32, nodes)
	t.entryEnd = make([]int32, nodes)
	if len(planes) >= 2*dims*entries {
		t.entryBounds = planes[: 2*dims*entries : 2*dims*entries]
	} else {
		t.entryBounds = make([]float64, 2*dims*entries)
	}
	t.entryIDs = make([]int, entries)

	// Pass 2: BFS, assigning child ranges as nodes are enqueued so each
	// node's children land contiguously.
	queue = append(queue, root)
	nextNode := int32(1)
	nextEntry := int32(0)
	for idx := 0; idx < nodes; idx++ {
		n := queue[idx]
		mbr := n.MBR()
		for d := 0; d < dims; d++ {
			t.nodeBounds[(2*d+0)*nodes+idx] = mbr[d].Lo
			t.nodeBounds[(2*d+1)*nodes+idx] = mbr[d].Hi
		}
		nc := n.NumChildren()
		t.childStart[idx] = nextNode
		for i := 0; i < nc; i++ {
			queue = append(queue, n.Child(i))
		}
		nextNode += int32(nc)
		t.childEnd[idx] = nextNode

		ne := n.NumEntries()
		t.entryStart[idx] = nextEntry
		for i := 0; i < ne; i++ {
			r, id := n.Entry(i)
			e := int(nextEntry) + i
			for d := 0; d < dims; d++ {
				t.entryBounds[(2*d+0)*entries+e] = r[d].Lo
				t.entryBounds[(2*d+1)*entries+e] = r[d].Hi
			}
			t.entryIDs[e] = id
		}
		nextEntry += int32(ne)
		t.entryEnd[idx] = nextEntry
	}

	if invariant.Enabled {
		err := t.verify(root)
		invariant.Assertf(err == nil, "flat.Build diverged from source tree: %v", err)
	}
	return t
}

// count returns the number of nodes and of entries in the tree under n.
func count(n Node) (nodes, entries int) {
	nodes, entries = 1, n.NumEntries()
	for i := 0; i < n.NumChildren(); i++ {
		cn, ce := count(n.Child(i))
		nodes, entries = nodes+cn, entries+ce
	}
	return nodes, entries
}

// NumNodes reports the number of flattened nodes.
func (t *Tree) NumNodes() int { return t.numNodes }

// NumEntries reports the number of flattened leaf entries.
func (t *Tree) NumEntries() int { return t.numEntries }

// Dims reports the dimensionality the tree was built with.
func (t *Tree) Dims() int { return t.dims }

// Children returns node i's children as the node range [start, end),
// empty for a leaf.
func (t *Tree) Children(i int) (start, end int) {
	return int(t.childStart[i]), int(t.childEnd[i])
}

// Entries returns leaf i's entries as the entry range [start, end),
// empty for an internal node.
func (t *Tree) Entries(i int) (start, end int) {
	return int(t.entryStart[i]), int(t.entryEnd[i])
}

// NodeRect returns node i's bounding rectangle in a new Rect.
func (t *Tree) NodeRect(i int) geometry.Rect {
	return planeRect(make(geometry.Rect, t.dims), t.nodeBounds, t.numNodes, i)
}

// Entry copies the bounds of entry e into r, one interval for each of
// its first len(r) dimensions, and returns the entry's identifier; a nil
// r reads the identifier alone. It does not allocate.
func (t *Tree) Entry(e int, r geometry.Rect) int {
	planeRect(r, t.entryBounds, t.numEntries, e)
	return t.entryIDs[e]
}

// planeRect copies box i of a plane layout with the given stride into r
// and returns r.
func planeRect(r geometry.Rect, planes []float64, stride, i int) geometry.Rect {
	for d := range r {
		r[d] = geometry.Interval{Lo: planes[(2*d+0)*stride+i], Hi: planes[(2*d+1)*stride+i]}
	}
	return r
}

// nodeIntersects reports whether node i's MBR intersects the non-empty
// region r, mirroring geometry.Rect.Intersects. Stored bounds are never
// empty, so only the overlap test is needed.
func (t *Tree) nodeIntersects(i int32, r geometry.Rect) bool {
	n := t.numNodes
	b := t.nodeBounds
	for d := 0; d < len(r); d++ {
		lo := b[(2*d+0)*n+int(i)]
		hi := b[(2*d+1)*n+int(i)]
		if max64(lo, r[d].Lo) >= min64(hi, r[d].Hi) {
			return false
		}
	}
	return true
}

func (t *Tree) entryIntersects(e int32, r geometry.Rect) bool {
	n := t.numEntries
	b := t.entryBounds
	for d := 0; d < len(r); d++ {
		lo := b[(2*d+0)*n+int(e)]
		hi := b[(2*d+1)*n+int(e)]
		if max64(lo, r[d].Lo) >= min64(hi, r[d].Hi) {
			return false
		}
	}
	return true
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// chunk is how many entries or children one containment mask covers.
const chunk = 64

// containMask returns a mask whose bit j is set iff box start+j of a
// plane layout with the given stride contains p under the half-open
// (Lo, Hi] rule, for the n ≤ chunk boxes from start and a non-empty p. It
// runs containMaskAVX2 where the processor has AVX2, containMaskGo
// elsewhere; under the invariants tag it runs both and checks that they
// agree.
func containMask(planes []float64, stride, start, n int, p geometry.Point) uint64 {
	if !useAVX2 {
		return containMaskGo(planes, stride, start, n, p)
	}
	_ = planes[(2*len(p)-1)*stride+start+n-1] // the last box of the last plane
	mask := containMaskAVX2(planes, stride, start, n, p)
	if invariant.Enabled {
		checkKernel(mask, planes, stride, start, n, p)
	}
	return mask
}

// checkKernel asserts that containMaskGo agrees with the AVX2 kernel's
// mask. Assertf is reached only on a mismatch: boxing its arguments on
// every call would allocate on the zero-allocation publish path.
//
//pubsub:coldpath -- invariants builds only: the assertion formats its message
func checkKernel(mask uint64, planes []float64, stride, start, n int, p geometry.Point) {
	if want := containMaskGo(planes, stride, start, n, p); mask != want {
		invariant.Assertf(false, "flat: AVX2 containment mask %#x, Go loop %#x (boxes [%d,%d), stride %d, p=%v)", mask, want, start, start+n, stride, p)
	}
}

// containMaskGo is containMask in Go, a plane at a time (see the package
// comment). Each plane after the first is read only over the span from
// the lowest to the highest box still in the mask.
func containMaskGo(planes []float64, stride, start, n int, p geometry.Point) uint64 {
	mask := ^uint64(0) >> (chunk - n)
	first, last := start, start+n // the span of boxes still in the mask
	for _, x := range p {
		lo := planes[first:last]
		hi := planes[first+stride : last+stride]
		var in uint64
		for j := len(lo) - 1; j >= 0; j-- {
			in = in<<1 | b2u(x > lo[j])&b2u(x <= hi[j])
		}
		if mask &= in << (first - start); mask == 0 {
			break
		}
		start += 2 * stride
		first, last = start+bits.TrailingZeros64(mask), start+chunk-bits.LeadingZeros64(mask)
	}
	return mask
}

// b2u compiles to a flag set, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// compact appends ids[j] to dst for every set bit j of mask, visiting
// only the set bits.
func compact(dst, ids []int, mask uint64) []int {
	w, n := len(dst), bits.OnesCount64(mask)
	dst = slices.Grow(dst, n)[:w+n]
	for ; mask != 0; mask &= mask - 1 {
		dst[w] = ids[bits.TrailingZeros64(mask)]
		w++
	}
	return dst
}

// pushContaining pushes onto stack, in index order, every node of
// [cs, ce) whose MBR contains p.
func (t *Tree) pushContaining(stack []int32, cs, ce int32, p geometry.Point) []int32 {
	for base := cs; base < ce; base += chunk {
		n := int(min(ce-base, chunk))
		mask := containMask(t.nodeBounds, t.numNodes, int(base), n, p)
		w := len(stack)
		stack = slices.Grow(stack, n)[:w+n]
		for node := base; node < base+int32(n); node++ {
			stack[w] = node
			w += int(mask & 1)
			mask >>= 1
		}
		stack = stack[:w]
	}
	return stack
}

// PointAppend appends the IDs of every entry containing p to dst and
// returns it, along with the (possibly grown) scratch stack for reuse.
// The walk is depth first over the nodes whose MBR contains p — a node's
// children are pushed in index order, so the last is entered first — and
// a leaf's matches are appended in entry order. A leaf's entries all
// count as tested when it is entered. st must be non-nil; counters are
// added to, not reset.
//
//pubsub:hotpath
func (t *Tree) PointAppend(p geometry.Point, dst []int, stack []int32, st *Stats) ([]int, []int32) {
	stack = stack[:0]
	if t.numNodes == 0 || len(p) != t.dims {
		return dst, stack
	}
	stack = t.pushContaining(stack, 0, 1, p)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.NodesVisited++
		if cs, ce := t.childStart[i], t.childEnd[i]; cs != ce {
			stack = t.pushContaining(stack, cs, ce, p)
			continue
		}
		st.LeavesVisited++
		es, ee := t.entryStart[i], t.entryEnd[i]
		st.EntriesTested += int(ee - es)
		for base := es; base < ee; base += chunk {
			end := base + min(ee-base, chunk)
			mask := containMask(t.entryBounds, t.numEntries, int(base), int(end-base), p)
			st.Matched += bits.OnesCount64(mask)
			dst = compact(dst, t.entryIDs[base:end], mask)
		}
	}
	return dst, stack
}

// RegionFunc streams the IDs of entries intersecting r to fn; fn
// returning false stops the walk.
func (t *Tree) RegionFunc(r geometry.Rect, stack []int32, st *Stats, fn func(id int) bool) []int32 {
	if t.numNodes == 0 || len(r) != t.dims || r.Empty() {
		return stack
	}
	stack = stack[:0]
	if t.nodeIntersects(0, r) {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.NodesVisited++
		cs, ce := t.childStart[i], t.childEnd[i]
		if cs == ce {
			st.LeavesVisited++
			es, ee := t.entryStart[i], t.entryEnd[i]
			st.EntriesTested += int(ee - es)
			for e := es; e < ee; e++ {
				if t.entryIntersects(e, r) {
					st.Matched++
					if !fn(t.entryIDs[e]) {
						return stack
					}
				}
			}
			continue
		}
		for c := cs; c < ce; c++ {
			if t.nodeIntersects(c, r) {
				stack = append(stack, c)
			}
		}
	}
	return stack
}

// stackPool recycles traversal stacks across queries so steady-state
// queries allocate nothing.
var stackPool = sync.Pool{
	New: func() any {
		s := make([]int32, 0, 64)
		return &s
	},
}

// GetStack borrows a scratch stack from the shared pool.
func GetStack() *[]int32 { return stackPool.Get().(*[]int32) }

// PutStack returns a stack borrowed with GetStack.
func PutStack(s *[]int32) { stackPool.Put(s) }

// verify re-walks the source pointer tree and checks that the flattened
// arrays reproduce it node for node and entry for entry. Only called when
// the invariants build tag is enabled.
func (t *Tree) verify(root Node) error {
	type pair struct {
		n   Node
		idx int32
	}
	queue := []pair{{root, 0}}
	seenNodes := 0
	seenEntries := 0
	next := int32(1)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seenNodes++
		mbr := cur.n.MBR()
		if len(mbr) != t.dims {
			return errf("node %d: dims %d != %d", cur.idx, len(mbr), t.dims)
		}
		for d := 0; d < t.dims; d++ {
			lo := t.nodeBounds[(2*d+0)*t.numNodes+int(cur.idx)]
			hi := t.nodeBounds[(2*d+1)*t.numNodes+int(cur.idx)]
			if lo != mbr[d].Lo || hi != mbr[d].Hi {
				return errf("node %d dim %d: flat (%g,%g] != source (%g,%g]", cur.idx, d, lo, hi, mbr[d].Lo, mbr[d].Hi)
			}
		}
		nc := cur.n.NumChildren()
		cs, ce := t.childStart[cur.idx], t.childEnd[cur.idx]
		if int(ce-cs) != nc || (nc > 0 && cs != next) {
			return errf("node %d: child range [%d,%d) != %d children at %d", cur.idx, cs, ce, nc, next)
		}
		for i := 0; i < nc; i++ {
			queue = append(queue, pair{cur.n.Child(i), cs + int32(i)})
		}
		next += int32(nc)
		ne := cur.n.NumEntries()
		es, ee := t.entryStart[cur.idx], t.entryEnd[cur.idx]
		if int(ee-es) != ne {
			return errf("node %d: entry range [%d,%d) != %d entries", cur.idx, es, ee, ne)
		}
		for i := 0; i < ne; i++ {
			r, id := cur.n.Entry(i)
			e := es + int32(i)
			if t.entryIDs[e] != id {
				return errf("entry %d: id %d != %d", e, t.entryIDs[e], id)
			}
			for d := 0; d < t.dims; d++ {
				lo := t.entryBounds[(2*d+0)*t.numEntries+int(e)]
				hi := t.entryBounds[(2*d+1)*t.numEntries+int(e)]
				if lo != r[d].Lo || hi != r[d].Hi {
					return errf("entry %d dim %d: flat (%g,%g] != source (%g,%g]", e, d, lo, hi, r[d].Lo, r[d].Hi)
				}
			}
		}
		seenEntries += ne
	}
	if seenNodes != t.numNodes || seenEntries != t.numEntries {
		return errf("walked %d nodes / %d entries, flattened %d / %d", seenNodes, seenEntries, t.numNodes, t.numEntries)
	}
	return nil
}

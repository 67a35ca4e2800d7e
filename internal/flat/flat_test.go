package flat

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geometry"
)

// refNode is a minimal pointer tree used to exercise Build.
type refNode struct {
	mbr      geometry.Rect
	children []*refNode
	rects    []geometry.Rect
	ids      []int
}

func (n *refNode) MBR() geometry.Rect { return n.mbr }
func (n *refNode) NumChildren() int   { return len(n.children) }
func (n *refNode) Child(i int) Node   { return n.children[i] }
func (n *refNode) NumEntries() int    { return len(n.rects) }
func (n *refNode) Entry(i int) (geometry.Rect, int) {
	return n.rects[i], n.ids[i]
}

// buildRef packs rects into leaves of fanout entries each and stacks
// internal levels of the same fanout, bottom-up.
func buildRef(rects []geometry.Rect, ids []int, fanout int) *refNode {
	var leaves []*refNode
	for start := 0; start < len(rects); start += fanout {
		end := start + fanout
		if end > len(rects) {
			end = len(rects)
		}
		mbr := geometry.BoundingBox(rects[start:end]...)
		leaves = append(leaves, &refNode{mbr: mbr, rects: rects[start:end], ids: ids[start:end]})
	}
	level := leaves
	for len(level) > 1 {
		var parents []*refNode
		for start := 0; start < len(level); start += fanout {
			end := start + fanout
			if end > len(level) {
				end = len(level)
			}
			var mbr geometry.Rect
			for _, c := range level[start:end] {
				mbr = mbr.Union(c.mbr)
			}
			parents = append(parents, &refNode{mbr: mbr, children: level[start:end]})
		}
		level = parents
	}
	return level[0]
}

func randomRects(rng *rand.Rand, n, dims int) ([]geometry.Rect, []int) {
	rects := make([]geometry.Rect, n)
	ids := make([]int, n)
	for i := range rects {
		r := make(geometry.Rect, dims)
		for d := range r {
			lo := rng.Float64() * 90
			r[d] = geometry.NewInterval(lo, lo+1+rng.Float64()*20)
		}
		rects[i] = r
		ids[i] = i
	}
	return rects, ids
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refWalk is the walk every point query must reproduce, taken over the
// pointer tree: depth first, the children containing p entered last one
// first (the order a stack of children pushed in index order pops them),
// a leaf's entries in order. st counts what it visits and tests.
func refWalk(n *refNode, p geometry.Point, st *Stats, out []int) []int {
	st.NodesVisited++
	if len(n.children) == 0 {
		st.LeavesVisited++
		st.EntriesTested += len(n.rects)
		for i, r := range n.rects {
			if r.Contains(p) {
				st.Matched++
				out = append(out, n.ids[i])
			}
		}
		return out
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if c := n.children[i]; c.mbr.Contains(p) {
			out = refWalk(c, p, st, out)
		}
	}
	return out
}

// checkPoint runs PointAppend at p and fails unless it returns the ids of
// the reference walk, in its order, with its Stats, and the ids are
// exactly those a scan of rects finds.
func checkPoint(t *testing.T, tree *Tree, root *refNode, rects []geometry.Rect, ids []int, p geometry.Point) {
	t.Helper()
	var want []int
	for i, r := range rects {
		if r.Contains(p) {
			want = append(want, ids[i])
		}
	}
	var wantSt Stats
	var ref []int
	if root.mbr.Contains(p) {
		ref = refWalk(root, p, &wantSt, nil)
	}
	if !equalIDs(sortedCopy(ref), sortedCopy(want)) {
		t.Fatalf("p=%v: reference walk %v, scan %v", p, ref, want)
	}

	var st Stats
	got, _ := tree.PointAppend(p, []int{-1}, nil, &st)
	if got[0] != -1 || !equalIDs(got[1:], ref) || st != wantSt {
		t.Fatalf("p=%v: PointAppend onto [-1] = %v %+v, want [-1 %v] %+v", p, got, st, ref, wantSt)
	}
}

func TestPointQueriesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range []int{1, 2, 3, 4, 8} {
		// Fanout 100 spreads a node's children and a leaf's entries over
		// two containment chunks.
		for _, fanout := range []int{8, 100} {
			rects, ids := randomRects(rng, 300, dims)
			// One side in ten opens to ±Inf, as the paper's half-open and
			// wildcard predicates do.
			for _, r := range rects {
				for d := range r {
					switch rng.Intn(20) {
					case 0:
						r[d] = geometry.NewInterval(math.Inf(-1), r[d].Hi)
					case 1:
						r[d] = geometry.NewInterval(r[d].Lo, math.Inf(1))
					}
				}
			}
			root := buildRef(rects, ids, fanout)
			tree := Build(root, dims)
			if tree.NumEntries() != len(rects) {
				t.Fatalf("dims=%d: flattened %d entries, want %d", dims, tree.NumEntries(), len(rects))
			}
			for q := 0; q < 200; q++ {
				p := make(geometry.Point, dims)
				for d := range p {
					p[d] = rng.Float64() * 120
				}
				checkPoint(t, tree, root, rects, ids, p)
			}
			// Points on stored bounds: a Lo side leaves its point out, a Hi
			// side takes it in.
			for q := 0; q < 200; q++ {
				r := rects[rng.Intn(len(rects))]
				p := make(geometry.Point, dims)
				for d, iv := range r {
					switch lo, hi := iv.Lo, iv.Hi; {
					case rng.Intn(2) == 0 && !math.IsInf(lo, 0):
						p[d] = lo
					case !math.IsInf(hi, 0):
						p[d] = hi
					default:
						p[d] = lo
					}
				}
				checkPoint(t, tree, root, rects, ids, p)
			}
		}
	}
}

// FuzzPointQuery checks the point queries against the reference walk and
// a scan on trees built from the input: every bound and coordinate comes
// from a small palette, so points land on stored bounds, sides are
// infinite and coordinates NaN or infinite often.
func FuzzPointQuery(f *testing.F) {
	f.Add(uint8(4), uint8(6), []byte("\x00\x17\x25\x33\x41\x5f\x6a\x70\x88\x99\xab\xbc\xcd\xde\xef\xf0"))
	f.Add(uint8(1), uint8(70), []byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Fuzz(func(t *testing.T, dims, fanout uint8, data []byte) {
		bounds := []float64{math.Inf(-1), -1, 0, 1, 2, 3, 4, math.Inf(1)}
		coords := []float64{math.Inf(-1), -1, -0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, math.Inf(1), math.NaN(), 0}
		n := int(dims%8) + 1
		var rects []geometry.Rect
		var ids []int
		for i := 0; i+2*n <= len(data) && len(rects) < 200; i += 2 * n {
			r := make(geometry.Rect, n)
			for d := range r {
				a, b := int(data[i+2*d]%8), int(data[i+2*d+1]%8)
				if a > b {
					a, b = b, a
				}
				if a == b {
					a, b = max(a-1, 0), max(a-1, 0)+1
				}
				r[d] = geometry.NewInterval(bounds[a], bounds[b])
			}
			rects = append(rects, r)
			ids = append(ids, len(ids)*3)
		}
		if len(rects) == 0 {
			return
		}
		root := buildRef(rects, ids, int(fanout%130)+2)
		tree := Build(root, n)
		for i := 0; i+n <= len(data) && i < 64*n; i += n {
			p := make(geometry.Point, n)
			for d := range p {
				p[d] = coords[data[i+d]>>4]
			}
			checkPoint(t, tree, root, rects, ids, p)
		}
	})
}

func TestRegionQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rects, ids := randomRects(rng, 250, 2)
	tree := Build(buildRef(rects, ids, 8), 2)
	var stack []int32
	for q := 0; q < 100; q++ {
		region := make(geometry.Rect, 2)
		for d := range region {
			lo := rng.Float64() * 100
			region[d] = geometry.NewInterval(lo, lo+rng.Float64()*30)
		}
		var want []int
		for i, r := range rects {
			if r.Intersects(region) {
				want = append(want, ids[i])
			}
		}
		var got []int
		var st Stats
		stack = tree.RegionFunc(region, stack, &st, func(id int) bool {
			got = append(got, id)
			return true
		})
		if !equalIDs(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("q=%d: RegionFunc = %v, want %v", q, got, want)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rects, ids := randomRects(rng, 100, 2)
	tree := Build(buildRef(rects, ids, 8), 2)
	seen := 0
	var st Stats
	tree.RegionFunc(geometry.NewRect(0, 100, 0, 100), nil, &st, func(int) bool {
		seen++
		return false
	})
	if seen != 1 || st.Matched != 1 {
		t.Fatalf("early-stopped region walk saw %d results, Matched %d, want 1, 1", seen, st.Matched)
	}
}

func TestEmptyAndMismatchedQueries(t *testing.T) {
	empty := Build(nil, 2)
	var st Stats
	dst, _ := empty.PointAppend(geometry.Point{1, 2}, nil, nil, &st)
	if len(dst) != 0 {
		t.Fatalf("empty tree matched %v", dst)
	}

	rng := rand.New(rand.NewSource(5))
	rects, ids := randomRects(rng, 50, 2)
	tree := Build(buildRef(rects, ids, 8), 2)
	dst, _ = tree.PointAppend(geometry.Point{1}, nil, nil, &st) // wrong dims
	if len(dst) != 0 {
		t.Fatalf("mismatched-dims query matched %v", dst)
	}
	dst, _ = tree.PointAppend(geometry.Point{1, 2, 3}, nil, nil, &st)
	if len(dst) != 0 || st != (Stats{}) {
		t.Fatalf("mismatched-dims query matched %v, walked %+v", dst, st)
	}
}

func TestUnboundedRectangles(t *testing.T) {
	// "volume >= 1000"-style half-unbounded subscriptions must flatten
	// and match exactly like the pointer tree.
	inf := geometry.Rect{geometry.Interval{Lo: 1000, Hi: math.Inf(1)}, geometry.NewInterval(0, 10)}
	fin := geometry.Rect{geometry.NewInterval(0, 500), geometry.NewInterval(0, 10)}
	rects := []geometry.Rect{inf, fin}
	ids := []int{7, 8}
	tree := Build(buildRef(rects, ids, 2), 2)
	var st Stats
	dst, _ := tree.PointAppend(geometry.Point{5000, 5}, nil, nil, &st)
	if !equalIDs(dst, []int{7}) {
		t.Fatalf("unbounded match = %v, want [7]", dst)
	}
}

func TestStackPoolRoundTrip(t *testing.T) {
	s := GetStack()
	*s = append(*s, 1, 2, 3)
	PutStack(s)
	s2 := GetStack()
	defer PutStack(s2)
	if cap(*s2) == 0 {
		t.Fatal("pool returned zero-capacity stack")
	}
}

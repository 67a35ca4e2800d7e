package flat

import (
	"math/bits"
	"slices"

	"repro/internal/geometry"
)

// Boxes is an append-only run of rectangles answered by the containment
// kernel instead of rectangle by rectangle. The run is cut into blocks
// of one dimensionality and at most chunk boxes each; a block stores its
// boxes in the package's plane layout with the block's capacity as
// stride, so a point query is one containMask and one set-bit compaction
// per block, the same work as a leaf of a Tree.
//
// A block's capacity starts at one box and doubles when it fills, up to
// chunk, so the planes of a run hold at most twice the floats of its
// boxes whatever sequence of dimensionalities it is given.
//
// A Boxes value is a view of its first Len boxes. Append writes only
// past the end of the value it is called on, so a copy taken earlier
// keeps seeing exactly its own boxes, and a reader of that copy never
// touches the memory an append writes: the sharing rule of a slice and
// its length. As with a slice, only the newest copy may be appended to.
// The zero value is an empty run.
type Boxes struct {
	full []boxBlock // closed blocks; an element is never written once appended
	last boxBlock   // the open block, held by value so that each view has its own count
}

// boxBlock is one block of a run: n boxes from run index first, in
// 2*dims planes of stride floats each. A block grows into fresh planes,
// so planes a view shares with a newer one are written only past the
// view's n.
type boxBlock struct {
	dims, first, n, stride int
	planes                 []float64
}

// Len reports how many boxes the run holds.
func (b *Boxes) Len() int { return b.last.first + b.last.n }

// Append adds r as box Len() of the run in amortised O(len(r)), closing
// the open block when it is full or holds another dimensionality.
func (b *Boxes) Append(r geometry.Rect) {
	d, l := len(r), &b.last
	if l.n > 0 && (l.dims != d || l.n == chunk) {
		b.full = append(b.full, *l)
		*l = boxBlock{first: l.first + l.n}
	}
	if l.n == l.stride {
		// Copy into planes of twice the capacity: a view sharing the old
		// planes keeps reading them unchanged.
		stride := max(1, 2*l.stride)
		planes := make([]float64, 2*d*stride)
		for i := 0; i < 2*d; i++ {
			copy(planes[i*stride:i*stride+l.n], l.planes[i*l.stride:])
		}
		l.dims, l.stride, l.planes = d, stride, planes
	}
	for i, iv := range r {
		l.planes[2*i*l.stride+l.n] = iv.Lo
		l.planes[(2*i+1)*l.stride+l.n] = iv.Hi
	}
	l.n++
}

// Box writes box i of the run into r's backing array, resliced to the
// box's dimensionality, and returns it; it allocates only when r has
// less room than that.
func (b *Boxes) Box(i int, r geometry.Rect) geometry.Rect {
	blk := &b.last
	if i < blk.first {
		// The closed blocks are in run order and none is empty: box i is
		// in the last one that starts at or before it.
		k, found := slices.BinarySearchFunc(b.full, i, func(x boxBlock, i int) int { return x.first - i })
		if !found {
			k--
		}
		blk = &b.full[k]
	}
	r, j := slices.Grow(r[:0], blk.dims)[:blk.dims], i-blk.first
	for d := range r {
		r[d] = geometry.Interval{Lo: blk.planes[2*d*blk.stride+j], Hi: blk.planes[(2*d+1)*blk.stride+j]}
	}
	return r
}

// PointAppend appends to dst, in run order, the index of every box
// containing p under the half-open (Lo, Hi] rule, and returns it. Blocks
// of another dimensionality than p's hold no match and are skipped
// unread. Every box of the run counts as tested; st must be non-nil and
// is added to, not reset.
//
//pubsub:hotpath
func (b *Boxes) PointAppend(p geometry.Point, dst []int, st *Stats) []int {
	st.EntriesTested += b.Len()
	if len(p) == 0 {
		return dst
	}
	for i := 0; i <= len(b.full); i++ {
		blk := &b.last
		if i < len(b.full) {
			blk = &b.full[i]
		}
		if blk.dims != len(p) || blk.n == 0 {
			continue
		}
		mask := containMask(blk.planes, blk.stride, 0, blk.n, p)
		w, c := len(dst), bits.OnesCount64(mask)
		st.Matched += c
		dst = slices.Grow(dst, c)[:w+c]
		for ; mask != 0; mask &= mask - 1 {
			dst[w] = blk.first + bits.TrailingZeros64(mask)
			w++
		}
	}
	return dst
}

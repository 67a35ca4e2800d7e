package flat

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geometry"
)

// FuzzBoxes checks Boxes point queries against geometry.Rect.Contains on
// runs of up to 300 boxes, so across block boundaries and block growth:
// dimensionalities 0–3 and 9 mixed within one run, bounds and coordinates
// drawn from ±Inf, ±0 and NaN, coordinates equal to a stored Lo or Hi,
// and points of every one of those dimensionalities. It also checks that
// copies taken along the way still see exactly their own boxes after the
// later appends, that Box reads every box of a view back bit for bit,
// and that no view's planes hold more than twice the floats of its
// boxes.
func FuzzBoxes(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []uint16{1, 2, 63, 64, 65, 128, 129, 200, 299} {
		for _, mixed := range []uint8{0, 1, 7, 255} {
			data := make([]byte, 64)
			rng.Read(data)
			f.Add(n, mixed, data)
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, mixed uint8, data []byte) {
		palette := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, 2, math.Inf(1), math.NaN()}
		dimsOf := []int{1, 2, 3, 0, 9}
		next := 0
		byteAt := func() int {
			next++
			if len(data) == 0 {
				return next
			}
			return int(data[next%len(data)]) + next/len(data)
		}
		count := int(n%300) + 1
		// The run keeps one dimensionality and changes it on a set bit of
		// mixed, drawn per box.
		var run Boxes
		rects := make([]geometry.Rect, 0, count)
		var views []Boxes
		d := 2
		for i := 0; i < count; i++ {
			if c := byteAt(); (mixed>>(c%8))&1 != 0 && c%5 == 0 {
				d = dimsOf[byteAt()%len(dimsOf)]
			}
			r := make(geometry.Rect, d)
			for k := range r {
				b := byteAt()
				r[k] = geometry.Interval{Lo: palette[(b&15)%len(palette)], Hi: palette[(b>>4)%len(palette)]}
			}
			if byteAt()%17 == 0 {
				views = append(views, run)
			}
			run.Append(r)
			rects = append(rects, r)
		}
		views = append(views, run)
		var box geometry.Rect
		for _, v := range views {
			checkPlaneBound(t, &v, rects[:v.Len()])
			for i, r := range rects[:v.Len()] {
				if box = v.Box(i, box); !sameBits(box, r) {
					t.Fatalf("view of %d boxes: box %d reads %v, appended %v", v.Len(), i, box, r)
				}
			}
		}
		for q := 0; q < 24; q++ {
			// A point of a stored box's or a palette dimensionality, each
			// coordinate a palette value or a stored Lo or Hi.
			box := rects[byteAt()%len(rects)]
			dims := len(box)
			if byteAt()%4 == 0 {
				dims = dimsOf[byteAt()%len(dimsOf)]
			}
			p := make(geometry.Point, dims)
			for k := range p {
				b := byteAt()
				switch {
				case b%3 == 0 && k < len(box):
					p[k] = box[k].Lo
				case b%3 == 1 && k < len(box):
					p[k] = box[k].Hi
				default:
					p[k] = palette[(b>>2)%len(palette)]
				}
			}
			for _, v := range views {
				var want []int
				for i, r := range rects[:v.Len()] {
					if r.Contains(p) {
						want = append(want, i)
					}
				}
				var st Stats
				got := v.PointAppend(p, nil, &st)
				if !slices.Equal(got, want) {
					t.Fatalf("view of %d boxes, p=%v: got %v, want %v", v.Len(), p, got, want)
				}
				if st != (Stats{EntriesTested: v.Len(), Matched: len(want)}) {
					t.Fatalf("view of %d boxes, p=%v: stats %+v, want %d tested and %d matched", v.Len(), p, st, v.Len(), len(want))
				}
			}
		}
	})
}

// planeFloats counts the floats of the planes b's blocks hold.
func planeFloats(b *Boxes) int {
	n := len(b.last.planes)
	for _, blk := range b.full {
		n += len(blk.planes)
	}
	return n
}

// checkPlaneBound fails t unless b's planes hold at most twice the 2·d
// floats of each of its boxes rects.
func checkPlaneBound(t *testing.T, b *Boxes, rects []geometry.Rect) {
	t.Helper()
	need := 0
	for _, r := range rects {
		need += 2 * len(r)
	}
	if got := planeFloats(b); got > 2*need {
		t.Fatalf("%d boxes of %d floats in total hold %d plane floats, more than twice that", len(rects), need, got)
	}
}

// TestBoxesMemoryBoundedByBoxes: a run whose dimensionality changes with
// every box, or every few boxes, still holds at most twice the floats of
// its boxes. Each box opens a block, so a block allocated at full
// capacity would cost 2·d·64 floats per box.
func TestBoxesMemoryBoundedByBoxes(t *testing.T) {
	for _, every := range []int{1, 2, 3, 5, 33, 64, 65} {
		var run Boxes
		var rects []geometry.Rect
		for i := 0; i < 2000; i++ {
			d := 8 - (i/every)%2
			r := make(geometry.Rect, d)
			for k := range r {
				r[k] = geometry.Interval{Lo: float64(i), Hi: float64(i + 1)}
			}
			run.Append(r)
			rects = append(rects, r)
		}
		checkPlaneBound(t, &run, rects)
		// Only box 1000 contains p, if it has p's eight dimensions.
		p := geometry.Point{1000.5, 1000.5, 1000.5, 1000.5, 1000.5, 1000.5, 1000.5, 1000.5}
		var want []int
		if len(rects[1000]) == len(p) {
			want = []int{1000}
		}
		var st Stats
		if got := run.PointAppend(p, nil, &st); !slices.Equal(got, want) {
			t.Fatalf("every %d: got %v, want %v", every, got, want)
		}
	}
}

// TestBoxesPointAppendDoesNotAllocate: a query appending into a dst with
// room allocates nothing.
func TestBoxesPointAppendDoesNotAllocate(t *testing.T) {
	if raceBuild {
		t.Skip("race detector instrumentation allocates")
	}
	var run Boxes
	for i := 0; i < 200; i++ {
		run.Append(geometry.NewRect(float64(i), float64(i+50), 0, 1))
	}
	p := geometry.Point{100, 0.5}
	dst := make([]int, 0, 256)
	var st Stats
	if allocs := testing.AllocsPerRun(100, func() { dst = run.PointAppend(p, dst[:0], &st) }); allocs != 0 {
		t.Fatalf("PointAppend allocates %.1f times per query", allocs)
	}
	if len(dst) != 50 {
		t.Fatalf("matched %d boxes, want 50", len(dst))
	}
}

// sameBits reports whether a and b hold the same bounds bit for bit, so
// NaN equals NaN and -0 does not equal +0.
func sameBits(a, b geometry.Rect) bool {
	return slices.EqualFunc(a, b, func(x, y geometry.Interval) bool {
		return math.Float64bits(x.Lo) == math.Float64bits(y.Lo) && math.Float64bits(x.Hi) == math.Float64bits(y.Hi)
	})
}

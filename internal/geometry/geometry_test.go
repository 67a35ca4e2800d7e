package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalContains(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		x    float64
		want bool
	}{
		{name: "interior", iv: Interval{0, 10}, x: 5, want: true},
		{name: "open left endpoint excluded", iv: Interval{0, 10}, x: 0, want: false},
		{name: "closed right endpoint included", iv: Interval{0, 10}, x: 10, want: true},
		{name: "below", iv: Interval{0, 10}, x: -1, want: false},
		{name: "above", iv: Interval{0, 10}, x: 10.0001, want: false},
		{name: "empty contains nothing", iv: Interval{5, 5}, x: 5, want: false},
		{name: "inverted is empty", iv: Interval{7, 3}, x: 5, want: false},
		{name: "unbounded above", iv: AtLeast(3), x: 1e18, want: true},
		{name: "unbounded above excludes bound", iv: AtLeast(3), x: 3, want: false},
		{name: "unbounded below includes bound", iv: AtMost(3), x: 3, want: true},
		{name: "full contains anything", iv: FullInterval(), x: -1e300, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Contains(tt.x); got != tt.want {
				t.Errorf("%v.Contains(%v) = %v, want %v", tt.iv, tt.x, got, tt.want)
			}
		})
	}
}

func TestIntervalIntersects(t *testing.T) {
	tests := []struct {
		name string
		a, b Interval
		want bool
	}{
		{name: "overlapping", a: Interval{0, 5}, b: Interval{3, 8}, want: true},
		{name: "disjoint", a: Interval{0, 5}, b: Interval{6, 8}, want: false},
		{name: "abutting half-open do not intersect", a: Interval{0, 5}, b: Interval{5, 8}, want: false},
		{name: "nested", a: Interval{0, 10}, b: Interval{2, 3}, want: true},
		{name: "identical", a: Interval{1, 2}, b: Interval{1, 2}, want: true},
		{name: "empty never intersects", a: Interval{4, 4}, b: Interval{0, 10}, want: false},
		{name: "unbounded pair", a: AtLeast(0), b: AtMost(0.5), want: true},
		{name: "unbounded disjoint", a: AtLeast(5), b: AtMost(5), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Intersects(tt.b); got != tt.want {
				t.Errorf("%v.Intersects(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := tt.b.Intersects(tt.a); got != tt.want {
				t.Errorf("Intersects is not symmetric for %v, %v", tt.a, tt.b)
			}
		})
	}
}

func TestIntervalIntersectUnion(t *testing.T) {
	a, b := Interval{0, 5}, Interval{3, 8}
	if got := a.Intersect(b); got != (Interval{3, 5}) {
		t.Errorf("Intersect = %v, want (3, 5]", got)
	}
	if got := a.Union(b); got != (Interval{0, 8}) {
		t.Errorf("Union = %v, want (0, 8]", got)
	}
	empty := Interval{2, 2}
	if got := a.Union(empty); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := empty.Union(a); got != a {
		t.Errorf("empty.Union(a) = %v, want %v", got, a)
	}
}

func TestIntervalCenter(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		want float64
	}{
		{name: "finite", iv: Interval{2, 6}, want: 4},
		{name: "right-unbounded uses finite end", iv: AtLeast(3), want: 3},
		{name: "left-unbounded uses finite end", iv: AtMost(7), want: 7},
		{name: "full is zero", iv: FullInterval(), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Center(); got != tt.want {
				t.Errorf("Center() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 10, 0, 10)
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{name: "interior", p: Point{5, 5}, want: true},
		{name: "corner closed", p: Point{10, 10}, want: true},
		{name: "corner open", p: Point{0, 0}, want: false},
		{name: "mixed boundary", p: Point{10, 0}, want: false},
		{name: "outside", p: Point{11, 5}, want: false},
		{name: "wrong dimensionality", p: Point{5}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(0, 5, 0, 5)
	tests := []struct {
		name string
		b    Rect
		want bool
	}{
		{name: "overlap", b: NewRect(4, 8, 4, 8), want: true},
		{name: "disjoint in one dim", b: NewRect(6, 8, 0, 5), want: false},
		{name: "abutting edges half-open", b: NewRect(5, 8, 0, 5), want: false},
		{name: "nested", b: NewRect(1, 2, 1, 2), want: true},
		{name: "empty", b: NewRect(3, 3, 0, 5), want: false},
		{name: "dim mismatch", b: NewRect(0, 5), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects(%v) = %v, want %v", tt.b, got, tt.want)
			}
		})
	}
}

func TestRectContainsRect(t *testing.T) {
	outer := NewRect(0, 10, 0, 10)
	tests := []struct {
		name string
		o    Rect
		want bool
	}{
		{name: "proper subset", o: NewRect(1, 9, 1, 9), want: true},
		{name: "equal", o: NewRect(0, 10, 0, 10), want: true},
		{name: "escapes right", o: NewRect(1, 11, 1, 9), want: false},
		{name: "escapes left", o: NewRect(-1, 9, 1, 9), want: false},
		{name: "empty is contained", o: NewRect(4, 4, 1, 2), want: true},
		{name: "dim mismatch", o: NewRect(1, 2), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := outer.ContainsRect(tt.o); got != tt.want {
				t.Errorf("ContainsRect(%v) = %v, want %v", tt.o, got, tt.want)
			}
		})
	}
}

func TestRectVolumePerimeter(t *testing.T) {
	r := NewRect(0, 2, 0, 3, 0, 4)
	if got := r.Volume(); got != 24 {
		t.Errorf("Volume = %v, want 24", got)
	}
	if got := r.Perimeter(); got != 18 {
		t.Errorf("Perimeter = %v, want 18", got)
	}
	empty := NewRect(1, 1, 0, 3)
	if got := empty.Volume(); got != 0 {
		t.Errorf("empty Volume = %v, want 0", got)
	}
	unbounded := Rect{AtLeast(0), {0, 1}}
	if got := unbounded.Volume(); !math.IsInf(got, 1) {
		t.Errorf("unbounded Volume = %v, want +Inf", got)
	}
}

func TestRectUnionAndBoundingBox(t *testing.T) {
	a := NewRect(0, 2, 0, 2)
	b := NewRect(5, 6, -1, 1)
	got := a.Union(b)
	want := NewRect(0, 6, -1, 2)
	if !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	// Union must not alias its inputs.
	got[0].Hi = 99
	if a[0].Hi == 99 || b[0].Hi == 99 {
		t.Error("Union aliases an input rectangle")
	}

	bb := BoundingBox(a, NewRect(3, 3, 0, 1), b) // middle rect is empty
	if !bb.Equal(want) {
		t.Errorf("BoundingBox = %v, want %v", bb, want)
	}
	if bb := BoundingBox(); bb != nil {
		t.Errorf("BoundingBox() = %v, want nil", bb)
	}
}

func TestRectExpandInPlace(t *testing.T) {
	r := NewRect(0, 1, 0, 1)
	r.ExpandInPlace(NewRect(2, 3, -2, 0.5))
	if want := NewRect(0, 3, -2, 1); !r.Equal(want) {
		t.Errorf("ExpandInPlace = %v, want %v", r, want)
	}
	r.ExpandInPlace(NewRect(9, 9, 0, 1)) // empty: no-op
	if want := NewRect(0, 3, -2, 1); !r.Equal(want) {
		t.Errorf("ExpandInPlace(empty) changed rect to %v", r)
	}
}

// sameBits reports whether two rectangles have bit-identical bounds, so
// −0 and +0 differ.
func sameBits(a, b Rect) bool {
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

// edgeSides are intervals with every bound the S-tree packing meets:
// ±Inf, −0 and +0, tiny and huge finite values, and empty and inverted
// pairs (for frames and clips; Extend only ever sees non-empty ones).
func edgeSides() []Interval {
	negZero := math.Copysign(0, -1)
	return []Interval{
		FullInterval(), AtLeast(0), AtLeast(negZero), AtMost(0), AtMost(negZero),
		AtLeast(-3), AtMost(2.5), {Lo: negZero, Hi: 0}, {Lo: 0, Hi: negZero},
		{Lo: negZero, Hi: 1}, {Lo: -1, Hi: negZero}, {Lo: -1, Hi: 0}, {Lo: 0, Hi: 1},
		{Lo: 1, Hi: 1}, {Lo: 2, Hi: 1}, {Lo: 5e-324, Hi: 1e-300}, {Lo: -1e308, Hi: 1e308},
		{Lo: 0.1, Hi: 0.3}, {Lo: 7, Hi: 9}, {Lo: math.Inf(1), Hi: math.Inf(1)},
	}
}

func TestClampedMeasureMatchesIntersect(t *testing.T) {
	check := func(r, frame Rect) {
		t.Helper()
		vol, perim := r.ClampedMeasure(frame)
		clip := r.Intersect(frame)
		if wv, wp := clip.Volume(), clip.Perimeter(); math.Float64bits(vol) != math.Float64bits(wv) ||
			math.Float64bits(perim) != math.Float64bits(wp) {
			t.Fatalf("%v.ClampedMeasure(%v) = %v, %v; Intersect gives %v, %v", r, frame, vol, perim, wv, wp)
		}
	}
	check(Rect{}, Rect{}) // zero-dimensional: empty, measures 0
	sides := edgeSides()
	for _, a := range sides {
		for _, f := range sides {
			check(Rect{a}, Rect{f})
			for _, b := range sides[:6] {
				check(Rect{a, b}, Rect{f, {Lo: -4, Hi: 4}})
				check(Rect{b, a}, Rect{{Lo: -4, Hi: 4}, f})
			}
		}
	}
	// Disjoint from the frame on one side only.
	check(NewRect(0, 1, 5, 6), NewRect(-1, 2, 0, 4))
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		dims := 1 + rng.Intn(6)
		check(randomRect(rng, dims), randomRect(rng, dims))
	}
}

func TestExtendMatchesUnion(t *testing.T) {
	var sides []Interval
	for _, iv := range edgeSides() {
		if !iv.Empty() {
			sides = append(sides, iv)
		}
	}
	for _, a := range sides {
		for _, b := range sides {
			for _, c := range sides[:5] {
				r, o := Rect{a, c}, Rect{b, c}
				want := r.Union(o)
				got := r.Clone()
				got.Extend(o)
				if !sameBits(got, want) {
					t.Fatalf("%v.Extend(%v) = %v, Union gives %v", r, o, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 2000; i++ {
		dims := 1 + rng.Intn(6)
		r, o := randomRect(rng, dims), randomRect(rng, dims)
		if r.Empty() || o.Empty() {
			continue
		}
		want := r.Union(o)
		r.Extend(o)
		if !sameBits(r, want) {
			t.Fatalf("Extend = %v, Union gives %v", r, want)
		}
	}
}

func TestRectLongestDim(t *testing.T) {
	tests := []struct {
		name string
		r    Rect
		want int
	}{
		{name: "simple", r: NewRect(0, 1, 0, 5, 0, 2), want: 1},
		{name: "tie prefers lower", r: NewRect(0, 5, 0, 5), want: 0},
		{name: "unbounded wins", r: Rect{{0, 1}, AtLeast(0), {0, 100}}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.LongestDim(); got != tt.want {
				t.Errorf("LongestDim = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestRectClamp(t *testing.T) {
	domain := NewRect(0, 20, 0, 20)
	r := Rect{AtLeast(5), AtMost(7)}
	got := r.Clamp(domain)
	want := NewRect(5, 20, 0, 7)
	if !got.Equal(want) {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
}

func TestNewRectPanicsOnOddBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRect with odd bounds did not panic")
		}
	}()
	NewRect(1, 2, 3)
}

func TestStringRendering(t *testing.T) {
	r := NewRect(0, 1, 2, 3)
	if got, want := r.String(), "(0, 1] x (2, 3]"; got != want {
		t.Errorf("Rect.String() = %q, want %q", got, want)
	}
	p := Point{1, 2.5}
	if got, want := p.String(), "(1, 2.5)"; got != want {
		t.Errorf("Point.String() = %q, want %q", got, want)
	}
}

// randomRect produces a bounded rectangle for property tests.
func randomRect(r *rand.Rand, dims int) Rect {
	out := make(Rect, dims)
	for i := range out {
		lo := r.Float64()*20 - 10
		out[i] = Interval{Lo: lo, Hi: lo + r.Float64()*10}
	}
	return out
}

func randomPoint(r *rand.Rand, dims int) Point {
	p := make(Point, dims)
	for i := range p {
		p[i] = r.Float64()*30 - 15
	}
	return p
}

func TestPropIntersectionConsistency(t *testing.T) {
	// A point contained in both rectangles must be contained in their
	// intersection, and the rectangles must report Intersects.
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRect(rng, 3), randomRect(rng, 3)
		p := randomPoint(rng, 3)
		inBoth := a.Contains(p) && b.Contains(p)
		if inBoth && !a.Intersects(b) {
			return false
		}
		return !inBoth || a.Intersect(b).Contains(p)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropUnionContainsInputs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRect(rng, 4), randomRect(rng, 4)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropVolumeMonotone(t *testing.T) {
	// Union volume is at least the max of input volumes.
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRect(rng, 2), randomRect(rng, 2)
		u := a.Union(b)
		return u.Volume() >= math.Max(a.Volume(), b.Volume())-1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropIntersectCommutes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRect(rng, 3), randomRect(rng, 3)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab.Empty() != ba.Empty() {
			return false
		}
		return ab.Empty() || ab.Equal(ba)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropHalfOpenTiling(t *testing.T) {
	// Splitting a rectangle at an interior coordinate yields two pieces
	// such that every point in the original lies in exactly one piece.
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRect(rng, 2)
		if r.Empty() {
			return true
		}
		mid := r[0].Center()
		left, right := r.Clone(), r.Clone()
		left[0].Hi = mid
		right[0].Lo = mid
		for i := 0; i < 20; i++ {
			p := Point{r[0].Lo + rng.Float64()*r[0].Length(), r[1].Lo + rng.Float64()*r[1].Length()}
			if !r.Contains(p) {
				continue
			}
			inLeft, inRight := left.Contains(p), right.Contains(p)
			if inLeft == inRight { // must be exactly one
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := NewRect(0, 1, 2, 3)
	c := r.Clone()
	c[0].Lo = -5
	if r[0].Lo != 0 {
		t.Error("Rect.Clone shares storage with original")
	}
	p := Point{1, 2}
	cp := p.Clone()
	cp[0] = 42
	if p[0] != 1 {
		t.Error("Point.Clone shares storage with original")
	}
}

func TestDimsAccessors(t *testing.T) {
	if (Point{1, 2, 3}).Dims() != 3 {
		t.Error("Point.Dims wrong")
	}
	if NewRect(0, 1, 0, 1).Dims() != 2 {
		t.Error("Rect.Dims wrong")
	}
	if FullRect(4).Dims() != 4 {
		t.Error("FullRect dims wrong")
	}
	if !FullRect(2).Contains(Point{-1e300, 1e300}) {
		t.Error("FullRect does not contain everything")
	}
}

func TestIntervalClamp(t *testing.T) {
	iv := Interval{Lo: -5, Hi: 50}
	got := iv.Clamp(Interval{Lo: 0, Hi: 20})
	if got != (Interval{Lo: 0, Hi: 20}) {
		t.Errorf("Clamp = %v", got)
	}
	// Clamp to a disjoint range empties the interval.
	if !iv.Clamp(Interval{Lo: 100, Hi: 200}).Empty() {
		t.Error("disjoint clamp not empty")
	}
}

func TestIntervalLengthUnbounded(t *testing.T) {
	if !math.IsInf(AtLeast(3).Length(), 1) {
		t.Error("unbounded length not +Inf")
	}
	if (Interval{Lo: 5, Hi: 5}).Length() != 0 {
		t.Error("empty length not 0")
	}
}

func TestRectCenter(t *testing.T) {
	c := NewRect(0, 2, 10, 30).Center()
	if c[0] != 1 || c[1] != 20 {
		t.Errorf("Center = %v", c)
	}
	// Unbounded sides use their finite end.
	c = Rect{AtLeast(7), AtMost(3)}.Center()
	if c[0] != 7 || c[1] != 3 {
		t.Errorf("unbounded Center = %v", c)
	}
}

func TestRectEqualEdgeCases(t *testing.T) {
	if NewRect(0, 1).Equal(NewRect(0, 1, 0, 1)) {
		t.Error("different dims equal")
	}
	if NewRect(0, 1, 0, 1).Equal(NewRect(0, 1, 0, 2)) {
		t.Error("different bounds equal")
	}
	if !NewRect(0, 1).Equal(NewRect(0, 1)) {
		t.Error("identical not equal")
	}
}

func TestRectEmptyZeroDims(t *testing.T) {
	if !(Rect{}).Empty() {
		t.Error("zero-dim rect not empty")
	}
	if (Rect{}).Contains(Point{}) {
		t.Error("zero-dim rect contains the empty point")
	}
}

func TestRectUnionWithEmpty(t *testing.T) {
	a := NewRect(0, 1, 0, 1)
	empty := NewRect(5, 5, 0, 1)
	if got := a.Union(empty); !got.Equal(a) {
		t.Errorf("Union with empty = %v", got)
	}
	if got := empty.Union(a); !got.Equal(a) {
		t.Errorf("empty.Union = %v", got)
	}
	// ExpandInPlace from empty adopts the other rect.
	e := NewRect(5, 5, 0, 1)
	e.ExpandInPlace(a)
	if !e.Equal(a) {
		t.Errorf("ExpandInPlace from empty = %v", e)
	}
}

func TestPerimeterEmpty(t *testing.T) {
	if NewRect(3, 3, 0, 1).Perimeter() != 0 {
		t.Error("empty perimeter not 0")
	}
}

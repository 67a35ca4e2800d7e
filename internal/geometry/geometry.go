// Package geometry provides the spatial primitives used throughout the
// library: points, half-open intervals and axis-aligned rectangles in an
// N-dimensional event space.
//
// Following the paper's convention, every interval is open on the left and
// closed on the right: a point x lies inside the interval (lo, hi] when
// lo < x <= hi. This convention lets adjacent subscription rectangles tile
// the event space without double-matching boundary points.
package geometry

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/invariant"
)

// Point is a publication event: a single location in the N-dimensional
// event space. The slice length is the dimensionality.
type Point []float64

// Dims reports the dimensionality of the point.
func (p Point) Dims() int { return len(p) }

// Clone returns an independent copy of the point.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// String renders the point as "(x1, x2, ...)".
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Interval is a half-open interval (Lo, Hi] on one attribute axis.
// The zero value is the empty interval (0, 0].
type Interval struct {
	Lo float64 // open lower bound
	Hi float64 // closed upper bound
}

// NewInterval returns the half-open interval (lo, hi]. It is the
// validating constructor other packages should use instead of a raw
// composite literal: NaN bounds are rejected as a programming error. An inverted pair (hi <= lo) is legal
// and yields an empty interval, which callers detect with Empty.
func NewInterval(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("geometry: NewInterval called with a NaN bound")
	}
	return Interval{Lo: lo, Hi: hi}
}

// FullInterval is the interval covering the whole real axis. It models the
// wildcard predicate "*" from the paper's subscription language.
func FullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// AtLeast returns the interval (lo, +inf), modelling predicates of the
// form "attribute > lo" (equivalently "attribute >= lo+1" on integer
// domains, per the paper's half-open normalisation).
func AtLeast(lo float64) Interval {
	return Interval{Lo: lo, Hi: math.Inf(1)}
}

// AtMost returns the interval (-inf, hi], modelling "attribute <= hi".
func AtMost(hi float64) Interval {
	return Interval{Lo: math.Inf(-1), Hi: hi}
}

// Empty reports whether the interval contains no points, i.e. Hi <= Lo.
func (iv Interval) Empty() bool { return !(iv.Hi > iv.Lo) }

// Length returns Hi - Lo, or 0 for an empty interval. The length of an
// unbounded interval is +Inf.
func (iv Interval) Length() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether x lies in (Lo, Hi].
func (iv Interval) Contains(x float64) bool { return x > iv.Lo && x <= iv.Hi }

// Intersects reports whether the two half-open intervals share any point.
func (iv Interval) Intersects(o Interval) bool {
	return !iv.Empty() && !o.Empty() && math.Max(iv.Lo, o.Lo) < math.Min(iv.Hi, o.Hi)
}

// Intersect returns the overlap of the two intervals. The result is empty
// when they do not intersect.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, o.Lo), Hi: math.Min(iv.Hi, o.Hi)}
}

// Union returns the smallest interval covering both inputs. Empty inputs
// are ignored; the union of two empty intervals is empty.
func (iv Interval) Union(o Interval) Interval {
	switch {
	case iv.Empty():
		return o
	case o.Empty():
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, o.Lo), Hi: math.Max(iv.Hi, o.Hi)}
}

// Center returns the midpoint of the interval. For unbounded intervals the
// finite endpoint is returned, and 0 when both ends are infinite; this
// keeps sort keys finite for index construction.
func (iv Interval) Center() float64 {
	loInf, hiInf := math.IsInf(iv.Lo, -1), math.IsInf(iv.Hi, 1)
	switch {
	case loInf && hiInf:
		return 0
	case loInf:
		return iv.Hi
	case hiInf:
		return iv.Lo
	}
	return (iv.Lo + iv.Hi) / 2
}

// Clamp restricts the interval to the given bounds, returning the
// intersection with (bounds.Lo, bounds.Hi].
func (iv Interval) Clamp(bounds Interval) Interval { return iv.Intersect(bounds) }

// String renders the interval in the paper's half-open notation "(lo, hi]".
func (iv Interval) String() string {
	return fmt.Sprintf("(%g, %g]", iv.Lo, iv.Hi)
}

// Rect is an axis-aligned rectangle in the event space: the cartesian
// product of one half-open interval per dimension. It represents a single
// subscription (a conjunction of range predicates) or a bounding box.
type Rect []Interval

// NewRect builds a rectangle from per-dimension (lo, hi] pairs. The
// variadic arguments are consumed pairwise: lo1, hi1, lo2, hi2, ...
// It panics when given an odd number of bounds; this is a programming
// error, not a runtime condition.
func NewRect(bounds ...float64) Rect {
	if len(bounds)%2 != 0 {
		panic("geometry: NewRect requires an even number of bounds")
	}
	r := make(Rect, len(bounds)/2)
	for i := range r {
		r[i] = NewInterval(bounds[2*i], bounds[2*i+1])
	}
	return r
}

// RectOf builds a rectangle directly from per-dimension intervals,
// validating each bound like NewInterval. It is the constructor to use
// when some dimensions come from the interval helpers (FullInterval,
// AtLeast, AtMost) rather than from raw lo/hi pairs.
func RectOf(ivs ...Interval) Rect {
	r := make(Rect, len(ivs))
	for i, iv := range ivs {
		r[i] = NewInterval(iv.Lo, iv.Hi)
	}
	return r
}

// FullRect returns the rectangle covering all of R^dims — the subscription
// that matches every event.
func FullRect(dims int) Rect {
	r := make(Rect, dims)
	for i := range r {
		r[i] = FullInterval()
	}
	return r
}

// Dims reports the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r) }

// Clone returns an independent copy of the rectangle.
func (r Rect) Clone() Rect {
	out := make(Rect, len(r))
	copy(out, r)
	return out
}

// Empty reports whether the rectangle contains no points, i.e. whether any
// dimension's interval is empty. The zero-dimensional rectangle is empty.
func (r Rect) Empty() bool {
	if len(r) == 0 {
		return true
	}
	for _, iv := range r {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Contains reports whether the point lies inside the rectangle. This is the
// paper's point-query predicate: per dimension, lo < x <= hi.
// A point of mismatched dimensionality is never contained.
func (r Rect) Contains(p Point) bool {
	if len(p) != len(r) || len(r) == 0 {
		return false
	}
	for i, iv := range r {
		if !iv.Contains(p[i]) {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely inside r. An empty o is
// contained in any non-empty r of the same dimensionality.
func (r Rect) ContainsRect(o Rect) bool {
	if len(o) != len(r) || r.Empty() {
		return false
	}
	if o.Empty() {
		return true
	}
	for i, iv := range r {
		if o[i].Lo < iv.Lo || o[i].Hi > iv.Hi {
			return false
		}
	}
	return true
}

// Intersects reports whether the two rectangles share any point.
func (r Rect) Intersects(o Rect) bool {
	if len(o) != len(r) || len(r) == 0 {
		return false
	}
	for i, iv := range r {
		if !iv.Intersects(o[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of the two rectangles. The result is empty
// when they do not intersect. The inputs must share dimensionality.
func (r Rect) Intersect(o Rect) Rect {
	invariant.Assertf(len(r) == len(o),
		"geometry: Intersect of mismatched dimensionality %d vs %d", len(r), len(o))
	out := make(Rect, len(r))
	for i, iv := range r {
		out[i] = iv.Intersect(o[i])
	}
	return out
}

// Union returns the minimum bounding rectangle of the two inputs, ignoring
// empty ones. This is the R-tree "enlarge" operation.
func (r Rect) Union(o Rect) Rect {
	switch {
	case r.Empty():
		return o.Clone()
	case o.Empty():
		return r.Clone()
	}
	invariant.Assertf(len(r) == len(o),
		"geometry: Union of mismatched dimensionality %d vs %d", len(r), len(o))
	out := make(Rect, len(r))
	for i, iv := range r {
		out[i] = iv.Union(o[i])
	}
	return out
}

// ExpandInPlace grows r to cover o, avoiding allocation. Empty o leaves r
// unchanged; if r is empty it becomes a copy of o.
func (r Rect) ExpandInPlace(o Rect) {
	if o.Empty() {
		return
	}
	if r.Empty() {
		copy(r, o)
		return
	}
	invariant.Assertf(len(r) == len(o),
		"geometry: ExpandInPlace with mismatched dimensionality %d vs %d", len(r), len(o))
	for i := range r {
		r[i] = r[i].Union(o[i])
	}
}

// Extend grows r in place to cover o. Both rectangles must be non-empty
// and share dimensionality; for such inputs r ends up bit for bit equal to
// r.Union(o) (builtin min and max order NaN and −0 as math.Min and
// math.Max do), with no emptiness checks and no allocation. It is the
// running union of the S-tree's split sweep.
func (r Rect) Extend(o Rect) {
	if invariant.Enabled {
		invariant.Assertf(len(r) == len(o) && !r.Empty() && !o.Empty(),
			"geometry: Extend of %v by %v needs two non-empty rectangles of one dimensionality", r, o)
	}
	for i := range r {
		r[i].Lo = min(r[i].Lo, o[i].Lo)
		r[i].Hi = max(r[i].Hi, o[i].Hi)
	}
}

// ClampedMeasure returns the volume and perimeter of r clipped to frame,
// bit for bit r.Intersect(frame).Volume() and r.Intersect(frame).Perimeter()
// (the same operations in the same order), without allocating. An empty
// clip measures 0, 0. The inputs must share dimensionality.
func (r Rect) ClampedMeasure(frame Rect) (volume, perimeter float64) {
	if invariant.Enabled {
		invariant.Assertf(len(r) == len(frame),
			"geometry: ClampedMeasure of mismatched dimensionality %d vs %d", len(r), len(frame))
	}
	if len(r) == 0 {
		return 0, 0
	}
	volume, sum := 1.0, 0.0
	for i, iv := range r {
		lo, hi := max(iv.Lo, frame[i].Lo), min(iv.Hi, frame[i].Hi)
		if !(hi > lo) {
			return 0, 0
		}
		volume *= hi - lo
		sum += hi - lo
	}
	return volume, 2 * sum
}

// Volume returns the product of the side lengths — the paper's V(I) used
// by the S-tree packing objective. Unbounded sides yield +Inf; an empty
// rectangle has volume 0.
func (r Rect) Volume() float64 {
	if r.Empty() {
		return 0
	}
	v := 1.0
	for _, iv := range r {
		v *= iv.Length()
	}
	return v
}

// Perimeter returns the sum of the side lengths (times two), used to break
// volume ties during S-tree binarization.
func (r Rect) Perimeter() float64 {
	if r.Empty() {
		return 0
	}
	s := 0.0
	for _, iv := range r {
		s += iv.Length()
	}
	return 2 * s
}

// Center returns the geometric center of the rectangle, the representative
// point used when ordering objects during the binarization sweep.
func (r Rect) Center() Point {
	c := make(Point, len(r))
	for i, iv := range r {
		c[i] = iv.Center()
	}
	return c
}

// LongestDim returns the index of the dimension in which the rectangle is
// longest, preferring lower indices on ties. Unbounded dimensions compare
// as +Inf and therefore win.
func (r Rect) LongestDim() int {
	best, bestLen := 0, math.Inf(-1)
	for i, iv := range r {
		if l := iv.Length(); l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// Clamp restricts every dimension of r to the corresponding interval of
// bounds, returning a new rectangle. It is used to confine generated
// subscriptions to the finite event-space domain.
func (r Rect) Clamp(bounds Rect) Rect {
	return r.Intersect(bounds)
}

// Equal reports whether two rectangles have identical bounds.
func (r Rect) Equal(o Rect) bool {
	if len(r) != len(o) {
		return false
	}
	for i, iv := range r {
		if iv != o[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle as the cross product of its intervals.
func (r Rect) String() string {
	parts := make([]string, len(r))
	for i, iv := range r {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " x ")
}

// BoundingBox returns the minimum bounding rectangle of the given
// rectangles, skipping empty ones. It returns an empty, zero-length Rect
// when no non-empty input exists.
func BoundingBox(rects ...Rect) Rect {
	var mbr Rect
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		if mbr == nil {
			mbr = r.Clone()
			continue
		}
		mbr.ExpandInPlace(r)
	}
	return mbr
}

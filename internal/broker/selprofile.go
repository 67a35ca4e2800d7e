package broker

import (
	"math"
	"sync/atomic"

	"repro/internal/geometry"
)

// maxProfileDims bounds the streaming profile's fixed per-dimension
// accumulators. Rectangles with more dimensions flip the overflow
// flag and IndexReport falls back to the probe-time sample.
const maxProfileDims = 32

// dimAccum is one dimension's streaming accumulators. Rectangle-side
// counters move on Subscribe/Cancel (exact over the live population);
// point-side counters move on instrumented publishes. All fields are
// independent atomics: a reader can pair counts from slightly
// different instants, which introspection tolerates.
type dimAccum struct {
	bounded atomic.Int64 // live rects with both endpoints of this dim finite
	// widthBits is a CAS-maintained float64 sum of bounded interval
	// widths; Cancel subtracts, so it tracks the live population.
	widthBits atomic.Uint64
	// loBits/hiBits are the bounded envelope's extreme endpoints.
	// High-watermark: Subscribe widens them, Cancel does not shrink
	// them back (the envelope of rectangles ever seen).
	loBits atomic.Uint64
	hiBits atomic.Uint64
	// points/inEnv: instrumented publish points carrying this
	// dimension, and how many landed inside the bounded envelope —
	// the "where does real traffic fall" signal the spatial-split
	// rule needs on top of rectangle shape.
	points atomic.Uint64
	inEnv  atomic.Uint64
}

// selProfile streams the per-dimension selectivity profile that
// replaces the probe-time rectangle sample as IndexReport's primary
// data source. It is exact over the live rectangle population
// (updated on the cold Subscribe/Cancel paths) and accumulates
// real-match point coverage from instrumented publishes with a few
// atomic ops per dimension — no locks, no allocation.
type selProfile struct {
	rects    atomic.Int64  // live rectangles profiled
	ptCount  atomic.Uint64 // instrumented publish points profiled
	maxDims  atomic.Int64  // widest rectangle seen
	overflow atomic.Bool   // some rectangle exceeded maxProfileDims
	dims     [maxProfileDims]dimAccum
}

// init seeds the envelope extremes; called once from New (the zero
// bits of loBits/hiBits would read as 0.0 and corrupt the min/max).
func (sp *selProfile) init() {
	for d := range sp.dims {
		sp.dims[d].loBits.Store(math.Float64bits(math.Inf(1)))
		sp.dims[d].hiBits.Store(math.Float64bits(math.Inf(-1)))
	}
}

// addRect streams one live rectangle in. Called under the subscribe
// path (cold).
func (sp *selProfile) addRect(r geometry.Rect) {
	if len(r) > maxProfileDims {
		sp.overflow.Store(true)
	}
	sp.rects.Add(1)
	for {
		cur := sp.maxDims.Load()
		if int64(len(r)) <= cur || sp.maxDims.CompareAndSwap(cur, int64(len(r))) {
			break
		}
	}
	n := len(r)
	if n > maxProfileDims {
		n = maxProfileDims
	}
	for d := 0; d < n; d++ {
		a := &sp.dims[d]
		iv := r[d]
		if math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1) {
			continue
		}
		a.bounded.Add(1)
		atomicAddFloat(&a.widthBits, iv.Length())
		atomicMinFloat(&a.loBits, iv.Lo)
		atomicMaxFloat(&a.hiBits, iv.Hi)
	}
}

// removeRect streams one rectangle out on Cancel. Width sums and
// counts shrink; the envelope stays (high-watermark).
func (sp *selProfile) removeRect(r geometry.Rect) {
	sp.rects.Add(-1)
	n := len(r)
	if n > maxProfileDims {
		n = maxProfileDims
	}
	for d := 0; d < n; d++ {
		a := &sp.dims[d]
		iv := r[d]
		if math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1) {
			continue
		}
		a.bounded.Add(-1)
		atomicAddFloat(&a.widthBits, -iv.Length())
	}
}

// notePoint streams one published point's per-dimension envelope
// coverage. Reached from the publish hot path on instrumented
// publishes only; cost is a handful of atomics per dimension.
func (sp *selProfile) notePoint(p geometry.Point) {
	sp.ptCount.Add(1)
	n := len(p)
	if n > maxProfileDims {
		n = maxProfileDims
	}
	for d := 0; d < n; d++ {
		a := &sp.dims[d]
		if a.bounded.Load() == 0 {
			continue
		}
		lo := math.Float64frombits(a.loBits.Load())
		hi := math.Float64frombits(a.hiBits.Load())
		a.points.Add(1)
		if p[d] > lo && p[d] <= hi {
			a.inEnv.Add(1)
		}
	}
}

// report renders the streaming profile as DimSelectivity entries with
// the same semantics as the sampled dimSelectivity scan, plus the
// point-coverage fraction only the stream can provide. Returns nil
// when the profile has no data or overflowed its dimension bound, in
// which case the caller falls back to the sample.
func (sp *selProfile) report() []DimSelectivity {
	total := sp.rects.Load()
	dims := int(sp.maxDims.Load())
	if total <= 0 || dims == 0 || sp.overflow.Load() {
		return nil
	}
	if dims > maxProfileDims {
		dims = maxProfileDims
	}
	out := make([]DimSelectivity, dims)
	for d := 0; d < dims; d++ {
		a := &sp.dims[d]
		sel := DimSelectivity{Dim: d, Bounded: int(a.bounded.Load())}
		if sel.Bounded < 0 {
			sel.Bounded = 0
		}
		sel.BoundedFraction = float64(sel.Bounded) / float64(total)
		lo := math.Float64frombits(a.loBits.Load())
		hi := math.Float64frombits(a.hiBits.Load())
		if sel.Bounded > 0 && hi > lo {
			width := math.Float64frombits(a.widthBits.Load())
			sel.MeanWidthFraction = width / float64(sel.Bounded) / (hi - lo)
		}
		if pts := a.points.Load(); pts > 0 {
			sel.TrafficInEnvelope = float64(a.inEnv.Load()) / float64(pts)
		}
		out[d] = sel
	}
	return out
}

// atomicAddFloat adds delta to a CAS-maintained float64 sum.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		cur := bits.Load()
		if bits.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+delta)) {
			return
		}
	}
}

// atomicMinFloat lowers a CAS-maintained float64 minimum.
func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		cur := bits.Load()
		if v >= math.Float64frombits(cur) || bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}

// atomicMaxFloat raises a CAS-maintained float64 maximum.
func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		cur := bits.Load()
		if v <= math.Float64frombits(cur) || bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}

package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with Prometheus semantics:
// bucket i counts observations v <= Bounds[i] (upper bounds inclusive),
// with one implicit +Inf bucket at the end. Observe is lock-free and
// allocation-free; the per-bucket counts are plain atomics (bucket
// choice already spreads writers) and the sum is sharded. The exact
// observed minimum and maximum are tracked alongside the buckets so
// quantile estimates can clamp to the real distribution tails instead
// of the bucket edges. All methods are safe on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is +Inf
	sum    shardedFloat
	// minBits/maxBits hold math.Float64bits of the exact observed
	// extremes, updated by CAS. Zero count means neither is valid.
	minBits atomic.Uint64
	maxBits atomic.Uint64
	// Per-bucket exemplar slots, parallel to counts: the trace id,
	// value bits, and wall-clock nanos of the last traced observation
	// to land in each bucket. Three independent atomics per bucket; a
	// scrape racing two writers can pair one observation's trace id
	// with another's value, which is acceptable for a diagnostic
	// exemplar (both are real observations of that bucket). A zero
	// trace id means the bucket has no exemplar. Fixed cost: three
	// words per bucket, allocated once at construction.
	exTrace []atomic.Uint64
	exValue []atomic.Uint64 // math.Float64bits of the observed value
	exNanos []atomic.Int64  // wall-clock UnixNano at observation
}

func newHistogram(bounds []float64) *Histogram {
	owned := append([]float64(nil), bounds...)
	sort.Float64s(owned)
	h := &Histogram{
		bounds:  owned,
		counts:  make([]atomic.Uint64, len(owned)+1),
		sum:     newShardedFloat(),
		exTrace: make([]atomic.Uint64, len(owned)+1),
		exValue: make([]atomic.Uint64, len(owned)+1),
		exNanos: make([]atomic.Int64, len(owned)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; beyond the last bound
	// lands in the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	for {
		cur := h.minBits.Load()
		if v >= math.Float64frombits(cur) || h.minBits.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
	for {
		cur := h.maxBits.Load()
		if v <= math.Float64frombits(cur) || h.maxBits.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus
// convention for latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and, when traceID is nonzero,
// stamps the value's bucket with a trace-id exemplar (last writer
// wins). Like Observe it is lock-free and allocation-free, so it is
// safe on the publish hot path; a zero traceID degrades to a plain
// Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exValue[i].Store(math.Float64bits(v))
	h.exNanos[i].Store(time.Now().UnixNano())
	// The trace id is stored last so a scrape that sees it also sees
	// a value/timestamp at least as fresh as some real observation.
	h.exTrace[i].Store(traceID)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.value()
}

// Min returns the exact smallest observed value and whether any value
// has been observed.
func (h *Histogram) Min() (float64, bool) {
	if h == nil || h.Count() == 0 {
		return 0, false
	}
	return math.Float64frombits(h.minBits.Load()), true
}

// Max returns the exact largest observed value and whether any value
// has been observed.
func (h *Histogram) Max() (float64, bool) {
	if h == nil || h.Count() == 0 {
		return 0, false
	}
	return math.Float64frombits(h.maxBits.Load()), true
}

// Snapshot captures a consistent-enough view of the histogram for
// rendering and quantile estimation. (Buckets are read one atomic at a
// time; a scrape racing Observe can be off by the in-flight
// observation, which Prometheus semantics permit.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.value(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.exTrace {
		id := h.exTrace[i].Load()
		if id == 0 {
			continue
		}
		if s.Exemplars == nil {
			s.Exemplars = make([]Exemplar, len(h.counts))
		}
		s.Exemplars[i] = Exemplar{
			TraceID:     id,
			Value:       math.Float64frombits(h.exValue[i].Load()),
			TimestampNS: h.exNanos[i].Load(),
		}
	}
	return s
}

// Exemplar is one bucket's last traced observation. A zero TraceID
// means the bucket has none.
type Exemplar struct {
	TraceID     uint64
	Value       float64
	TimestampNS int64
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending, excluding +Inf
	Counts []uint64  // per-bucket counts (not cumulative); len(Bounds)+1
	Count  uint64
	Sum    float64
	Min    float64 // exact observed minimum; valid only when Count > 0
	Max    float64 // exact observed maximum; valid only when Count > 0
	// Exemplars, when non-nil, is parallel to Counts; entries with a
	// zero TraceID are empty slots.
	Exemplars []Exemplar
}

// TopExemplar returns the exemplar from the highest-latency non-empty
// bucket — the observation closest to the distribution's tail — and
// whether one exists. It is the "what was my worst recent publication"
// pivot used by /debug/slo and pubsub-cli slo.
func (s HistogramSnapshot) TopExemplar() (Exemplar, bool) {
	for i := len(s.Exemplars) - 1; i >= 0; i-- {
		if s.Exemplars[i].TraceID != 0 {
			return s.Exemplars[i], true
		}
	}
	return Exemplar{}, false
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket containing it, the standard
// fixed-bucket estimator. When the snapshot carries exact Min/Max the
// estimate is clamped to [Min, Max], so tail quantiles report real
// observed extremes instead of bucket edges; in particular the +Inf
// bucket resolves to Max rather than the highest finite bound. Returns
// 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: the exact Max when we have one, else the
			// largest finite bound.
			if s.Max > s.Bounds[len(s.Bounds)-1] {
				return s.Max
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return s.clamp(lo + (hi-lo)*((rank-prev)/float64(c)))
	}
	return s.clamp(s.Bounds[len(s.Bounds)-1])
}

// clamp bounds an interpolated estimate to the exact observed range
// when the snapshot has one (Min <= Max only when Count > 0 and the
// fields were populated; a zero-valued pair from an older producer is
// indistinguishable from "unset", so clamp only when the pair is
// ordered and at least one side is nonzero).
func (s HistogramSnapshot) clamp(v float64) float64 {
	if s.Count == 0 || (s.Min == 0 && s.Max == 0) || s.Min > s.Max {
		return v
	}
	if v < s.Min {
		return s.Min
	}
	if v > s.Max {
		return s.Max
	}
	return v
}

// Mean returns the average observed value, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExponentialBuckets returns n upper bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets are the default upper bounds for latency histograms,
// in seconds: a 1-2.5-5 ladder from 1µs to 2.5s. They cover both the
// sub-millisecond matching path and multi-millisecond network writes.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5,
	}
}

// CountBuckets are the default upper bounds for size-ish histograms
// (fanout, nodes visited): powers of two from 1 to 4096.
func CountBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

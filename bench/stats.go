package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// tailSupport is how many samples must lie beyond a reported tail
// percentile for it to be trusted (choosing-metrics guide, section 1).
const tailSupport = 10

// tailLadder is the percentiles the harness may report as "the tail",
// highest first, in tenths of a percent so the arithmetic is exact.
var tailLadder = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest percentile of tailLadder that has
// at least tailSupport samples beyond it among n samples, or 50 when
// even the lowest rung is unsupported.
func supportedTail(n int) float64 {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= tailSupport*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of vs without reordering the caller's slice.
func median(vs []float64) float64 { return stats.Quantile(vs, 0.5) }

// nsToSorted converts nanosecond samples to ascending microseconds.
func nsToSorted(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// latencySummary is a timing reported the way the guide asks: the
// median, and the tail percentile the sample supports.
type latencySummary struct {
	Samples int
	P50     float64
	P99     float64 // value at 99, or at TailPct when 99 is unsupported
	TailPct float64 // the percentile P99 was actually read at
}

// summarizeNS reports the median and the p99 of the samples (microseconds
// out, nanoseconds in). When fewer than 1000 samples make p99
// unsupported, the highest supported percentile is reported in its
// place and named in TailPct.
func summarizeNS(ns []uint32) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	s := nsToSorted(ns)
	tail := math.Min(99, supportedTail(len(s)))
	return latencySummary{
		Samples: len(s),
		P50:     percentile(s, 50),
		P99:     percentile(s, tail),
		TailPct: tail,
	}
}

// quartiles returns Q1, the median and Q3 by the exclusive method
// Python's statistics.quantiles(values, n=4) uses, so the spread this
// harness prints is the one the driver computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

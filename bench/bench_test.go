package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 50}, // not even p75 has ten samples beyond it
		{40, 75},
		{100, 90},
		{200, 95},
		{999, 95}, // 9.99 samples beyond p99: one short
		{1000, 99},
		{9_999, 99},
		{10_000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeFallsBackBelowP99(t *testing.T) {
	ns := make([]uint32, 200)
	for i := range ns {
		ns[i] = uint32(i+1) * 1000 // 1..200 us
	}
	s := summarizeNS(ns)
	if s.TailPct != 95 || s.P99 != 190 || s.P50 != 100 || s.Samples != 200 {
		t.Errorf("summarize(1..200us) = %+v, want p50 100, tail 190 at p95", s)
	}
	ns = make([]uint32, 2000)
	for i := range ns {
		ns[i] = uint32(i+1) * 1000
	}
	if s := summarizeNS(ns); s.TailPct != 99 || s.P99 != 1980 {
		t.Errorf("summarize(1..2000us) = %+v, want 1980 at p99", s)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested", []span{{Start: 110, End: 130}}, 80},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"disjoint from the parent", []span{{Start: 300, End: 400}}, 100},
		{"shadow charged in full though outside", []span{{Start: 300, End: 330, Shadow: true}}, 70},
		{"never negative", []span{{Start: 300, End: 900, Shadow: true}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}

	tr := &trace{}
	p := tr.add(span{Name: spanPublish, Parent: -1, Start: 0, End: 100})
	tr.add(span{Name: spanMatch, Parent: p, Start: 120, End: 160, Shadow: true})
	lt := tr.selfTimes()
	if got := lt[spanPublish]; got.Count != 1 || got.Total != 100 || got.SelfNS != 60 {
		t.Errorf("publish layer time = %+v, want total 100 self 60", got)
	}
	if got := lt[spanMatch]; got.SelfNS != 40 {
		t.Errorf("match layer time = %+v, want self 40", got)
	}
}

func TestRingCount(t *testing.T) {
	for _, c := range []struct{ r, lo, hi int }{
		{0, 0, 1}, {5, 0, 5}, {5, 0, 6}, {7, 3, 3 * ringSize}, {ringSize - 1, ringSize - 1, 2*ringSize + 3},
	} {
		var want uint64
		for i := c.lo; i < c.hi; i++ {
			if i%ringSize == c.r {
				want++
			}
		}
		if got := ringCount(c.r, c.lo, c.hi); got != want {
			t.Errorf("ringCount(%d, %d, %d) = %d, want %d", c.r, c.lo, c.hi, got, want)
		}
	}
}

// The same seed must give the same inputs: the oracle's fan-out and the
// standalone index's traversal counts are functions of the inputs alone.
func TestSameSeedSameCounts(t *testing.T) {
	sp, err := specByName("stock")
	if err != nil {
		t.Fatal(err)
	}
	counts := func(seed int64) (fanout float64, nodes, entries, matched int) {
		in, err := generate(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ids := range matchesPerPoint(in.rects, in.ring) {
			fanout += float64(len(ids))
		}
		fanout /= ringSize
		m, _, err := shadowMatcher(in.rects, 0)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, p := range in.ring {
			out, qs := m.MatchAppendStats(p, ids[:0])
			ids = out
			nodes, entries, matched = nodes+qs.NodesVisited, entries+qs.EntriesTested, matched+qs.Matched
		}
		return
	}
	f1, n1, e1, m1 := counts(7)
	f2, n2, e2, m2 := counts(7)
	if f1 != f2 || n1 != n2 || e1 != e2 || m1 != m2 {
		t.Errorf("seed 7 twice: fanout %v/%v nodes %d/%d entries %d/%d matched %d/%d", f1, f2, n1, n2, e1, e2, m1, m2)
	}
	if got := float64(m1) / ringSize; got != f1 {
		t.Errorf("standalone index matched %v per query, oracle fan-out is %v", got, f1)
	}
	if f3, _, _, _ := counts(8); f3 == f1 {
		t.Errorf("seeds 7 and 8 gave the same fan-out %v", f1)
	}
}

// benchmarkFile is BENCHMARK.json as far as this test reads it.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit string
}

// A smoke pass: short runs of the two cheapest workloads in both modes,
// checked against the oracle and against the metric and workload lists
// in BENCHMARK.json. (The other three take seconds to set up; run them
// with `bash bench/run.sh --seconds 1` when the whole set is wanted.)
func TestSmokeAgainstBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(bf.PerLayer))
	}

	for _, name := range []string{"wire", "durable"} {
		for _, trace := range []bool{false, true} {
			res, notes, err := run(config{workload: name, seed: 3, seconds: 0.3, trace: trace, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d notes=%v", name, trace, res.Correct, res.Attempted, notes)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

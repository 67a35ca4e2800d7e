package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	c := newCounter()
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	tr.Sample()
	tr.Log(nil, 1, nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Traces() != 0 {
		t.Fatal("nil receivers must observe nothing")
	}
	var r *Registry
	if r.Counter("x_total", "") != nil {
		t.Fatal("nil registry must hand out nil collectors")
	}
	if r.Gather() != nil {
		t.Fatal("nil registry gather must be nil")
	}
}

func TestGauge(t *testing.T) {
	g := newGauge()
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1 gets {0.5, 1}; le=2 gets {1.5}; le=4 gets {3}; le=8 gets {5};
	// +Inf gets {100}.
	want := []uint64{2, 1, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-111) > 1e-9 {
		t.Fatalf("sum = %g, want 111", s.Sum)
	}
	// Median rank 3 falls in the le=2 bucket (cumulative 2 -> 3).
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1, 2]", q)
	}
	// p99 lands in +Inf and resolves to the exact observed maximum,
	// not the top finite bound.
	if q := s.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %g, want exact max 100", q)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("min/max = %g/%g, want 0.5/100", s.Min, s.Max)
	}
	if mn, ok := h.Min(); !ok || mn != 0.5 {
		t.Fatalf("Min() = %g,%v, want 0.5,true", mn, ok)
	}
	if mx, ok := h.Max(); !ok || mx != 100 {
		t.Fatalf("Max() = %g,%v, want 100,true", mx, ok)
	}
	if m := s.Mean(); math.Abs(m-111.0/6) > 1e-9 {
		t.Fatalf("mean = %g", m)
	}
}

func TestHistogramMinMaxEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if _, ok := h.Min(); ok {
		t.Fatal("Min() on empty histogram reported a value")
	}
	if _, ok := h.Max(); ok {
		t.Fatal("Max() on empty histogram reported a value")
	}
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot min/max = %g/%g, want zeros", s.Min, s.Max)
	}
	var nilH *Histogram
	if _, ok := nilH.Min(); ok {
		t.Fatal("nil Min() reported a value")
	}
}

func TestHistogramQuantileClampsToObservedRange(t *testing.T) {
	// All observations sit at 3 inside the (2, 4] bucket; interpolation
	// alone would spread estimates across the bucket, but the exact
	// min/max pin every quantile to 3.
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := s.Quantile(q); got != 3 {
			t.Fatalf("q%g = %g, want clamp to 3", q*100, got)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets())
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	wantSum := 0.0
	for w := 1; w <= workers; w++ {
		wantSum += float64(w) * 1e-6 * per
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	la := r.Counter("y_total", "h", L("policy", "block"))
	lb := r.Counter("y_total", "h", L("policy", "drop-newest"))
	if la == lb {
		t.Fatal("different labels must return different counters")
	}
	if lc := r.Counter("y_total", "h", L("policy", "block")); lc != la {
		t.Fatal("same labels must return the same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch must panic")
			}
		}()
		r.Gauge("x_total", "help")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bucket mismatch must panic")
			}
		}()
		r.Histogram("h_seconds", "h", []float64{1, 2})
		r.Histogram("h_seconds", "h", []float64{1, 2, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid name must panic")
			}
		}()
		r.Counter("bad name", "help")
	}()
}

func TestGatherOrderAndValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "first").Add(3)
	r.Gauge("b_depth", "second").Set(7)
	r.GaugeFunc("c_live", "third", func() float64 { return 42 })
	r.Histogram("d_seconds", "fourth", []float64{1}).Observe(0.5)

	fams := r.Gather()
	if len(fams) != 4 {
		t.Fatalf("families = %d, want 4", len(fams))
	}
	wantOrder := []string{"a_total", "b_depth", "c_live", "d_seconds"}
	for i, w := range wantOrder {
		if fams[i].Name != w {
			t.Fatalf("family %d = %s, want %s", i, fams[i].Name, w)
		}
	}
	if fams[0].Samples[0].Value != 3 || fams[1].Samples[0].Value != 7 || fams[2].Samples[0].Value != 42 {
		t.Fatalf("unexpected sample values: %+v", fams)
	}
	if fams[3].Samples[0].Hist == nil || fams[3].Samples[0].Hist.Count != 1 {
		t.Fatalf("histogram snapshot missing: %+v", fams[3])
	}
	if r.CounterValue("a_total") != 3 {
		t.Fatal("CounterValue")
	}
	if r.Histogram1("d_seconds").Count != 1 {
		t.Fatal("Histogram1")
	}
}

func TestLabelEscaping(t *testing.T) {
	got := labelString([]Label{{Key: "k", Value: `a"b\c` + "\n"}})
	want := `{k="a\"b\\c\n"}`
	if got != want {
		t.Fatalf("labelString = %s, want %s", got, want)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0.05, 0.05, 20)
	if len(lin) != 20 || math.Abs(lin[19]-1.0) > 1e-9 {
		t.Fatalf("linear buckets wrong: %v", lin)
	}
	exp := ExponentialBuckets(1, 2, 4)
	for i, w := range []float64{1, 2, 4, 8} {
		if exp[i] != w {
			t.Fatalf("exp buckets wrong: %v", exp)
		}
	}
	lat := LatencyBuckets()
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Fatalf("latency buckets not ascending at %d: %v", i, lat)
		}
	}
}

// TestRecordingDoesNotAllocate pins the hot-path guarantee: recording
// into counters, gauges and histograms is allocation-free.
func TestRecordingDoesNotAllocate(t *testing.T) {
	c := newCounter()
	g := newGauge()
	h := newHistogram(LatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1e-5) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %g/op", n)
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub_total", "publications", L("policy", "block")).Add(5)
	r.Gauge("depth", "queue depth").Set(2)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pub_total publications\n",
		"# TYPE pub_total counter\n",
		`pub_total{policy="block"} 5` + "\n",
		"# TYPE depth gauge\n",
		"depth 2\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 10.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// Goroutines at one call depth differ only in which stack holds the
// frame: 64 stacks 8 KiB apart, at one frame offset, reach every
// recorder shard and every counter shard.
func TestShardHashSpreadsStacks(t *testing.T) {
	const base, offset, stacks = 0x08100000, 0x1da8, 64
	recorder := map[uint]bool{}
	counter := map[uint]bool{}
	for i := uintptr(0); i < stacks; i++ {
		h := shardHash(base + i*8192 + offset)
		recorder[h%recorderShards] = true
		counter[h&63] = true
	}
	if len(recorder) != recorderShards {
		t.Fatalf("%d stacks reach %d of %d recorder shards", stacks, len(recorder), recorderShards)
	}
	// 64 draws over 64 shards: the expected coverage is 41.
	if len(counter) < 32 {
		t.Fatalf("%d stacks reach %d of 64 counter shards", stacks, len(counter))
	}
}

// Live goroutines, all holding their stacks at once, reach every
// recorder shard from one call site.
func TestShardIndexReachesEveryShard(t *testing.T) {
	const goroutines = 256
	hints := make(chan uint, goroutines)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hints <- shardIndex() % recorderShards
			<-release
		}()
	}
	seen := map[uint]bool{}
	for i := 0; i < goroutines; i++ {
		seen[<-hints] = true
	}
	close(release)
	wg.Wait()
	if len(seen) != recorderShards {
		t.Fatalf("%d goroutines reach %d of %d shards", goroutines, len(seen), recorderShards)
	}
}

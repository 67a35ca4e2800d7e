package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func newTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("pub_total", "publications").Add(9)
	r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1}).Observe(0.005)
	return r
}

func TestHandlerPromDefault(t *testing.T) {
	h := Handler(newTestRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %s", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "pub_total 9") {
		t.Fatalf("missing counter line:\n%s", body)
	}
	if !strings.Contains(body, `lat_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("missing +Inf bucket:\n%s", body)
	}
}

func TestHandlerJSONOptIn(t *testing.T) {
	h := Handler(newTestRegistry())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	assertJSONBody(t, rec)

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	h.ServeHTTP(rec, req)
	assertJSONBody(t, rec)
}

// TestPromExpositionConformance checks the invariants Prometheus
// scrapers rely on, over a registry exercising every collector type:
//   - every family's samples are preceded by its # HELP and # TYPE lines
//   - histogram buckets are cumulative (counts never decrease as le grows)
//   - the +Inf bucket equals the family's _count sample
//   - the _count also equals the number of observations made
func TestPromExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("conf_pub_total", "publications").Add(3)
	r.Counter("conf_drop_total", "drops by policy", L("policy", "drop-newest")).Add(1)
	r.Counter("conf_drop_total", "drops by policy", L("policy", "block")).Add(2)
	r.Gauge("conf_depth", "queue depth").Set(5)
	h := r.Histogram("conf_lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	h2 := r.Histogram("conf_fanout", "fanout", []float64{1, 10})
	h2.Observe(0.5)

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	type famState struct {
		helpSeen, typeSeen bool
		kind               string
		buckets            []struct {
			le    float64
			count float64
		}
		count    float64
		hasCount bool
	}
	fams := map[string]*famState{}
	fam := func(name string) *famState {
		f := fams[name]
		if f == nil {
			f = &famState{}
			fams[name] = f
		}
		return f
	}
	baseOf := func(name string) string {
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, s)
			if b != name {
				if f, ok := fams[b]; ok && f.kind == "histogram" {
					return b
				}
			}
		}
		return name
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			fam(name).helpSeen = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			fam(name).typeSeen = true
			fam(name).kind = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		metric, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
		name := metric
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := baseOf(name)
		f := fams[base]
		if f == nil || !f.helpSeen || !f.typeSeen {
			t.Fatalf("sample %q not preceded by its family's # HELP and # TYPE", line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && f.kind == "histogram":
			le := math.Inf(1)
			if i := strings.Index(metric, `le="`); i >= 0 {
				leStr := metric[i+4:]
				leStr = leStr[:strings.IndexByte(leStr, '"')]
				if leStr != "+Inf" {
					if le, err = strconv.ParseFloat(leStr, 64); err != nil {
						t.Fatalf("bucket %q has bad le: %v", line, err)
					}
				}
			}
			f.buckets = append(f.buckets, struct{ le, count float64 }{le, val})
		case strings.HasSuffix(name, "_count") && f.kind == "histogram":
			f.count = val
			f.hasCount = true
		}
	}

	for _, name := range []string{"conf_pub_total", "conf_drop_total", "conf_depth", "conf_lat_seconds", "conf_fanout"} {
		f := fams[name]
		if f == nil || !f.helpSeen || !f.typeSeen {
			t.Fatalf("family %s missing or missing HELP/TYPE:\n%s", name, body)
		}
	}
	for name, f := range fams {
		if f.kind != "histogram" {
			continue
		}
		if len(f.buckets) == 0 || !f.hasCount {
			t.Fatalf("histogram %s has no buckets or no _count:\n%s", name, body)
		}
		sort.Slice(f.buckets, func(i, j int) bool { return f.buckets[i].le < f.buckets[j].le })
		for i := 1; i < len(f.buckets); i++ {
			if f.buckets[i].count < f.buckets[i-1].count {
				t.Fatalf("histogram %s buckets not cumulative: le=%g count=%g after le=%g count=%g",
					name, f.buckets[i].le, f.buckets[i].count, f.buckets[i-1].le, f.buckets[i-1].count)
			}
		}
		last := f.buckets[len(f.buckets)-1]
		if !math.IsInf(last.le, 1) {
			t.Fatalf("histogram %s is missing the +Inf bucket", name)
		}
		if last.count != f.count {
			t.Fatalf("histogram %s: +Inf bucket %g != _count %g", name, last.count, f.count)
		}
	}
	if got := fams["conf_lat_seconds"].count; got != 5 {
		t.Fatalf("conf_lat_seconds _count = %g, want 5 observations", got)
	}
	if got := fams["conf_fanout"].count; got != 1 {
		t.Fatalf("conf_fanout _count = %g, want 1 observation", got)
	}
}

func TestPromHistogramMinMaxFamilies(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mm_lat_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0004)
	h.Observe(7.5)
	r.Histogram("mm_empty_seconds", "never observed", []float64{1})

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE mm_lat_seconds_min gauge",
		"# TYPE mm_lat_seconds_max gauge",
		"mm_lat_seconds_min 0.0004",
		"mm_lat_seconds_max 7.5",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}
	if strings.Contains(body, "mm_empty_seconds_min") || strings.Contains(body, "mm_empty_seconds_max") {
		t.Fatalf("empty histogram grew min/max families:\n%s", body)
	}
}

func TestHistogramFuncScrapeTime(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.HistogramFunc("hf_lag_events", "live lag distribution", func() HistogramSnapshot {
		calls++
		return HistogramSnapshot{
			Bounds: []float64{1, 10},
			Counts: []uint64{2, 1, 1},
			Count:  4,
			Sum:    25,
			Min:    0,
			Max:    14,
		}
	})
	fams := r.Gather()
	if calls != 1 {
		t.Fatalf("fn called %d times during Gather, want 1", calls)
	}
	var found *HistogramSnapshot
	for _, f := range fams {
		if f.Name == "hf_lag_events" {
			if f.Kind != KindHistogram || len(f.Samples) != 1 {
				t.Fatalf("hf_lag_events family malformed: %+v", f)
			}
			found = f.Samples[0].Hist
		}
	}
	if found == nil || found.Count != 4 || found.Max != 14 {
		t.Fatalf("scrape-time histogram not gathered: %+v", found)
	}

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE hf_lag_events histogram",
		`hf_lag_events_bucket{le="+Inf"} 4`,
		"hf_lag_events_count 4",
		"hf_lag_events_max 14",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}
}

func assertJSONBody(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %s", ct)
	}
	var obj map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if obj["pub_total"] != float64(9) {
		t.Fatalf("pub_total = %v", obj["pub_total"])
	}
	hist, ok := obj["lat_seconds"].(map[string]any)
	if !ok || hist["count"] != float64(1) {
		t.Fatalf("lat_seconds histogram wrong: %v", obj["lat_seconds"])
	}
}

// TestOpenMetricsExemplarConformance pins the exemplar exposition to
// the OpenMetrics rules a strict scraper enforces: exemplars appear
// only on histogram bucket lines, the exemplar labelset is valid and
// within the 128-rune budget, the negotiated output ends with the EOF
// terminator, and — crucially — the default 0.0.4 scrape is entirely
// unaffected (no exemplar suffixes, no EOF line, every line still
// matching the plain-text grammar).
func TestOpenMetricsExemplarConformance(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("om_stage_seconds", "waterfall stage", []float64{0.001, 0.01, 0.1}, L("stage", "match"))
	h.ObserveExemplar(0.005, 0xdeadbeefcafef00d)
	h.ObserveExemplar(0.5, 0x1234567890abcdef) // lands in the +Inf bucket
	h.Observe(0.002)                           // untraced: its bucket keeps the old exemplar state
	r.Counter("om_plain_total", "a counter").Add(3)
	r.Gauge("om_depth", "a gauge").Set(7)

	handler := Handler(r)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	handler.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated content type = %s", ct)
	}
	om := rec.Body.String()
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics output must end with # EOF:\n...%s", om[max(0, len(om)-80):])
	}

	exemplarSuffix := regexp.MustCompile(` # \{trace_id="([0-9a-f]{16})"\} [0-9eE.+-]+ [0-9]+\.[0-9]{3}$`)
	exemplars := 0
	for _, line := range strings.Split(strings.TrimRight(om, "\n"), "\n") {
		hasMarker := strings.Contains(line, " # {")
		if !hasMarker {
			continue
		}
		exemplars++
		if !strings.Contains(line, "_bucket{") {
			t.Fatalf("exemplar on a non-bucket line: %q", line)
		}
		m := exemplarSuffix.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exemplar suffix: %q", line)
		}
		// OpenMetrics bounds an exemplar labelset (names + values) at
		// 128 UTF-8 characters; ours is trace_id (8) + 16 hex runes.
		if n := len("trace_id") + len(m[1]); n > 128 {
			t.Fatalf("exemplar labelset %d runes exceeds the 128 budget", n)
		}
	}
	if exemplars < 2 {
		t.Fatalf("want >= 2 exemplar-bearing bucket lines, got %d:\n%s", exemplars, om)
	}

	// The default scrape must be byte-identical to the exemplar-free
	// rendering: no suffixes, no EOF, and every line well-formed 0.0.4.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	plain := rec.Body.String()
	if strings.Contains(plain, " # {") {
		t.Fatalf("default scrape leaked exemplar syntax:\n%s", plain)
	}
	if strings.Contains(plain, "# EOF") {
		t.Fatalf("default scrape leaked the OpenMetrics terminator:\n%s", plain)
	}
	wellFormed := regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+(Inf)?|)$`)
	for _, line := range strings.Split(strings.TrimRight(plain, "\n"), "\n") {
		if !wellFormed.MatchString(line) {
			t.Fatalf("default scrape line not plain 0.0.4: %q", line)
		}
	}

	// Stripping the exemplar suffixes and the terminator from the
	// negotiated output must reproduce the default scrape exactly —
	// exemplars are an annotation, never a reshaping.
	stripped := regexp.MustCompile(`(?m) # \{[^}]*\} [0-9eE.+-]+ [0-9.]+$`).ReplaceAllString(om, "")
	stripped = strings.TrimSuffix(stripped, "# EOF\n")
	if stripped != plain {
		t.Fatalf("negotiated output is not default + annotations:\nom:\n%s\nplain:\n%s", stripped, plain)
	}

	// ?format=openmetrics negotiates the same rendering.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=openmetrics", nil))
	if rec.Body.String() != om {
		t.Fatalf("?format=openmetrics differs from Accept-negotiated output")
	}
}

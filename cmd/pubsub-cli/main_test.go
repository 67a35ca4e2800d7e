package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/wire"
)

func TestParseRect(t *testing.T) {
	tests := []struct {
		name    string
		spec    string
		wantErr bool
		check   func(t *testing.T)
	}{
		{name: "bounded", spec: "0:1,2:3"},
		{name: "open upper", spec: "999:"},
		{name: "open lower", spec: ":5"},
		{name: "full", spec: ":"},
		{name: "missing colon", spec: "1,2", wantErr: true},
		{name: "bad number", spec: "a:b", wantErr: true},
		{name: "empty interval", spec: "5:5", wantErr: true},
		{name: "inverted", spec: "7:3", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := ParseRect(tt.spec)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseRect(%q) err = %v, wantErr %v", tt.spec, err, tt.wantErr)
			}
			if err == nil && r.Dims() != strings.Count(tt.spec, ":") {
				t.Errorf("dims = %d", r.Dims())
			}
		})
	}
	r, err := ParseRect("999:")
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Lo != 999 || !math.IsInf(r[0].Hi, 1) {
		t.Errorf("open upper = %v", r[0])
	}
}

func TestParsePoint(t *testing.T) {
	p, err := ParsePoint("1, 2.5,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1] != 2.5 {
		t.Errorf("point = %v", p)
	}
	if _, err := ParsePoint("1,x"); err == nil {
		t.Error("bad coordinate accepted")
	}
}

// NaN is no bound and no coordinate: both parsers refuse it with an
// error naming where it was, and infinities still parse.
func TestParseRejectsNaN(t *testing.T) {
	parseRect := func(s string) error { _, err := ParseRect(s); return err }
	parsePoint := func(s string) error { _, err := ParsePoint(s); return err }
	tests := []struct {
		spec    string
		parse   func(string) error
		wantErr string // "" = accepted
	}{
		{"nan:5", parseRect, "dimension 0 lower bound"},
		{"0:1,1:NaN", parseRect, "dimension 1 upper bound"},
		{"nan", parsePoint, "coordinate 0"},
		{"1,-NaN", parsePoint, "coordinate 1"},
		{":5", parseRect, ""},
		{"-inf:inf", parseRect, ""},
		{"inf", parsePoint, ""},
	}
	for _, tt := range tests {
		err := tt.parse(tt.spec)
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%q: %v, want it accepted", tt.spec, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%q: err = %v, want one naming %q", tt.spec, err, tt.wantErr)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Error("missing verb accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1", "frobnicate", "x"}, &sb); err == nil {
		t.Error("unknown verb accepted (or dial to closed port succeeded)")
	}
}

func TestEndToEndPublishSubscribe(t *testing.T) {
	b := broker.New(broker.Options{})
	srv := wire.NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { srv.Close(); b.Close() }()
	addr := ln.Addr().String()

	subOut := make(chan string, 1)
	subErr := make(chan error, 1)
	go func() {
		var sb strings.Builder
		err := run([]string{"-addr", addr, "-count", "1", "subscribe", "10:11,75:80,999:"}, &sb)
		subOut <- sb.String()
		subErr <- err
	}()

	// Wait for the subscription to land, then publish.
	deadline := time.Now().Add(3 * time.Second)
	for b.Stats().Subscriptions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never arrived")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var sb strings.Builder
	if err := run([]string{"-addr", addr, "-payload", "IBM", "publish", "10.5,78,2000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "published to 1 subscribers") {
		t.Errorf("publish output = %q", sb.String())
	}

	select {
	case out := <-subOut:
		if !strings.Contains(out, "subscribed id=") || !strings.Contains(out, `payload="IBM"`) {
			t.Errorf("subscriber output = %q", out)
		}
		if err := <-subErr; err != nil {
			t.Errorf("subscriber error: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("subscriber did not exit after -count events")
	}
}

// TestLongHistorySubscribeAndReplay: against a durable server holding
// 3 000 records, three times the client's event buffer, -from 1 subscribe
// prints every record once and in order, and replay prints all of them.
func TestLongHistorySubscribeAndReplay(t *testing.T) {
	const history = 3000
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Options{Log: log})
	srv := wire.NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { srv.Close(); b.Close(); log.Close() }()
	addr := ln.Addr().String()
	for i := 1; i <= history; i++ {
		if _, err := b.Publish(geometry.Point{float64(i % 10)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seqs := func(out string) []uint64 {
		var got []uint64
		for _, m := range regexp.MustCompile(`(?m)^event seq=(\d+) `).FindAllStringSubmatch(out, -1) {
			var seq uint64
			fmt.Sscan(m[1], &seq)
			got = append(got, seq)
		}
		return got
	}
	check := func(verb string, got []uint64) {
		t.Helper()
		if len(got) != history {
			t.Fatalf("%s printed %d of %d events", verb, len(got), history)
		}
		for i, seq := range got {
			if seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d, want %d", verb, i, seq, i+1)
			}
		}
	}

	// A subscribe that loses records waits for more forever.
	var sub strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-from", "1", "-count", fmt.Sprint(history), "subscribe", ":"}, &sub)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("subscribe printed fewer than %d events in 30 s", history)
	}
	check("subscribe", seqs(sub.String()))

	var rep strings.Builder
	if err := run([]string{"-addr", addr, "replay", "1"}, &rep); err != nil {
		t.Fatal(err)
	}
	check("replay", seqs(rep.String()))
	if !strings.HasSuffix(rep.String(), fmt.Sprintf("replayed %d event(s)\n", history)) {
		t.Fatalf("replay output ends %q", rep.String()[max(0, rep.Len()-60):])
	}
}

// FuzzParseRect: the parser must never panic and accepted rectangles
// must be non-empty in every dimension.
func FuzzParseRect(f *testing.F) {
	f.Add("0:1,2:3")
	f.Add("999:")
	f.Add(":")
	f.Add("a:b")
	f.Add("1:2:3")
	f.Add("nan:5")
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRect(spec)
		if err != nil {
			return
		}
		for d := range r {
			if r[d].Empty() {
				t.Fatalf("ParseRect(%q) accepted empty dimension %d", spec, d)
			}
		}
	})
}

// FuzzParsePoint: no panics; accepted points have one coordinate per
// comma-separated field, and none is NaN.
func FuzzParsePoint(f *testing.F) {
	f.Add("1,2,3")
	f.Add("")
	f.Add("x")
	f.Add("nan")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePoint(spec)
		if err != nil {
			return
		}
		if len(p) != strings.Count(spec, ",")+1 {
			t.Fatalf("ParsePoint(%q) = %d coords", spec, len(p))
		}
		if slices.ContainsFunc(p, math.IsNaN) {
			t.Fatalf("ParsePoint(%q) accepted NaN: %v", spec, p)
		}
	})
}

func TestRunStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("pubsub_broker_published_total", "Publications accepted.").Add(7)
	reg.Counter("pubsub_wal_appends_total", "Records appended.").Add(480)
	reg.Counter("pubsub_wal_flushes_total", "Batch writes.").Add(2)
	h := reg.Histogram("pubsub_broker_publish_seconds", "Publish latency.",
		[]float64{0.001, 0.01, 0.1})
	for i := 0; i < 10; i++ {
		h.Observe(0.005)
	}
	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()

	var sb strings.Builder
	if err := run([]string{"-metrics-addr", srv.URL, "stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "pubsub_broker_published_total  [counter]") {
		t.Errorf("counter family missing:\n%s", out)
	}
	if !strings.Contains(out, "pubsub_broker_published_total = 7") {
		t.Errorf("counter value missing:\n%s", out)
	}
	if !strings.Contains(out, "records/flush = 240.0") {
		t.Errorf("group-commit factor missing under pubsub_wal_flushes_total:\n%s", out)
	}
	if !strings.Contains(out, "count=10") || !strings.Contains(out, "p99=") {
		t.Errorf("histogram summary missing:\n%s", out)
	}

	// The registry exposes exact extremes as companion gauge families;
	// the renderer folds them into the histogram summary instead of
	// printing them as standalone families.
	if !strings.Contains(out, "min=0.005") || !strings.Contains(out, "max=0.005") {
		t.Errorf("folded min/max missing from histogram summary:\n%s", out)
	}
	if strings.Contains(out, "pubsub_broker_publish_seconds_min  [") ||
		strings.Contains(out, "pubsub_broker_publish_seconds_max  [") {
		t.Errorf("companion extreme families should fold away, not render:\n%s", out)
	}

	// All ten observations were exactly 0.005: interpolation alone would
	// land mid-bucket, but the exact extremes clamp every quantile onto
	// the observed point mass.
	var p50 float64
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "p50="); i >= 0 {
			fields := strings.Fields(line[i:])
			if _, err := fmt.Sscanf(fields[0], "p50=%g", &p50); err != nil {
				t.Fatalf("parse %q: %v", fields[0], err)
			}
		}
	}
	if p50 != 0.005 {
		t.Errorf("p50 = %g, want exactly 0.005 (clamped to observed extremes)", p50)
	}

	if err := run([]string{"-metrics-addr", "127.0.0.1:1", "stats"}, &sb); err == nil {
		t.Error("stats against a closed port succeeded")
	}
}

// TestHistAccQuantile pins the quantile estimator's behaviour on the
// distributions it actually meets: uniform spread, a point mass in one
// bucket, and degenerate single-bucket/empty families.
func TestHistAccQuantile(t *testing.T) {
	inf := math.Inf(1)
	approx := func(t *testing.T, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile = %g, want %g", got, want)
		}
	}

	t.Run("uniform", func(t *testing.T) {
		// 100 observations spread evenly over (0,4]: interpolation must
		// recover the exact quantiles of the uniform distribution.
		h := &histAcc{
			bounds: []float64{1, 2, 3, 4, inf},
			counts: []float64{25, 50, 75, 100, 100},
			count:  100,
		}
		approx(t, h.quantile(0.25), 1)
		approx(t, h.quantile(0.50), 2)
		approx(t, h.quantile(0.90), 3.6)
		approx(t, h.quantile(1.00), 4)
	})

	t.Run("point mass", func(t *testing.T) {
		// Everything in (1,2]: every quantile interpolates inside that
		// bucket, never escaping into empty neighbours.
		h := &histAcc{
			bounds: []float64{1, 2, 4, inf},
			counts: []float64{0, 100, 100, 100},
			count:  100,
		}
		for _, q := range []float64{0.01, 0.5, 0.99} {
			got := h.quantile(q)
			if got <= 1 || got > 2 {
				t.Errorf("quantile(%g) = %g, want in (1, 2]", q, got)
			}
		}
		approx(t, h.quantile(0.5), 1.5)
	})

	t.Run("overflow clamps to largest finite bound", func(t *testing.T) {
		// All mass beyond the last finite bound: the estimator cannot
		// invent a value, so it reports the largest finite bound.
		h := &histAcc{
			bounds: []float64{1, inf},
			counts: []float64{0, 10},
			count:  10,
		}
		approx(t, h.quantile(0.5), 1)
		approx(t, h.quantile(0.99), 1)
	})

	t.Run("single +Inf bucket", func(t *testing.T) {
		h := &histAcc{bounds: []float64{inf}, counts: []float64{5}, count: 5}
		approx(t, h.quantile(0.5), 0)
	})

	t.Run("exact extremes clamp interpolation", func(t *testing.T) {
		// Everything in (1,2] but the observed range was [1.4, 1.6]:
		// quantiles must not stray outside values that actually occurred.
		h := &histAcc{
			bounds: []float64{1, 2, inf},
			counts: []float64{0, 100, 100},
			count:  100,
			minV:   1.4, hasMin: true,
			maxV: 1.6, hasMax: true,
		}
		approx(t, h.quantile(0.01), 1.4)
		approx(t, h.quantile(0.5), 1.5)
		approx(t, h.quantile(0.99), 1.6)
	})

	t.Run("overflow reports exact max when known", func(t *testing.T) {
		// Mass beyond the last finite bound no longer clamps to the
		// bound when the daemon shipped the true maximum.
		h := &histAcc{
			bounds: []float64{1, inf},
			counts: []float64{0, 10},
			count:  10,
			maxV:   7.5, hasMax: true,
		}
		approx(t, h.quantile(0.99), 7.5)
	})

	t.Run("empty", func(t *testing.T) {
		approx(t, (&histAcc{}).quantile(0.5), 0)
		h := &histAcc{bounds: []float64{1, inf}, counts: []float64{0, 0}}
		approx(t, h.quantile(0.9), 0)
	})
}

// debugServer serves canned JSON for the daemon debug endpoints the lag
// and top verbs consume.
func debugServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	serve := func(path, body string) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, body)
		})
	}
	serve("/debug/lag", `{
		"head": 42, "durable": true,
		"slow_subs": 1, "slow_transitions": 3, "max_lag_events": 40,
		"subs": [
			{"id": 1, "policy": "drop-oldest", "buffered": 0, "capacity": 16,
			 "delivered_seq": 42, "lag_events": 0, "dropped": 0},
			{"id": 2, "policy": "block", "buffered": 16, "capacity": 16,
			 "delivered_seq": 2, "lag_events": 40, "lag_age_seconds": 1.5,
			 "dropped": 7, "slow": true}
		],
		"conns": [{"id": 9, "subs": 2, "last_seq": 42, "lag_events": 0}]
	}`)
	serve("/healthz", `{
		"status": "healthy",
		"components": [
			{"component": "wal", "state": "healthy", "reason": "next offset 42, 1 segment(s), 512 bytes"},
			{"component": "broker", "state": "healthy", "reason": "2 subscription(s)"}
		]
	}`)
	serve("/debug/index", `{
		"subscriptions": 2, "rectangles": 2,
		"base_len": 2, "overlay_len": 0, "stale": 0, "multi_rect": false,
		"rebuilds": 1, "seconds_since_rebuild": 0.5,
		"shape": {"algorithm": "s-tree", "entries": 2}, "sampled_rects": 2,
		"duplicate_pairs": 0, "covering_pairs": 0
	}`)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRunLag(t *testing.T) {
	srv := debugServer(t)
	var sb strings.Builder
	if err := run([]string{"-metrics-addr", srv.URL, "lag"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"head=42 (durable)",
		"slow=1 (transitions 3)",
		"max_lag=40",
		"drop-oldest",
		"16/16", // the slow subscription's full buffer
		"1.5s",  // lag age rendered as a duration
		"slow",  // the flag column
		"CONN",  // per-connection table present
		"9",     // the connection id
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lag output missing %q:\n%s", want, out)
		}
	}

	if err := run([]string{"-metrics-addr", "127.0.0.1:1", "lag"}, &sb); err == nil {
		t.Error("lag against a closed port succeeded")
	}
}

func TestRunTop(t *testing.T) {
	srv := debugServer(t)
	var sb strings.Builder
	if err := run([]string{
		"-metrics-addr", srv.URL, "-count", "1", "-interval", "10ms", "top",
	}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"health: healthy",
		"wal: healthy (next offset 42",
		"index: s-tree  subs=2 rects=2",
		"head=42 (durable)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}

	// A dead daemon renders as unreachable rather than erroring out, so
	// top keeps refreshing through restarts.
	sb.Reset()
	if err := run([]string{
		"-metrics-addr", "127.0.0.1:1", "-count", "1", "top",
	}, &sb); err != nil {
		t.Fatalf("top against a closed port should render, got %v", err)
	}
	if !strings.Contains(sb.String(), "unreachable") {
		t.Errorf("top against a closed port should say unreachable:\n%s", sb.String())
	}
}

// The trace verb prints each record's arguments in the order its kind
// names them: the stage split in pipeline order, the publish summary
// as the recorder defines it.
func TestRunEventsTrace(t *testing.T) {
	rec := telemetry.NewRecorder(512)
	b := broker.New(broker.Options{Recorder: rec})
	defer b.Close()
	if _, err := b.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTraceID()
	if _, err := b.PublishTraced(geometry.Point{5}, nil, trace); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.EventsHandler(rec))
	defer srv.Close()

	var sb strings.Builder
	if err := run([]string{"-metrics-addr", srv.URL, "trace", telemetry.FormatTraceID(trace)}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m) stages +seq=1 wal=0 ingest=\d+ match=\d+ enqueue=\d+$`),
		regexp.MustCompile(`(?m) publish +seq=1 fanout=1 delivered=1 match_ns=\d+ total_ns=\d+$`),
	} {
		if !want.MatchString(out) {
			t.Errorf("trace output has no line matching %s:\n%s", want, out)
		}
	}
}

// Command pubsub-cli is a client for pubsubd.
//
// Subscribe to a region (prints events until interrupted):
//
//	pubsub-cli -addr localhost:7070 subscribe "10:11,75:80,999:"
//
// Publish an event:
//
//	pubsub-cli -addr localhost:7070 publish "10.5,78,2000" -payload "IBM trade"
//
// Fetch and pretty-print a running daemon's metrics (requires pubsubd
// started with -metrics-addr):
//
//	pubsub-cli -metrics-addr localhost:9090 stats
//
// Fetch the daemon's flight recorder — every record, or the correlated
// timeline of one publication by the trace id that publish printed:
//
//	pubsub-cli -metrics-addr localhost:9090 events
//	pubsub-cli -metrics-addr localhost:9090 trace 4a5be60cd4a00f01
//
// Show the delivery SLO burn rate, the per-stage latency waterfall and
// the per-shard match-cost attribution; each stage line carries the
// exemplar trace id of its worst recent publication, ready to feed to
// the trace verb above:
//
//	pubsub-cli -metrics-addr localhost:9090 slo
//
// Against a daemon started with -data-dir, dump the durable publication
// log from an offset (0 means the oldest retained record), or subscribe
// with catch-up replay before live delivery:
//
//	pubsub-cli -addr localhost:7070 replay 0
//	pubsub-cli -addr localhost:7070 -from 17 subscribe "10:11,75:80,999:"
//
// Rectangles are comma-separated per-dimension ranges "lo:hi"; omit a
// bound for the corresponding infinity ("999:" means volume > 999).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/geometry"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pubsub-cli:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pubsub-cli", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "localhost:7070", "broker address")
		metricsAddr = fs.String("metrics-addr", "localhost:9090", "pubsubd metrics address for the stats/events/trace verbs")
		payload     = fs.String("payload", "", "payload for publish")
		count       = fs.Int("count", 0, "subscribe: exit after this many events; top: refresh this many times (0 = forever)")
		fromOffset  = fs.Uint64("from", 0, "subscribe: replay the durable log from this offset first (0 = live only)")
		kindFilter  = fs.String("kind", "", "events: keep only records of this kind (e.g. publish, ingest, deliver)")
		limit       = fs.Int("limit", 0, "events: keep only the most recent N records (0 = all)")
		interval    = fs.Duration("interval", 2*time.Second, "top: refresh interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) >= 1 && rest[0] == "stats" {
		return runStats(*metricsAddr, w)
	}
	if len(rest) >= 1 && rest[0] == "events" {
		return runEvents(*metricsAddr, "", *kindFilter, *limit, w)
	}
	if len(rest) >= 1 && rest[0] == "lag" {
		return runLag(*metricsAddr, w)
	}
	if len(rest) >= 1 && rest[0] == "slo" {
		return runSLO(*metricsAddr, w)
	}
	if len(rest) >= 1 && rest[0] == "top" {
		return runTop(*metricsAddr, *interval, *count, w)
	}
	if len(rest) < 2 {
		return fmt.Errorf("usage: pubsub-cli [flags] subscribe|publish|replay <spec> | trace <id> | stats | events | lag | slo | top")
	}
	verb, spec := rest[0], rest[1]
	if verb == "trace" {
		return runEvents(*metricsAddr, spec, *kindFilter, *limit, w)
	}

	cli, err := wire.Dial(*addr)
	if err != nil {
		return err
	}
	defer func() { _ = cli.Close() }()

	switch verb {
	case "subscribe":
		rect, err := ParseRect(spec)
		if err != nil {
			return err
		}
		id, err := cli.SubscribeFrom(*fromOffset, rect)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "subscribed id=%d rect=%v\n", id, rect)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		received := 0
		for {
			select {
			case ev, open := <-cli.Events():
				if !open {
					return fmt.Errorf("connection closed")
				}
				received++
				fmt.Fprintf(w, "event seq=%d point=%v payload=%q\n", ev.Seq, ev.Point, ev.Payload)
				if *count > 0 && received >= *count {
					return nil
				}
			case <-sig:
				return nil
			}
		}

	case "publish":
		point, err := ParsePoint(spec)
		if err != nil {
			return err
		}
		n, traceID, err := cli.PublishTraced(point, []byte(*payload))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "published to %d subscribers trace=%016x\n", n, traceID)
		return nil

	case "replay":
		from, err := strconv.ParseUint(spec, 10, 64)
		if err != nil {
			return fmt.Errorf("replay offset %q: %w", spec, err)
		}
		evs, err := cli.Replay(from)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			fmt.Fprintf(w, "event seq=%d point=%v payload=%q\n", ev.Seq, ev.Point, ev.Payload)
		}
		fmt.Fprintf(w, "replayed %d event(s)\n", len(evs))
		return nil

	default:
		return fmt.Errorf("unknown verb %q (want subscribe, publish, replay, trace, stats, events, lag, slo or top)", verb)
	}
}

// lagDump mirrors the daemon's /debug/lag JSON: the broker's
// per-subscription lag report plus the wire server's per-connection
// view.
type lagDump struct {
	broker.LagReport
	Conns []wire.ConnLag `json:"conns"`
}

// healthDump mirrors the /healthz and /readyz bodies.
type healthDump struct {
	Status     string `json:"status"`
	Components []struct {
		Component string `json:"component"`
		State     string `json:"state"`
		Reason    string `json:"reason"`
	} `json:"components"`
	Pending []string `json:"pending"`
}

// fetchJSON GETs a debug endpoint and decodes its JSON body. Health
// endpoints answer 503 with the same body shape when unhealthy, so
// that status is decoded too rather than treated as an error.
func fetchJSON(addr, path string, v any) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u := strings.TrimSuffix(base, "/") + path
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", u, err)
	}
	return nil
}

// runLag fetches /debug/lag and renders the consumer-lag tables.
func runLag(addr string, w io.Writer) error {
	var dump lagDump
	if err := fetchJSON(addr, "/debug/lag", &dump); err != nil {
		return err
	}
	writeLag(&dump, w)
	return nil
}

// writeLag renders one lag snapshot: a summary line, the
// per-subscription table, and — when the daemon reports wire
// connections — the per-connection resume depths.
func writeLag(d *lagDump, w io.Writer) {
	mode := "in-memory"
	if d.Durable {
		mode = "durable"
	}
	fmt.Fprintf(w, "head=%d (%s)  subs=%d  slow=%d (transitions %d)  max_lag=%d\n",
		d.Head, mode, len(d.Subs), d.SlowSubs, d.SlowTransitions, d.MaxLagEvents)
	if len(d.Subs) > 0 {
		fmt.Fprintf(w, "%-6s %-12s %-9s %-11s %-8s %-12s %-8s %s\n",
			"SUB", "POLICY", "BUFFER", "DELIVERED", "LAG", "AGE", "DROPPED", "FLAGS")
		for _, s := range d.Subs {
			var flags []string
			if s.Slow {
				flags = append(flags, "slow")
			}
			if s.Evicting {
				flags = append(flags, "evicting")
			}
			age := "-"
			if s.LagAgeSeconds > 0 {
				age = time.Duration(s.LagAgeSeconds * float64(time.Second)).Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%-6d %-12s %-9s %-11d %-8d %-12s %-8d %s\n",
				s.ID, s.Policy, fmt.Sprintf("%d/%d", s.Buffered, s.Capacity),
				s.DeliveredSeq, s.LagEvents, age, s.Dropped, strings.Join(flags, ","))
		}
	}
	if len(d.Conns) > 0 {
		fmt.Fprintf(w, "%-6s %-6s %-11s %s\n", "CONN", "SUBS", "LAST_SEQ", "LAG")
		for _, c := range d.Conns {
			fmt.Fprintf(w, "%-6d %-6d %-11d %d\n", c.ID, c.Subs, c.LastSeq, c.LagEvents)
		}
	}
}

// sloDump mirrors the daemon's /debug/slo JSON: the burn-rate
// evaluation, the per-stage latency waterfall with exemplar trace ids,
// and the per-shard match-cost attribution.
type sloDump struct {
	Enabled bool `json:"enabled"`
	SLO     *struct {
		ObjectiveSeconds  float64 `json:"objective_seconds"`
		Budget            float64 `json:"budget"`
		WindowSeconds     float64 `json:"window_seconds"`
		FastWindowSeconds float64 `json:"fast_window_seconds"`
		FastBurn          float64 `json:"fast_burn"`
		SlowBurn          float64 `json:"slow_burn"`
		FastBad           uint64  `json:"fast_bad"`
		FastTotal         uint64  `json:"fast_total"`
		SlowBad           uint64  `json:"slow_bad"`
		SlowTotal         uint64  `json:"slow_total"`
		BurningForSeconds float64 `json:"burning_for_seconds"`
		State             string  `json:"state"`
		Reason            string  `json:"reason"`
	} `json:"slo"`
	Stages []struct {
		Stage           string  `json:"stage"`
		Count           uint64  `json:"count"`
		P50             float64 `json:"p50_seconds"`
		P90             float64 `json:"p90_seconds"`
		P99             float64 `json:"p99_seconds"`
		Max             float64 `json:"max_seconds"`
		ExemplarTrace   string  `json:"exemplar_trace"`
		ExemplarSeconds float64 `json:"exemplar_seconds"`
	} `json:"stages"`
	Shards []struct {
		Shard int     `json:"shard"`
		Count uint64  `json:"count"`
		P50   float64 `json:"p50_seconds"`
		P99   float64 `json:"p99_seconds"`
		Max   float64 `json:"max_seconds"`
	} `json:"shards"`
	Imbalance float64 `json:"imbalance"`
}

// fmtSec renders a latency in engineer-friendly units.
func fmtSec(s float64) string {
	if s <= 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// runSLO fetches /debug/slo and renders the burn-rate state, the p99
// latency waterfall and the shard attribution table. Each stage line
// ends with the exemplar trace id of its worst recent publication —
// feed it to `pubsub-cli trace <id>` for the correlated timeline.
func runSLO(addr string, w io.Writer) error {
	var d sloDump
	if err := fetchJSON(addr, "/debug/slo", &d); err != nil {
		return err
	}
	writeSLO(&d, w, false)
	return nil
}

// writeSLO renders one /debug/slo snapshot; compact drops the tables
// down to what fits a `top` header.
func writeSLO(d *sloDump, w io.Writer, compact bool) {
	if d.Enabled && d.SLO != nil {
		s := d.SLO
		fmt.Fprintf(w, "slo: %s  objective %s (budget %.2g%%) window %s  fast %.2fx long %.2fx",
			s.State, fmtSec(s.ObjectiveSeconds), s.Budget*100,
			time.Duration(s.WindowSeconds*float64(time.Second)).String(),
			s.FastBurn, s.SlowBurn)
		if s.BurningForSeconds > 0 {
			fmt.Fprintf(w, "  burning %s", time.Duration(s.BurningForSeconds*float64(time.Second)).Round(time.Second))
		}
		fmt.Fprintln(w)
		if !compact {
			fmt.Fprintf(w, "  fast window %s: %d/%d bad   long window: %d/%d bad\n  %s\n",
				time.Duration(s.FastWindowSeconds*float64(time.Second)).String(),
				s.FastBad, s.FastTotal, s.SlowBad, s.SlowTotal, s.Reason)
		}
	} else {
		fmt.Fprintln(w, "slo: disabled (start pubsubd with -slo-delivery-p99)")
	}
	if len(d.Stages) > 0 {
		fmt.Fprintf(w, "%-12s %-9s %-10s %-10s %-10s %-10s %s\n",
			"STAGE", "COUNT", "P50", "P90", "P99", "MAX", "EXEMPLAR")
		for _, st := range d.Stages {
			if compact && st.Count == 0 {
				continue
			}
			ex := "-"
			if st.ExemplarTrace != "" {
				ex = fmt.Sprintf("%s (%s)", st.ExemplarTrace, fmtSec(st.ExemplarSeconds))
			}
			fmt.Fprintf(w, "%-12s %-9d %-10s %-10s %-10s %-10s %s\n",
				st.Stage, st.Count, fmtSec(st.P50), fmtSec(st.P90), fmtSec(st.P99), fmtSec(st.Max), ex)
		}
	}
	if compact || len(d.Shards) == 0 {
		return
	}
	fmt.Fprintf(w, "shards: %d  imbalance %.2fx (max/mean match cost)\n", len(d.Shards), d.Imbalance)
	fmt.Fprintf(w, "%-6s %-9s %-10s %-10s %s\n", "SHARD", "COUNT", "P50", "P99", "MAX")
	for _, sc := range d.Shards {
		fmt.Fprintf(w, "%-6d %-9d %-10s %-10s %s\n",
			sc.Shard, sc.Count, fmtSec(sc.P50), fmtSec(sc.P99), fmtSec(sc.Max))
	}
}

// runTop renders a refreshing lag-and-health view (ANSI clear-screen,
// like top). iterations bounds the refresh count for scripting and
// tests; 0 runs until SIGINT/SIGTERM.
func runTop(addr string, interval time.Duration, iterations int, w io.Writer) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for n := 0; ; n++ {
		var lag lagDump
		lagErr := fetchJSON(addr, "/debug/lag", &lag)
		var hd healthDump
		healthErr := fetchJSON(addr, "/healthz", &hd)
		var idx broker.IndexReport
		idxErr := fetchJSON(addr, "/debug/index", &idx)
		var slo sloDump
		sloErr := fetchJSON(addr, "/debug/slo", &slo)

		fmt.Fprint(w, "\x1b[2J\x1b[H")
		fmt.Fprintf(w, "pubsub-top  %s  %s\n\n", addr, time.Now().Format("15:04:05"))
		if healthErr != nil {
			fmt.Fprintf(w, "health: unreachable (%v)\n", healthErr)
		} else {
			fmt.Fprintf(w, "health: %s\n", hd.Status)
			for _, c := range hd.Components {
				line := fmt.Sprintf("  %s: %s", c.Component, c.State)
				if c.Reason != "" {
					line += " (" + c.Reason + ")"
				}
				fmt.Fprintln(w, line)
			}
		}
		fmt.Fprintln(w)
		if sloErr == nil {
			writeSLO(&slo, w, true)
			fmt.Fprintln(w)
		}
		if idxErr != nil {
			fmt.Fprintf(w, "index: unreachable (%v)\n", idxErr)
		} else {
			tree := idx.Shape.Algorithm
			if tree == "" {
				tree = "overlay only" // nothing packed before the first rebuild
			}
			fmt.Fprintf(w, "index: %s  subs=%d rects=%d overlay=%d stale=%d rebuilds=%d (last %.1fs ago)\n",
				tree, idx.Subscriptions, idx.Rectangles, idx.OverlayLen,
				idx.Stale, idx.Rebuilds, idx.SecondsSinceRebuild)
		}
		fmt.Fprintln(w)
		if lagErr != nil {
			fmt.Fprintf(w, "lag: unreachable (%v)\n", lagErr)
		} else {
			// Show the laggiest subscriptions first; cap the table so a
			// large fanout still fits a terminal.
			sort.SliceStable(lag.Subs, func(i, j int) bool {
				return lag.Subs[i].LagEvents > lag.Subs[j].LagEvents
			})
			const topN = 15
			truncated := 0
			if len(lag.Subs) > topN {
				truncated = len(lag.Subs) - topN
				lag.Subs = lag.Subs[:topN]
			}
			writeLag(&lag, w)
			if truncated > 0 {
				fmt.Fprintf(w, "  ... %d more subscription(s)\n", truncated)
			}
		}
		if iterations > 0 && n+1 >= iterations {
			return nil
		}
		select {
		case <-sig:
			return nil
		case <-time.After(interval):
		}
	}
}

// eventRecord mirrors one record of the /debug/events JSON dump.
type eventRecord struct {
	Time  time.Time        `json:"time"`
	Kind  string           `json:"kind"`
	Trace string           `json:"trace"`
	Seq   uint64           `json:"seq"`
	Args  map[string]int64 `json:"args"`
}

// eventDump mirrors the top-level /debug/events JSON object.
type eventDump struct {
	Capacity int           `json:"capacity"`
	Records  []eventRecord `json:"records"`
}

// formatEventArgs renders a record's arguments as " k=v ..." in the
// order its kind names them, which is pipeline order for stages; a kind
// this build does not know (a newer daemon) gets its keys sorted.
func formatEventArgs(kind string, args map[string]int64) string {
	var names []string
	if k, ok := telemetry.ParseKind(kind); ok {
		for _, name := range k.ArgNames() {
			if _, ok := args[name]; ok {
				names = append(names, name)
			}
		}
	} else {
		for name := range args {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, args[name])
	}
	return b.String()
}

// runEvents fetches a pubsubd /debug/events endpoint and prints the
// records as a timeline. traceID (hex, may be empty) narrows it to one
// publication's correlated records, relative-timed from the first.
func runEvents(addr, traceID, kind string, limit int, w io.Writer) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	q := url.Values{}
	if traceID != "" {
		q.Set("trace", traceID)
	}
	if kind != "" {
		q.Set("kind", kind)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	u := strings.TrimSuffix(base, "/") + "/debug/events"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	var dump eventDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("decoding %s: %w", u, err)
	}
	if traceID != "" {
		if len(dump.Records) == 0 {
			return fmt.Errorf("no records for trace %s (the ring holds %d records; old traces age out)", traceID, dump.Capacity)
		}
		fmt.Fprintf(w, "trace %s: %d record(s)\n", traceID, len(dump.Records))
		t0 := dump.Records[0].Time
		for _, rec := range dump.Records {
			fmt.Fprintf(w, "  %s +%-12s %-14s seq=%d%s\n",
				rec.Time.Format("15:04:05.000000"),
				rec.Time.Sub(t0).Round(time.Microsecond),
				rec.Kind, rec.Seq, formatEventArgs(rec.Kind, rec.Args))
		}
		return nil
	}
	fmt.Fprintf(w, "flight recorder: %d record(s), capacity %d\n", len(dump.Records), dump.Capacity)
	for _, rec := range dump.Records {
		trace := rec.Trace
		if trace == "" {
			trace = "-"
		}
		fmt.Fprintf(w, "  %s %-14s trace=%s seq=%d%s\n",
			rec.Time.Format("15:04:05.000000"), rec.Kind, trace, rec.Seq, formatEventArgs(rec.Kind, rec.Args))
	}
	return nil
}

// runStats fetches a pubsubd /metrics endpoint and pretty-prints it.
// addr may be host:port or a full http:// URL.
func runStats(addr string, w io.Writer) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return writeStats(resp.Body, w)
}

// histAcc accumulates one histogram family's exposition lines so it can
// be summarised as count/mean plus estimated tail quantiles. When the
// exposition carries the daemon's exact-extreme companion gauges
// (<name>_min/<name>_max) they are folded in, so quantile estimates
// clamp to values that were actually observed instead of bucket edges.
type histAcc struct {
	bounds         []float64 // upper bucket bounds, +Inf last
	counts         []float64 // cumulative counts, parallel to bounds
	sum            float64
	count          float64
	minV, maxV     float64
	hasMin, hasMax bool
}

// clamp pins an estimate inside the exactly-observed range when the
// exposition provided one; without extremes the estimate passes
// through unchanged (old daemons).
func (h *histAcc) clamp(v float64) float64 {
	if h.hasMin && v < h.minV {
		v = h.minV
	}
	if h.hasMax && v > h.maxV {
		v = h.maxV
	}
	return v
}

// quantile estimates q from the cumulative buckets by linear
// interpolation inside the covering bucket; the +Inf bucket reports
// the exact maximum when known, the largest finite bound otherwise.
func (h *histAcc) quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * h.count
	lo := 0.0
	var prev float64
	for i, c := range h.counts {
		if c >= target {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				if h.hasMax {
					return h.maxV
				}
				if i == 0 {
					return 0
				}
				return h.bounds[i-1]
			}
			inBucket := c - prev
			if inBucket <= 0 {
				return h.clamp(hi)
			}
			return h.clamp(lo + (hi-lo)*(target-prev)/inBucket)
		}
		prev = c
		if !math.IsInf(h.bounds[i], 1) {
			lo = h.bounds[i]
		}
	}
	return h.clamp(h.bounds[len(h.bounds)-1])
}

// writeStats parses Prometheus text exposition and renders one block per
// family: scalars as name = value, histograms as a one-line summary.
func writeStats(r io.Reader, w io.Writer) error {
	var (
		order      []string
		help       = map[string]string{}
		kind       = map[string]string{}
		scalars    = map[string][]string{}
		scalarVals = map[string][]float64{}
		hists      = map[string]*histAcc{}
	)
	inOrder := map[string]bool{}
	seen := func(name string) {
		if !inOrder[name] {
			inOrder[name] = true
			order = append(order, name)
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			restLine := strings.TrimPrefix(line, "# HELP ")
			name, h, _ := strings.Cut(restLine, " ")
			seen(name)
			help[name] = h
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			restLine := strings.TrimPrefix(line, "# TYPE ")
			name, k, _ := strings.Cut(restLine, " ")
			seen(name)
			kind[name] = k
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			continue
		}
		metric, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		name := metric
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) && kind[strings.TrimSuffix(name, s)] == "histogram" {
				base, suffix = strings.TrimSuffix(name, s), s
				break
			}
		}
		if suffix == "" {
			seen(name)
			scalars[name] = append(scalars[name], fmt.Sprintf("%s = %s", metric, valStr))
			scalarVals[name] = append(scalarVals[name], val)
			continue
		}
		h := hists[base]
		if h == nil {
			h = &histAcc{}
			hists[base] = h
		}
		switch suffix {
		case "_sum":
			h.sum = val
		case "_count":
			h.count = val
		case "_bucket":
			le := math.Inf(1)
			if i := strings.Index(metric, `le="`); i >= 0 {
				end := strings.IndexByte(metric[i+4:], '"')
				if end >= 0 {
					if b, err := strconv.ParseFloat(metric[i+4:i+4+end], 64); err == nil {
						le = b
					}
				}
			}
			h.bounds = append(h.bounds, le)
			h.counts = append(h.counts, val)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Fold the daemon's exact-extreme companion families (<hist>_min and
	// <hist>_max) into their base histogram so the summary line shows
	// observed extremes and quantiles stop clamping to bucket edges.
	// Across labeled samples the family-wide extreme is the min of mins
	// (resp. max of maxes). Old daemons without these families are
	// unaffected.
	folded := map[string]bool{}
	for _, name := range order {
		var isMax bool
		var base string
		switch {
		case strings.HasSuffix(name, "_min"):
			base = strings.TrimSuffix(name, "_min")
		case strings.HasSuffix(name, "_max"):
			base, isMax = strings.TrimSuffix(name, "_max"), true
		default:
			continue
		}
		h := hists[base]
		if kind[base] != "histogram" || h == nil || len(scalarVals[name]) == 0 {
			continue
		}
		for _, v := range scalarVals[name] {
			switch {
			case isMax && (!h.hasMax || v > h.maxV):
				h.maxV, h.hasMax = v, true
			case !isMax && (!h.hasMin || v < h.minV):
				h.minV, h.hasMin = v, true
			}
		}
		folded[name] = true
	}

	for _, name := range order {
		if folded[name] {
			continue
		}
		fmt.Fprintf(w, "%s  [%s]", name, orUntyped(kind[name]))
		if h := help[name]; h != "" {
			fmt.Fprintf(w, "  %s", h)
		}
		fmt.Fprintln(w)
		if h, ok := hists[name]; ok {
			sort.Sort(byBound{h})
			mean := 0.0
			if h.count > 0 {
				mean = h.sum / h.count
			}
			fmt.Fprintf(w, "  count=%g sum=%g mean=%g", h.count, h.sum, mean)
			if h.hasMin {
				fmt.Fprintf(w, " min=%g", h.minV)
			}
			fmt.Fprintf(w, " p50=%g p90=%g p99=%g",
				h.quantile(0.50), h.quantile(0.90), h.quantile(0.99))
			if h.hasMax {
				fmt.Fprintf(w, " max=%g", h.maxV)
			}
			fmt.Fprintln(w)
			continue
		}
		for _, line := range scalars[name] {
			fmt.Fprintf(w, "  %s\n", line)
		}
		if name == "pubsub_wal_flushes_total" {
			// The log's group-commit factor: how many appends one
			// write(2) carried, on average since the daemon started.
			if a, f := scalarVals["pubsub_wal_appends_total"], scalarVals[name]; len(a) == 1 && len(f) == 1 && f[0] > 0 {
				fmt.Fprintf(w, "  records/flush = %.1f\n", a[0]/f[0])
			}
		}
	}
	return nil
}

func orUntyped(k string) string {
	if k == "" {
		return "untyped"
	}
	return k
}

// byBound sorts a histogram's parallel bounds/counts slices by bound.
type byBound struct{ h *histAcc }

func (b byBound) Len() int           { return len(b.h.bounds) }
func (b byBound) Less(i, j int) bool { return b.h.bounds[i] < b.h.bounds[j] }
func (b byBound) Swap(i, j int) {
	b.h.bounds[i], b.h.bounds[j] = b.h.bounds[j], b.h.bounds[i]
	b.h.counts[i], b.h.counts[j] = b.h.counts[j], b.h.counts[i]
}

// ParseRect parses "lo:hi,lo:hi,..." with empty bounds meaning the
// corresponding infinity.
func ParseRect(spec string) (geometry.Rect, error) {
	parts := strings.Split(spec, ",")
	rect := make(geometry.Rect, len(parts))
	for i, p := range parts {
		bounds := strings.SplitN(p, ":", 2)
		if len(bounds) != 2 {
			return nil, fmt.Errorf("dimension %d: %q is not lo:hi", i, p)
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		var err error
		if bounds[0] != "" {
			if lo, err = parseNumber(bounds[0]); err != nil {
				return nil, fmt.Errorf("dimension %d lower bound: %w", i, err)
			}
		}
		if bounds[1] != "" {
			if hi, err = parseNumber(bounds[1]); err != nil {
				return nil, fmt.Errorf("dimension %d upper bound: %w", i, err)
			}
		}
		rect[i] = geometry.NewInterval(lo, hi)
		if rect[i].Empty() {
			return nil, fmt.Errorf("dimension %d: empty interval %q", i, p)
		}
	}
	return rect, nil
}

// ParsePoint parses "x1,x2,...".
func ParsePoint(spec string) (geometry.Point, error) {
	parts := strings.Split(spec, ",")
	point := make(geometry.Point, len(parts))
	for i, p := range parts {
		v, err := parseNumber(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("coordinate %d: %w", i, err)
		}
		point[i] = v
	}
	return point, nil
}

// parseNumber is strconv.ParseFloat without NaN, which no interval or
// point can hold.
func parseNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(v) {
		return 0, fmt.Errorf("%q is not a number", s)
	}
	return v, err
}

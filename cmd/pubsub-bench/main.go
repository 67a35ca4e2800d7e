// Command pubsub-bench regenerates every table and figure of the paper's
// evaluation section, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	pubsub-bench -exp all            # everything (slow)
//	pubsub-bench -exp fig6           # just the headline experiment
//	pubsub-bench -exp fig6 -quick    # reduced publication count
//
// Experiments: fig3, fig4, fig5, tbl1, fig6, abl-match, abl-skew,
// abl-branch, abl-cluster, abl-groups. The extra "bench" experiment is a
// broker publish-throughput run (not part of "all" — it measures wall
// clock, not paper artifacts); with -json it writes a machine-readable
// summary for trajectory tracking:
//
//	pubsub-bench -exp bench -json BENCH_publish.json
//
// The "scale" experiment sweeps subscription population (1k → 1M) ×
// shard count and records throughput, tail latency, allocs/op, and
// rebuild-settle time per cell:
//
//	pubsub-bench -exp scale -json BENCH_9.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	pubsub "repro"
	"repro/internal/experiment"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pubsub-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pubsub-bench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment id (fig3|fig4|fig5|tbl1|fig6|abl-match|abl-skew|abl-branch|abl-cluster|abl-groups|abl-mode|abl-grid|abl-publisher|abl-rule|bench|scale|all)")
		seed    = fs.Int64("seed", experiment.DefaultSeed, "random seed for all generators")
		pubs    = fs.Int("pubs", 10000, "publications per fig6 configuration")
		quick   = fs.Bool("quick", false, "reduce sizes for a fast smoke run")
		groups  = fs.Bool("groups", false, "fig6: also print the per-group breakdown at the best threshold")
		csvOut  = fs.String("csv", "", "fig6: additionally write the points as CSV to this file")
		jsonOut = fs.String("json", "", "bench: additionally write the summary (ops/sec, p50/p99) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		*pubs = 2000
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"fig3", "fig4", "fig5", "tbl1", "fig6", "abl-match", "abl-skew", "abl-branch", "abl-cluster", "abl-groups", "abl-mode", "abl-grid", "abl-publisher", "abl-rule"}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := runOne(id, *seed, *pubs, *quick, *groups, *csvOut, *jsonOut, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func runOne(id string, seed int64, pubs int, quick, groups bool, csvOut, jsonOut string, w io.Writer) error {
	switch id {
	case "bench":
		return runPublishBench(seed, pubs, jsonOut, w)
	case "scale":
		return runScaleBench(seed, pubs, quick, jsonOut, w)
	case "fig3":
		r, err := experiment.Fig3Topology(seed)
		if err != nil {
			return err
		}
		r.WriteTable(w)

	case "fig4":
		cfg := workload.DefaultTapeConfig()
		if quick {
			cfg.Trades = 10000
		}
		r, err := experiment.Fig4DataAnalysis(cfg, seed)
		if err != nil {
			return err
		}
		r.WriteTable(w)

	case "fig5":
		cfg := workload.DefaultTapeConfig()
		if quick {
			cfg.Trades = 10000
		}
		profiles, err := experiment.Fig5TopStocks(cfg, 3, seed)
		if err != nil {
			return err
		}
		experiment.WriteFig5Table(w, profiles)

	case "tbl1":
		rows, err := experiment.Tbl1Parameters(seed, 50000)
		if err != nil {
			return err
		}
		experiment.WriteTbl1(w, rows)

	case "fig6":
		modes := []int{1, 4, 9}
		if quick {
			modes = []int{9}
		}
		r, err := experiment.Fig6DistributionMethod(experiment.Fig6Config{
			Seed:         seed,
			Publications: pubs,
			Modes:        modes,
		})
		if err != nil {
			return err
		}
		r.WriteTable(w)
		if csvOut != "" {
			f, err := os.Create(csvOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := r.WriteCSV(f); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote CSV to %s\n", csvOut)
		}
		if groups {
			fmt.Fprintln(w)
			if err := experiment.WriteFig6GroupBreakdown(w, seed, pubs); err != nil {
				return err
			}
		}

	case "abl-match":
		cfg := experiment.MatchScaleConfig{Seed: seed}
		if quick {
			cfg.Ks = []int{1000, 5000}
			cfg.Ns = []int{2, 4}
			cfg.Queries = 500
		}
		points, err := experiment.AblMatchScaling(cfg)
		if err != nil {
			return err
		}
		experiment.WriteMatchScaling(w, points)

	case "abl-skew":
		points, err := experiment.AblStreeSkew(seed, nil)
		if err != nil {
			return err
		}
		experiment.WriteStreeParams(w, "abl-skew", points)

	case "abl-branch":
		points, err := experiment.AblStreeBranch(seed, nil)
		if err != nil {
			return err
		}
		experiment.WriteStreeParams(w, "abl-branch", points)

	case "abl-cluster":
		points, err := experiment.AblClusterAlgos(seed, 11)
		if err != nil {
			return err
		}
		experiment.WriteClusterAlgos(w, points)

	case "abl-mode":
		points, err := experiment.AblMulticastModes(seed, nil)
		if err != nil {
			return err
		}
		experiment.WriteMulticastModes(w, points)

	case "abl-grid":
		points, err := experiment.AblGridSensitivity(seed)
		if err != nil {
			return err
		}
		experiment.WriteGridSensitivity(w, points)

	case "abl-publisher":
		points, err := experiment.AblPublisherModels(seed, nil)
		if err != nil {
			return err
		}
		experiment.WritePublisherModels(w, points)

	case "abl-rule":
		points, err := experiment.AblDecisionRules(seed, nil)
		if err != nil {
			return err
		}
		experiment.WriteDecisionRules(w, points)

	case "abl-groups":
		points, err := experiment.AblGroupCounts(seed, nil, 0.10)
		if err != nil {
			return err
		}
		experiment.WriteGroupCounts(w, points)

	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// benchSummary is the machine-readable shape written by -json, intended
// for BENCH_*.json trajectory files accumulated across commits.
type benchSummary struct {
	Experiment    string  `json:"experiment"`
	Seed          int64   `json:"seed"`
	Subscriptions int     `json:"subscriptions"`
	Publications  int     `json:"publications"`
	ElapsedSec    float64 `json:"elapsed_seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	MeanMicros    float64 `json:"mean_us"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
	// AllocsPerOp is the mean heap allocations per publish over the
	// timed loop (runtime mallocs delta / publications). The snapshot
	// publish path is expected to hold this at ~0.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// DeliveryP50Micros/DeliveryP99Micros are end-to-end
	// publish-to-receive latencies through a full-space subscriber,
	// measured serially in a separate phase so they include matching,
	// dispatch, and the channel hand-off — the consumer-lag floor an
	// in-process subscriber can expect.
	DeliveryP50Micros float64 `json:"delivery_p50_us"`
	DeliveryP99Micros float64 `json:"delivery_p99_us"`
	// Stages decomposes publish latency per waterfall stage, measured
	// in a separate instrumented phase (the timed loop above runs
	// uninstrumented so throughput and allocs/op are undisturbed).
	Stages []stageMicros `json:"stages,omitempty"`
}

// stageMicros is one waterfall stage's tail in microseconds.
type stageMicros struct {
	Stage     string  `json:"stage"`
	Count     uint64  `json:"count"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
}

// runWaterfallPhase replays the bench workload through an instrumented
// twin broker and returns the per-stage latency decomposition in
// pipeline order.
func runWaterfallPhase(tb *experiment.Testbed, events []pubsub.Point, pubs int) ([]stageMicros, error) {
	reg := pubsub.NewMetricsRegistry()
	br := pubsub.NewBroker(pubsub.BrokerOptions{DefaultBuffer: 1, Metrics: reg})
	defer br.Close()
	for _, s := range tb.Subs {
		if _, err := br.Subscribe(s.Rect); err != nil {
			return nil, err
		}
	}
	for deadline := time.Now().Add(5 * time.Second); br.Stats().IndexRebuilds == 0; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("waterfall: index rebuild did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < pubs; i++ {
		if _, err := br.Publish(events[i%len(events)], nil); err != nil {
			return nil, err
		}
	}
	var out []stageMicros
	for _, st := range telemetry.StageReport(reg) {
		out = append(out, stageMicros{
			Stage:     st.Stage,
			Count:     st.Count,
			P50Micros: st.P50 * 1e6,
			P99Micros: st.P99 * 1e6,
		})
	}
	return out, nil
}

// runPublishBench times the embeddable broker's publish path against the
// paper's 1000-subscription testbed and reports throughput plus tail
// latency from the individual per-publish samples.
func runPublishBench(seed int64, pubs int, jsonOut string, w io.Writer) error {
	tb, err := experiment.NewTestbed(experiment.TestbedConfig{}, seed)
	if err != nil {
		return err
	}
	br := pubsub.NewBroker(pubsub.BrokerOptions{DefaultBuffer: 1})
	defer br.Close()
	for _, s := range tb.Subs {
		if _, err := br.Subscribe(s.Rect); err != nil {
			return err
		}
	}
	model, err := workload.StockPublications(9)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	events := make([]pubsub.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}

	// Let the background index rebuild fold the subscribe burst into the
	// packed base so the loop times the steady-state publish path.
	for deadline := time.Now().Add(5 * time.Second); br.Stats().IndexRebuilds == 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("index rebuild did not complete")
		}
		time.Sleep(time.Millisecond)
	}

	samples := make([]time.Duration, pubs)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < pubs; i++ {
		t0 := time.Now()
		if _, err := br.Publish(events[i%len(events)], nil); err != nil {
			return err
		}
		samples[i] = time.Since(t0)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(samples)-1))
		return float64(samples[idx].Nanoseconds()) / 1e3
	}

	// Delivery-lag phase: publish serially through a full-space
	// subscriber and block on the receive, so each sample spans
	// matching, dispatch, and the channel hand-off for exactly one
	// event. Runs after the timed loop so it cannot disturb the
	// throughput or allocation numbers above.
	deliveryPubs := pubs
	if deliveryPubs > 2000 {
		deliveryPubs = 2000
	}
	wide, err := br.SubscribeBuffered(16, pubsub.FullRect(len(events[0])))
	if err != nil {
		return err
	}
	delivery := make([]time.Duration, deliveryPubs)
	for i := range delivery {
		t0 := time.Now()
		if _, err := br.Publish(events[i%len(events)], nil); err != nil {
			return err
		}
		if _, ok := <-wide.Events(); !ok {
			return fmt.Errorf("delivery subscriber closed mid-measurement")
		}
		delivery[i] = time.Since(t0)
	}
	wide.Cancel()
	sort.Slice(delivery, func(i, j int) bool { return delivery[i] < delivery[j] })
	dQuantile := func(q float64) float64 {
		idx := int(q * float64(len(delivery)-1))
		return float64(delivery[idx].Nanoseconds()) / 1e3
	}
	// Waterfall phase: rerun the workload against an instrumented twin
	// broker so the per-stage histograms fill, then summarise them. A
	// separate broker keeps the timed loop above metrics-free — its
	// throughput and allocs/op numbers stay comparable across commits.
	stages, err := runWaterfallPhase(tb, events, deliveryPubs)
	if err != nil {
		return err
	}

	sum := benchSummary{
		Experiment:        "bench",
		Seed:              seed,
		Subscriptions:     len(tb.Subs),
		Publications:      pubs,
		ElapsedSec:        elapsed.Seconds(),
		OpsPerSec:         float64(pubs) / elapsed.Seconds(),
		MeanMicros:        float64(elapsed.Nanoseconds()) / float64(pubs) / 1e3,
		P50Micros:         quantile(0.50),
		P99Micros:         quantile(0.99),
		AllocsPerOp:       float64(ms1.Mallocs-ms0.Mallocs) / float64(pubs),
		DeliveryP50Micros: dQuantile(0.50),
		DeliveryP99Micros: dQuantile(0.99),
		Stages:            stages,
	}

	fmt.Fprintf(w, "broker publish benchmark (%d subscriptions, %d publications)\n",
		sum.Subscriptions, sum.Publications)
	fmt.Fprintf(w, "%12s %12s %10s %10s %12s %14s %14s\n",
		"ops/sec", "mean", "p50", "p99", "allocs/op", "delivery p50", "delivery p99")
	fmt.Fprintf(w, "%12.0f %10.1fus %8.1fus %8.1fus %12.3f %12.1fus %12.1fus\n",
		sum.OpsPerSec, sum.MeanMicros, sum.P50Micros, sum.P99Micros, sum.AllocsPerOp,
		sum.DeliveryP50Micros, sum.DeliveryP99Micros)
	if len(sum.Stages) > 0 {
		fmt.Fprintf(w, "latency waterfall (instrumented rerun, p50/p99 per stage):\n")
		for _, st := range sum.Stages {
			fmt.Fprintf(w, "%12s", st.Stage)
		}
		fmt.Fprintln(w)
		for _, st := range sum.Stages {
			if st.Count == 0 {
				fmt.Fprintf(w, "%12s", "-")
				continue
			}
			fmt.Fprintf(w, " %4.1f/%5.1fus", st.P50Micros, st.P99Micros)
		}
		fmt.Fprintln(w)
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote JSON summary to %s\n", jsonOut)
	}
	return nil
}

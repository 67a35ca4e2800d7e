package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	pubsub "repro"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// scaleCell is one (subscription count × shard count) measurement of
// the scale sweep.
type scaleCell struct {
	Subscriptions int     `json:"subscriptions"`
	Shards        int     `json:"shards"`
	SubscribeMs   float64 `json:"subscribe_ms"`
	// RebuildSettleMs is how long after the subscribe burst the
	// per-shard rebuilders took to fold every overlay into packed bases
	// and go idle — the time a cold broker needs before publishes run
	// at the steady-state numbers below.
	RebuildSettleMs float64 `json:"rebuild_settle_ms"`
	Publications    int     `json:"publications"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	P50Micros       float64 `json:"p50_us"`
	P99Micros       float64 `json:"p99_us"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
}

// scaleSummary is the machine-readable shape written by -json for the
// scale experiment (BENCH_9.json). GOMAXPROCS is recorded because the
// shard workers' win is a function of available cores: on a single-core
// runner none are started and the N=GOMAXPROCS column is 1 shard.
type scaleSummary struct {
	Experiment string      `json:"experiment"`
	Seed       int64       `json:"seed"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Cells      []scaleCell `json:"cells"`
}

// scaleSettled reports whether every shard's rebuilder is idle with no
// pending trigger: nothing rebuilding, overlays folded below the
// trigger thresholds, stale fraction low. The thresholds mirror the
// broker's defaults (MinOverlay 64, overlay > base/4, stale > base/2).
func scaleSettled(br *pubsub.Broker) bool {
	for _, st := range br.ShardStats() {
		if st.Rebuilding {
			return false
		}
		if st.OverlayLen > 64 && st.OverlayLen*4 > st.BaseLen {
			return false
		}
		if st.Stale > 0 && st.Stale*2 > st.BaseLen {
			return false
		}
	}
	return true
}

// runScaleCell measures one cell: subscribe burst, rebuild settle,
// then a time-boxed steady-state publish loop.
func runScaleCell(subs []workload.PlacedSubscription, shards, pubs int, budget time.Duration, events []pubsub.Point) (scaleCell, error) {
	cell := scaleCell{Subscriptions: len(subs), Shards: shards}
	br := pubsub.NewBroker(pubsub.BrokerOptions{DefaultBuffer: 1, Shards: shards})
	defer br.Close()

	t0 := time.Now()
	for _, s := range subs {
		if _, err := br.Subscribe(s.Rect); err != nil {
			return cell, err
		}
	}
	cell.SubscribeMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	t1 := time.Now()
	deadline := t1.Add(5 * time.Minute)
	for !scaleSettled(br) {
		if time.Now().After(deadline) {
			return cell, fmt.Errorf("%d subs / %d shards: rebuild never settled", len(subs), shards)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cell.RebuildSettleMs = float64(time.Since(t1).Nanoseconds()) / 1e6

	// Saturate the DropNewest buffers so the loop below times pure
	// match + drop, the same steady state bench_guard checks.
	if _, err := br.Publish(events[0], nil); err != nil {
		return cell, err
	}

	samples := make([]time.Duration, 0, pubs)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	stop := start.Add(budget)
	for i := 0; i < pubs; i++ {
		tp := time.Now()
		if _, err := br.Publish(events[i%len(events)], nil); err != nil {
			return cell, err
		}
		samples = append(samples, time.Since(tp))
		if i%256 == 0 && time.Now().After(stop) {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := func(p float64) float64 {
		idx := int(p * float64(len(samples)-1))
		return float64(samples[idx].Nanoseconds()) / 1e3
	}
	cell.Publications = len(samples)
	cell.OpsPerSec = float64(len(samples)) / elapsed.Seconds()
	cell.P50Micros = q(0.50)
	cell.P99Micros = q(0.99)
	cell.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(samples))
	return cell, nil
}

// runScaleBench sweeps subscription population × shard count and
// reports steady-state publish throughput, tail latency, allocation
// rate, and rebuild-settle time per cell.
func runScaleBench(seed int64, pubs int, quick bool, jsonOut string, w io.Writer) error {
	sizes := []int{1000, 10000, 100000, 1000000}
	budget := 3 * time.Second
	if quick {
		sizes = []int{1000, 10000}
		budget = 500 * time.Millisecond
	}
	procs := runtime.GOMAXPROCS(0)
	shardCounts := []int{1, 2, 4, procs}
	sort.Ints(shardCounts)
	uniq := shardCounts[:1]
	for _, n := range shardCounts[1:] {
		if n != uniq[len(uniq)-1] {
			uniq = append(uniq, n)
		}
	}
	shardCounts = uniq

	model, err := workload.StockPublications(9)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	events := make([]pubsub.Point, 1024)
	for i := range events {
		events[i] = model.Sample(rng)
	}

	sum := scaleSummary{Experiment: "scale", Seed: seed, GOMAXPROCS: procs}
	fmt.Fprintf(w, "broker scale sweep (GOMAXPROCS=%d, shard counts %v)\n", procs, shardCounts)
	fmt.Fprintf(w, "%10s %7s %12s %10s %10s %12s %12s\n",
		"subs", "shards", "ops/sec", "p50", "p99", "allocs/op", "settle")
	for _, size := range sizes {
		// One generated population per size, shared across shard counts
		// so the columns differ only in broker configuration.
		subCfg := workload.DefaultSubscriptionConfig()
		subCfg.Count = size
		tb, err := experiment.NewTestbed(experiment.TestbedConfig{Subscriptions: &subCfg}, seed)
		if err != nil {
			return err
		}
		for _, shards := range shardCounts {
			cell, err := runScaleCell(tb.Subs, shards, pubs, budget, events)
			if err != nil {
				return err
			}
			sum.Cells = append(sum.Cells, cell)
			fmt.Fprintf(w, "%10d %7d %12.0f %8.1fus %8.1fus %12.3f %10.1fms\n",
				cell.Subscriptions, cell.Shards, cell.OpsPerSec,
				cell.P50Micros, cell.P99Micros, cell.AllocsPerOp, cell.RebuildSettleMs)
			runtime.GC()
		}
		tb = nil
		runtime.GC()
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

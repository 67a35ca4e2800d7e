// Command bench is the repository's performance ledger: five workloads
// that each stress a different layer of the broker, end-to-end metrics
// measured with tracing off, per-layer metrics measured by timing calls
// into each layer's public functions, and an oracle that checks every
// delivery. See README.md in this directory.
//
// One run — one workload, one mode — is what the driver invokes:
//
//	bench --workload stock --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs every workload in both modes, --sets times
// over consecutive seeds, each run in a process of its own, and prints
// the repeatability table the bounds in BENCHMARK.json come from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var cfg config
	var traceFlag, sets int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (stock, selective, churn, wire, durable); empty runs them all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for trace files, result files and scratch data")
	flag.IntVar(&sets, "sets", 1, "with no --workload: how many full sets to run, on seeds seed..seed+sets-1")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if cfg.workload == "" {
		if err := runSets(cfg, sets); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	// One P: publisher and consumer take turns on one processor instead
	// of racing on two. On the two-vCPU sandbox a second P makes every
	// number depend on how the host schedules the pair, and run-to-run
	// spread doubles; the second vCPU is left to absorb the neighbours.
	// It also means one shard and sequential fan-out, the configuration
	// every earlier artifact of this repository was recorded in.
	runtime.GOMAXPROCS(1)
	res, notes, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{"env": environment(cfg.seed, cfg.seconds)})
	fmt.Println(string(env))
	for _, n := range notes {
		fmt.Println("# note:", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: outputs differ from the oracle")
		os.Exit(1)
	}
}

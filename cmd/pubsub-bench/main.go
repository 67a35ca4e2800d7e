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
// abl-branch, abl-cluster, abl-groups, abl-mode, abl-grid,
// abl-publisher, abl-rule. Broker throughput and latency are measured by
// the performance ledger (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
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
		exp    = fs.String("exp", "all", "experiment id (fig3|fig4|fig5|tbl1|fig6|abl-match|abl-skew|abl-branch|abl-cluster|abl-groups|abl-mode|abl-grid|abl-publisher|abl-rule|all)")
		seed   = fs.Int64("seed", experiment.DefaultSeed, "random seed for all generators")
		pubs   = fs.Int("pubs", 10000, "publications per fig6 configuration")
		quick  = fs.Bool("quick", false, "reduce sizes for a fast smoke run")
		groups = fs.Bool("groups", false, "fig6: also print the per-group breakdown at the best threshold")
		csvOut = fs.String("csv", "", "fig6: additionally write the points as CSV to this file")
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
		if err := runOne(id, *seed, *pubs, *quick, *groups, *csvOut, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func runOne(id string, seed int64, pubs int, quick, groups bool, csvOut string, w io.Writer) error {
	switch id {
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

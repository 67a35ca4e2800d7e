package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
)

// runRecord is one child run as stored in the results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// spread is how one end-to-end metric repeated over the sets.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	IQR      float64 `json:"iqr_over_median"`
	Range    float64 `json:"range_over_median"`
	Bound    float64 `json:"suggested_bound"`
}

// The bound a metric gets is three times its observed interquartile
// spread — so that the spread stays under a third of the bound — and
// never outside these limits.
const (
	minBound = 0.05
	maxBound = 0.25
)

// runSets runs every workload in both modes, sets times, each run in a
// child process exactly as the driver would start it, then prints how
// each end-to-end metric repeated and writes everything to
// <out>/results.json.
func runSets(cfg config, sets int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	var runs []runRecord
	for _, sp := range specs {
		for k := 0; k < sets; k++ {
			for _, trace := range []int{0, 1} {
				if trace == 1 && k > 0 {
					continue // per-layer metrics have no bound to derive; one traced run per workload
				}
				seed := cfg.seed + int64(k)
				rec := runRecord{Workload: sp.name, Seed: seed, Trace: trace}
				cmd := exec.Command(self,
					"--workload", sp.name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
					"--trace", strconv.Itoa(trace), "--out", cfg.out)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d trace %d: %w", sp.name, seed, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
					return fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", sp.name, seed, trace, err)
				}
				fmt.Fprintf(os.Stderr, "%-10s seed %-4d trace %d: correct=%v failed=%d/%d\n",
					sp.name, seed, trace, rec.Correct, rec.Failed, rec.Attempted)
				runs = append(runs, rec)
			}
		}
	}

	var spreads []spread
	for _, sp := range specs {
		values := map[string][]float64{}
		units := map[string]string{}
		for _, r := range runs {
			if r.Workload != sp.name || r.Trace != 0 {
				continue
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[name]
			q1, q2, q3 := quartiles(vs)
			iqr := ratio(q3-q1, q2)
			spreads = append(spreads, spread{
				Workload: sp.name, Metric: name, Unit: units[name],
				Median: q2, Q1: q1, Q3: q3,
				IQR:   iqr,
				Range: ratio(slices.Max(vs)-slices.Min(vs), q2),
				Bound: math.Min(maxBound, math.Max(minBound, math.Ceil(3*iqr*100)/100)),
			})
		}
	}

	fmt.Printf("| workload | metric | median | Q1 | Q3 | IQR/median | (max-min)/median | bound |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|\n")
	for _, s := range spreads {
		fmt.Printf("| %s | %s (%s) | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.2f |\n",
			s.Workload, s.Metric, s.Unit, s.Median, s.Q1, s.Q3, 100*s.IQR, 100*s.Range, s.Bound)
	}

	// A struct, not a map: the file ends with the claim, which is none.
	summary := struct {
		Env     envRecord   `json:"env"`
		Sets    int         `json:"sets"`
		Runs    []runRecord `json:"runs"`
		Spreads []spread    `json:"spreads"`
		Claim   *string     `json:"claim"`
	}{environment(cfg.seed, cfg.seconds), sets, runs, spreads, nil}
	blob, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n\"claim\": null\n", path)
	return nil
}

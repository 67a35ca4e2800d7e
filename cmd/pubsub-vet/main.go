// Command pubsub-vet is the project's vet driver: it runs the stock go
// vet suite followed by the project-specific analyzers from
// internal/analysis, each scoped to the packages where its invariant
// applies.
//
// Usage:
//
//	go run ./cmd/pubsub-vet ./...
//	go run ./cmd/pubsub-vet -json
//	go run ./cmd/pubsub-vet -list
//
// The package patterns are forwarded to the stock go vet invocation;
// the custom analyzers always cover the whole module. The command exits
// non-zero when either stage reports a diagnostic, so it can gate CI.
// Intentional violations are waived in source with
//
//	//pubsub:allow <analyzer>[,<analyzer>] -- reason
//
// -json emits one JSON object per custom-analyzer finding — including
// waived ones, flagged as such — for tooling, and skips the stock vet
// pass; waived findings never affect the exit status. -list prints the
// analyzer roster. The command also reports, under the pseudo-analyzer
// "directive", malformed //pubsub: comments, misplaced
// hotpath/coldpath/commit marks, and //pubsub:allow waivers that no
// longer suppress anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/allocfree"
	"repro/internal/analysis/load"
	"repro/internal/analysis/locksafe"
	"repro/internal/analysis/nodeterm"
	"repro/internal/analysis/walorder"
	"repro/internal/analysis/wireerr"
)

// scope restricts an analyzer to the packages (and optionally files)
// where its invariant holds. A nil packages set means the whole module;
// a non-nil files set further restricts to base filenames within the
// listed packages.
type scope struct {
	analyzer *analysis.Analyzer
	packages map[string]bool            // import path -> in scope (nil = all)
	files    map[string]map[string]bool // import path -> base filename set (nil = all files)
}

// scopes defines where each analyzer runs:
//
//   - locksafe guards the concurrent server and durability paths:
//     broker, wire and wal.
//   - nodeterm guards the deterministic simulation path: the workload,
//     experiment and topology packages, plus the simulation harness in
//     the root package (sim.go only — the rest of the root package is
//     the public API, which may touch time freely).
//   - wireerr is module-wide.
//   - allocfree and walorder are module-level (interprocedural):
//     allocfree proves //pubsub:hotpath roots allocation-free over the
//     call graph; walorder checks sync-before-ack ordering in packages
//     that declare a durability File interface or a commit point.
var scopes = []scope{
	{
		analyzer: locksafe.Analyzer,
		packages: map[string]bool{
			"repro/internal/broker": true,
			"repro/internal/wire":   true,
			"repro/internal/wal":    true,
		},
	},
	{
		analyzer: nodeterm.Analyzer,
		packages: map[string]bool{
			"repro":                     true,
			"repro/internal/workload":   true,
			"repro/internal/experiment": true,
			"repro/internal/topology":   true,
		},
		files: map[string]map[string]bool{
			"repro": {"sim.go": true},
		},
	},
	{analyzer: wireerr.Analyzer},
	{analyzer: allocfree.Analyzer},
	{analyzer: walorder.Analyzer},
}

// knownAnalyzers is the waiver namespace: a //pubsub:allow naming
// anything else is reported as a broken waiver.
func knownAnalyzers() map[string]bool {
	known := map[string]bool{}
	for _, sc := range scopes {
		known[sc.analyzer.Name] = true
	}
	return known
}

// fileSubset presents a subset of a package's files as an
// analysis.Target, so per-file scoping stays a driver concern.
type fileSubset struct {
	*load.Package
	names map[string]bool // base filenames to keep
}

func (s fileSubset) ASTFiles() []*ast.File {
	var out []*ast.File
	for _, f := range s.Package.Files {
		name := filepath.Base(s.Package.Fset.Position(f.Package).Filename)
		if s.names[name] {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding (including waived) on stdout")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Parse()

	if *list {
		for _, sc := range scopes {
			fmt.Printf("%-12s %s\n", sc.analyzer.Name, sc.analyzer.Doc)
		}
		return
	}

	status := 0
	if !*jsonOut {
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "pubsub-vet: running go vet: %v\n", err)
			}
			status = 1
		}
	}

	res, err := runAnalyzers(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-vet: %v\n", err)
		os.Exit(2)
	}
	var n int
	if *jsonOut {
		n, err = res.writeJSON(os.Stdout)
	} else {
		n, err = res.writeText(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-vet: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "pubsub-vet: %d diagnostic(s)\n", n)
		status = 1
	}
	os.Exit(status)
}

// vetResult is the full outcome of a module analyzer run: every finding
// (waived included), plus what's needed to render positions.
type vetResult struct {
	root     string
	fset     *token.FileSet
	findings []analysis.Finding
}

// writeText prints unwaived findings in go vet style and returns their
// count.
func (r *vetResult) writeText(w io.Writer) (int, error) {
	n := 0
	for _, f := range r.findings {
		if f.Waived {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s: %s\n", relPosition(r.root, r.fset, f.Pos), f.Message); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// jsonFinding is the one-per-line JSON shape of a finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
}

// writeJSON prints every finding as one JSON object per line and
// returns the number of unwaived ones (the failure count).
func (r *vetResult) writeJSON(w io.Writer) (int, error) {
	enc := json.NewEncoder(w)
	n := 0
	for _, f := range r.findings {
		p := r.fset.Position(f.Pos)
		file := p.Filename
		if rel, err := filepath.Rel(r.root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		if err := enc.Encode(jsonFinding{
			File:     file,
			Line:     p.Line,
			Col:      p.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
			Waived:   f.Waived,
		}); err != nil {
			return n, err
		}
		if !f.Waived {
			n++
		}
	}
	return n, nil
}

// runAnalyzers loads the module enclosing startDir and applies every
// scoped analyzer with a shared, module-wide suppression table. The
// result carries all findings: analyzer diagnostics (waived or not) and
// "directive" findings for malformed //pubsub: comments, misplaced
// marks, and waivers that suppressed nothing.
func runAnalyzers(startDir string) (*vetResult, error) {
	loader, err := load.NewLoader(startDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.All()
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages found under %s", loader.ModuleRoot)
	}
	res := &vetResult{root: loader.ModuleRoot, fset: pkgs[0].Fset}

	directive := func(d analysis.Diagnostic) {
		res.findings = append(res.findings, analysis.Finding{Analyzer: "directive", Diagnostic: d})
	}

	// One suppression table and one mark table across the whole module,
	// so cross-package analyzers see every waiver and usage tracking
	// spans the full run.
	sup := analysis.NewSuppressions()
	marks := analysis.NewMarks()
	for _, pkg := range pkgs {
		for _, d := range sup.Collect(pkg.Fset, pkg.Files) {
			directive(d)
		}
		marks.Collect(pkg.Fset, pkg.Files, pkg.Info)
	}
	for _, d := range marks.Bad {
		directive(d)
	}

	for _, sc := range scopes {
		var targets []analysis.Target
		for _, pkg := range pkgs {
			if sc.packages != nil && !sc.packages[pkg.Path] {
				continue
			}
			var t analysis.Target = pkg
			if names := sc.files[pkg.Path]; names != nil {
				t = fileSubset{Package: pkg, names: names}
			}
			targets = append(targets, t)
		}
		findings, err := analysis.RunWith(sup, targets, sc.analyzer)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.analyzer.Name, err)
		}
		res.findings = append(res.findings, findings...)
	}

	// Only meaningful after every analyzer has recorded its waiver hits.
	for _, d := range sup.Unused(knownAnalyzers()) {
		directive(d)
	}

	sort.SliceStable(res.findings, func(i, j int) bool {
		return res.findings[i].Pos < res.findings[j].Pos
	})
	return res, nil
}

// relPosition renders pos with the file path relative to the module
// root, matching go vet's output style.
func relPosition(root string, fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	if rel, err := filepath.Rel(root, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		p.Filename = rel
	}
	return p.String()
}

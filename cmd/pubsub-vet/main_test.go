package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestModuleIsVetClean is the acceptance check for the analyzer suite:
// the module must carry zero unsuppressed diagnostics under the full
// analyzer set — including the allocation-freedom proof of every
// //pubsub:hotpath root and the directive hygiene checks (no malformed
// marks, no stale waivers).
func TestModuleIsVetClean(t *testing.T) {
	res, err := runAnalyzers(".")
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	var buf strings.Builder
	n, err := res.writeText(&buf)
	if err != nil {
		t.Fatalf("writeText: %v", err)
	}
	if n != 0 {
		t.Errorf("module has %d unsuppressed diagnostic(s):\n%s", n, buf.String())
	}
}

// TestHotPathIsProvenAllocFree pins the PR's headline guarantee: the
// allocfree analyzer runs over the module and never needs a waiver —
// the zero-alloc publish path is proven, not excused.
func TestHotPathIsProvenAllocFree(t *testing.T) {
	res, err := runAnalyzers(".")
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	for _, f := range res.findings {
		if f.Analyzer == "allocfree" {
			p := res.fset.Position(f.Pos)
			t.Errorf("allocfree finding (waived=%v) at %s: %s", f.Waived, p, f.Message)
		}
	}
}

// TestAnalyzerRoster pins the registered analyzer set. A new analyzer
// must be added here deliberately; losing one silently would hollow out
// the CI gate.
func TestAnalyzerRoster(t *testing.T) {
	want := []string{
		"locksafe", "nodeterm", "wireerr", "allocfree", "walorder",
	}
	if len(scopes) != len(want) {
		t.Fatalf("scopes has %d analyzers, want %d", len(scopes), len(want))
	}
	for i, name := range want {
		if got := scopes[i].analyzer.Name; got != name {
			t.Errorf("scopes[%d] = %s, want %s", i, got, name)
		}
	}
	known := knownAnalyzers()
	for _, name := range want {
		if !known[name] {
			t.Errorf("knownAnalyzers missing %s", name)
		}
	}
}

// TestJSONOutput checks the -json shape: one object per line, every
// finding present (waived included), with file/line/analyzer/message
// fields, and the returned count covering only unwaived findings.
func TestJSONOutput(t *testing.T) {
	res, err := runAnalyzers(".")
	if err != nil {
		t.Fatalf("runAnalyzers: %v", err)
	}
	var buf strings.Builder
	n, err := res.writeJSON(&buf)
	if err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	if n != 0 {
		t.Errorf("unwaived count = %d, want 0 on a clean module", n)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if buf.Len() == 0 {
		lines = nil
	}
	if len(lines) != len(res.findings) {
		t.Fatalf("JSON lines = %d, want one per finding (%d)", len(lines), len(res.findings))
	}
	sawWaived := false
	for _, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("unmarshal %q: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if strings.HasPrefix(f.File, "/") {
			t.Errorf("file %q not relative to the module root", f.File)
		}
		if !strings.HasPrefix(f.Message, f.Analyzer+":") {
			t.Errorf("message %q does not carry the %s prefix", f.Message, f.Analyzer)
		}
		if f.Waived {
			sawWaived = true
		}
	}
	// The module carries intentional, documented waivers (bounded waits
	// in wire, timing measurements in ablations); -json must surface
	// them rather than hide them.
	if !sawWaived {
		t.Error("expected at least one waived finding in JSON output")
	}
}

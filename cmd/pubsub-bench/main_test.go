package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	tests := []struct {
		exp  string
		want string
	}{
		{exp: "fig3", want: "Figure 3"},
		{exp: "tbl1", want: "parameter table"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var sb strings.Builder
			if err := run([]string{"-exp", tt.exp}, &sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), tt.want) {
				t.Errorf("output missing %q", tt.want)
			}
		})
	}
}

func TestRunQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var sb strings.Builder
	if err := run([]string{"-exp", "fig4,fig5", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Errorf("missing figures in: %.200s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	for _, id := range []string{"fig99", "bench", "scale"} {
		if err := run([]string{"-exp", id}, &sb); err == nil {
			t.Errorf("unknown experiment %q accepted", id)
		}
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

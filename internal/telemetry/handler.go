package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteProm renders every family in the Prometheus text exposition
// format (version 0.0.4). Histogram families with at least one
// observation are followed by companion <name>_min and <name>_max
// gauge families carrying the exact observed extremes (histogram
// exposition has no native min/max slot).
func (r *Registry) WriteProm(w io.Writer) error {
	return r.writeProm(w, false)
}

// WriteOpenMetrics renders the same exposition with OpenMetrics
// exemplar annotations: histogram bucket lines whose bucket holds a
// traced observation carry a trailing
// "# {trace_id=\"<16 hex>\"} <value> <unix seconds>" exemplar, and the
// output ends with the OpenMetrics "# EOF" terminator. Only clients
// that negotiate application/openmetrics-text get this form; the
// default scrape stays plain 0.0.4 text so parsers that reject
// exemplars are unaffected.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeProm(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeProm(w io.Writer, exemplars bool) error {
	for _, f := range r.Gather() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, escapeHelp(f.Help), f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if f.Kind != KindHistogram {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, s.LabelString, formatFloat(s.Value)); err != nil {
					return err
				}
				continue
			}
			if err := writePromHistogram(w, f.Name, s, exemplars); err != nil {
				return err
			}
		}
		if f.Kind == KindHistogram {
			if err := writePromExtremes(w, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromExtremes renders the <name>_min / <name>_max companion
// gauge families for every non-empty sample of a histogram family.
// Samples with zero observations are skipped (no extremes exist), and
// when every sample is empty the families are omitted entirely.
func writePromExtremes(w io.Writer, f Family) error {
	any := false
	for _, s := range f.Samples {
		if s.Hist != nil && s.Hist.Count > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	for _, suffix := range []string{"_min", "_max"} {
		what := "minimum"
		if suffix == "_max" {
			what = "maximum"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s%s Exact observed %s of %s.\n# TYPE %s%s gauge\n",
			f.Name, suffix, what, f.Name, f.Name, suffix); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if s.Hist == nil || s.Hist.Count == 0 {
				continue
			}
			v := s.Hist.Min
			if suffix == "_max" {
				v = s.Hist.Max
			}
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.Name, suffix, s.LabelString, formatFloat(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram sample with cumulative
// le-buckets, _sum and _count, merging the sample's own labels with le.
// With exemplars enabled, a bucket line whose (non-cumulative) bucket
// holds a traced observation gets the OpenMetrics exemplar suffix.
func writePromHistogram(w io.Writer, name string, s Sample, exemplars bool) error {
	h := s.Hist
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatFloat(h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d", name, mergeLabels(s.Labels, Label{Key: "le", Value: le}), cum); err != nil {
			return err
		}
		if exemplars && i < len(h.Exemplars) && h.Exemplars[i].TraceID != 0 {
			e := h.Exemplars[i]
			if _, err := fmt.Fprintf(w, " # {trace_id=\"%s\"} %s %s",
				FormatTraceID(e.TraceID), formatFloat(e.Value),
				strconv.FormatFloat(float64(e.TimestampNS)/1e9, 'f', 3, 64)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.LabelString, formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.LabelString, h.Count)
	return err
}

func mergeLabels(labels []Label, extra Label) string {
	merged := make([]Label, 0, len(labels)+1)
	merged = append(merged, labels...)
	merged = append(merged, extra)
	return labelString(merged)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// jsonHistogram is the JSON rendering of one histogram sample.
type jsonHistogram struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets map[string]uint64 `json:"buckets"`
}

// WriteJSON renders every family as one expvar-style JSON object:
// sample keys are "name{labels}", counter/gauge values are numbers and
// histograms are objects carrying count, sum and estimated quantiles.
func (r *Registry) WriteJSON(w io.Writer) error {
	obj := make(map[string]any)
	for _, f := range r.Gather() {
		for _, s := range f.Samples {
			key := f.Name + s.LabelString
			if f.Kind != KindHistogram {
				obj[key] = s.Value
				continue
			}
			h := s.Hist
			jh := jsonHistogram{
				Count:   h.Count,
				Sum:     h.Sum,
				Mean:    h.Mean(),
				Min:     h.Min,
				Max:     h.Max,
				P50:     h.Quantile(0.50),
				P90:     h.Quantile(0.90),
				P99:     h.Quantile(0.99),
				Buckets: make(map[string]uint64, len(h.Counts)),
			}
			for i, c := range h.Counts {
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatFloat(h.Bounds[i])
				}
				jh.Buckets[le] = c
			}
			obj[key] = jh
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// Handler serves the registry: Prometheus text by default, expvar-style
// JSON when the request asks for it (?format=json or an Accept header
// preferring application/json), and OpenMetrics with exemplars when the
// scraper negotiates application/openmetrics-text (or ?format=openmetrics).
// Mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantsJSON(req) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = r.WriteJSON(w)
			return
		}
		if wantsOpenMetrics(req) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}

func wantsJSON(req *http.Request) bool {
	if req.URL.Query().Get("format") == "json" {
		return true
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "application/json") && !strings.Contains(accept, "text/plain")
}

func wantsOpenMetrics(req *http.Request) bool {
	if req.URL.Query().Get("format") == "openmetrics" {
		return true
	}
	return strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text")
}

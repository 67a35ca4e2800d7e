package telemetry

import "sort"

// StageFamily is the shared histogram family for the publication
// latency waterfall. Every pipeline stage — broker-side (wal, ingest,
// match, enqueue) and wire-side (write, client_recv) — registers one
// labelled sample in this family so a single scrape (or /debug/slo)
// shows the whole p99 decomposition side by side.
const StageFamily = "pubsub_stage_seconds"

// Waterfall stage label values, ordered by pipeline position. The
// order is what pubsub-cli slo and pubsub-bench print; keep new
// stages in pipeline order.
var StageOrder = []string{
	StageWAL,        // durable brokers only: publish entry → Log.Append returned
	StageIngest,     // → fan-out start (closed check, seq, lag head; the append is the wal stage)
	StageMatch,      // index walks, summed over parts
	StageEnqueue,    // subscriber queue hand-offs, summed over parts
	StageWrite,      // one event frame onto a client socket
	StageClientRecv, // client: own publish → event received (loopback only)
}

// The broker's stages mean the same on every path — an index in one
// part or many, parts run by the publisher or by part workers,
// whichever tree is packed; a durable broker adds wal in front and
// emits the other three unchanged. Because match and enqueue are sums
// of per-part times, with workers they can add up to more than the
// publication's wall-clock latency.
const (
	StageWAL        = "wal"
	StageIngest     = "ingest"
	StageMatch      = "match"
	StageEnqueue    = "enqueue"
	StageWrite      = "write"
	StageClientRecv = "client_recv"

	// StageFanout is retired: it was the worker path's fused
	// match+enqueue stage and nothing emits it any more. The name stays
	// because the performance ledger still asks for it (and reads 0).
	StageFanout = "fanout"
)

// StageHistogram registers (or fetches) the waterfall sample for one
// stage. Centralised here so every package registers the family with
// identical help text and buckets — the registry panics on bucket
// mismatches within a family.
func StageHistogram(r *Registry, stage string) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(StageFamily,
		"Publication latency waterfall: seconds spent per pipeline stage, with trace-id exemplars per bucket.",
		LatencyBuckets(), L("stage", stage))
}

// StageStat is one waterfall stage's tail summary, rendered by
// /debug/slo, pubsub-cli slo and pubsub-bench.
type StageStat struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
	// ExemplarTrace is the hex trace id from the highest-latency
	// non-empty bucket — the pivot into `pubsub-cli trace <id>`.
	ExemplarTrace   string  `json:"exemplar_trace,omitempty"`
	ExemplarSeconds float64 `json:"exemplar_seconds,omitempty"`
}

// StageReport summarises every registered waterfall stage in pipeline
// order (StageOrder first, unknown stages after). Stages that were
// never registered are absent; registered-but-unhit stages report
// Count 0 so a reader can tell "path not taken" from "not wired".
func StageReport(r *Registry) []StageStat {
	var out []StageStat
	for _, f := range r.Gather() {
		if f.Name != StageFamily {
			continue
		}
		for _, s := range f.Samples {
			if s.Hist == nil {
				continue
			}
			st := StageStat{
				Count: s.Hist.Count,
				P50:   s.Hist.Quantile(0.50),
				P90:   s.Hist.Quantile(0.90),
				P99:   s.Hist.Quantile(0.99),
			}
			if s.Hist.Count > 0 {
				st.Max = s.Hist.Max
			}
			for _, l := range s.Labels {
				if l.Key == "stage" {
					st.Stage = l.Value
				}
			}
			if e, ok := s.Hist.TopExemplar(); ok {
				st.ExemplarTrace = FormatTraceID(e.TraceID)
				st.ExemplarSeconds = e.Value
			}
			out = append(out, st)
		}
	}
	rank := func(stage string) int {
		for i, s := range StageOrder {
			if s == stage {
				return i
			}
		}
		return len(StageOrder)
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i].Stage) < rank(out[j].Stage) })
	return out
}

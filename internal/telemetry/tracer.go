package telemetry

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// Tracer samples publications 1 in N: the broker traces a sampled
// publication in the flight recorder as it traces a wire-crossing one,
// then Log writes it as one log/slog event rendered from those records.
// A nil *Tracer samples nothing.
type Tracer struct {
	logger *slog.Logger
	every  uint64
	n      atomic.Uint64
	traces atomic.Uint64
}

// NewTracer builds a tracer that logs every sampleEvery-th publication
// to logger at level Info. A nil logger or sampleEvery < 1 returns nil,
// the disabled tracer.
func NewTracer(logger *slog.Logger, sampleEvery int) *Tracer {
	if logger == nil || sampleEvery < 1 {
		return nil
	}
	return &Tracer{logger: logger, every: uint64(sampleEvery)}
}

// Traces reports how many publications this tracer has logged.
func (t *Tracer) Traces() uint64 {
	if t == nil {
		return 0
	}
	return t.traces.Load()
}

// Sample reports, at the cost of one atomic add, whether the
// publication about to start is one of the 1 in N this tracer logs.
//
//pubsub:hotpath
func (t *Tracer) Sample() bool {
	return t != nil && t.n.Add(1)%t.every == 0
}

// Log writes one sampled publication as one slog event, msg "publish":
// its trace id, the error that refused it if one did, and its records
// in r under their kind names, with the argument names /debug/events
// uses. A kind recorded several times (deliver, drop) is a list, so no
// key repeats.
//
//pubsub:coldpath -- sampled publications only: renders one trace's records into one log event
func (t *Tracer) Log(r *Recorder, traceID uint64, err error) {
	if t == nil {
		return
	}
	recs := r.SnapshotFilter(traceID, KindNone, 0)
	attrs := []slog.Attr{slog.String("trace_id", FormatTraceID(traceID))}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	var byKind [numKinds][]map[string]int64
	for _, rec := range recs {
		byKind[rec.Kind] = append(byKind[rec.Kind], toJSON(rec).Args)
	}
	for _, rec := range recs { // kinds in the order they first appear
		switch args := byKind[rec.Kind]; len(args) {
		case 0:
			continue // rendered at its first record
		case 1:
			attrs = append(attrs, slog.Any(rec.Kind.String(), args[0]))
		default:
			attrs = append(attrs, slog.Any(rec.Kind.String(), args))
		}
		byKind[rec.Kind] = nil
	}
	t.traces.Add(1)
	t.logger.LogAttrs(context.Background(), slog.LevelInfo, "publish", attrs...)
}

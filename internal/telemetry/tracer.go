package telemetry

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer samples publications and records their per-stage timings
// (match → decide → deliver) as structured log/slog events. Sampling is
// 1-in-N by a sharded counter, so the unsampled hot path costs one
// atomic add and zero allocations; a nil *Tracer disables tracing
// entirely (the Start fast path is then a single nil check, with no
// time.Now call). Sampled spans are pooled, so steady-state tracing
// does not grow the heap either.
type Tracer struct {
	logger *slog.Logger
	level  slog.Level
	every  uint64
	n      atomic.Uint64
	traces atomic.Uint64
}

// NewTracer builds a tracer that emits every sampleEvery-th started
// trace to logger at level Info. A nil logger or sampleEvery < 1
// returns nil — the disabled tracer.
func NewTracer(logger *slog.Logger, sampleEvery int) *Tracer {
	if logger == nil || sampleEvery < 1 {
		return nil
	}
	return &Tracer{logger: logger, level: slog.LevelInfo, every: uint64(sampleEvery)}
}

// Traces reports how many spans this tracer has emitted.
func (t *Tracer) Traces() uint64 {
	if t == nil {
		return 0
	}
	return t.traces.Load()
}

// spanAttrCap is the attribute/stage capacity preallocated per pooled
// span, sized so typical publish spans (≤ 8 attributes, ≤ 4 stages)
// never grow their slices.
const spanAttrCap = 8

// spanPool recycles spans between End and the next sampled Start, so a
// steadily-sampling tracer reaches a fixed working set instead of
// allocating one span plus two attr slices per sample.
var spanPool = sync.Pool{
	New: func() any {
		return &Span{
			stages: make([]slog.Attr, 0, spanAttrCap),
			attrs:  make([]slog.Attr, 0, spanAttrCap+4),
		}
	},
}

// Start begins a publication trace, or returns nil when this
// publication is not sampled. All Span methods are safe on a nil
// receiver, so callers thread the possibly-nil span unconditionally.
func (t *Tracer) Start(name string) *Span {
	return t.StartWith(name, 0)
}

// StartWith is Start with an explicit trace id correlating the span
// with flight-recorder records and remote spans for the same
// publication. A zero id leaves the span uncorrelated.
func (t *Tracer) StartWith(name string, traceID uint64) *Span {
	if t == nil {
		return nil
	}
	if t.n.Add(1)%t.every != 0 {
		return nil
	}
	s := spanPool.Get().(*Span)
	s.t, s.name, s.traceID, s.start = t, name, traceID, time.Now()
	return s
}

// Span is one sampled publication trace: a set of stage durations plus
// scalar attributes, emitted as a single structured event on End. The
// zero stage list is legal (attributes only). Spans are pooled: a span
// must not be used after End.
type Span struct {
	t       *Tracer
	name    string
	traceID uint64
	start   time.Time
	stages  []slog.Attr
	attrs   []slog.Attr
}

// TraceID returns the correlation id the span was started with (0 when
// uncorrelated or the span is nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SetTraceID attaches a correlation id after the fact — used when the
// id is assigned downstream of Start (e.g. at broker ingest).
func (s *Span) SetTraceID(id uint64) {
	if s == nil {
		return
	}
	s.traceID = id
}

// Stage records one named stage duration (e.g. "match", "enqueue").
func (s *Span) Stage(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.stages = append(s.stages, slog.Duration(name, d))
}

// Int attaches an integer attribute.
func (s *Span) Int(key string, v int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, slog.Int(key, v))
}

// Uint64 attaches an unsigned attribute.
func (s *Span) Uint64(key string, v uint64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, slog.Uint64(key, v))
}

// Float attaches a float attribute.
func (s *Span) Float(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, slog.Float64(key, v))
}

// Str attaches a string attribute.
func (s *Span) Str(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, slog.String(key, v))
}

// End emits the span as one slog event carrying the trace id (when
// set), the total duration, the attributes, and a "stages" group with
// the per-stage durations, then returns the span to the pool. The
// pooled backing arrays are reused; slog handlers must not retain the
// attr slice past Handle (the slog contract), which ours do not.
//
//pubsub:coldpath -- sampled tracing: spans exist only for traced publications, never on the untraced steady state
func (s *Span) End() {
	if s == nil {
		return
	}
	attrs := s.attrs
	if s.traceID != 0 {
		attrs = append(attrs, slog.String("trace_id", FormatTraceID(s.traceID)))
	}
	attrs = append(attrs, slog.Duration("total", time.Since(s.start)))
	if len(s.stages) > 0 {
		attrs = append(attrs, slog.Attr{Key: "stages", Value: slog.GroupValue(s.stages...)})
	}
	s.t.traces.Add(1)
	s.t.logger.LogAttrs(context.Background(), s.t.level, s.name, attrs...)
	s.t = nil
	s.name = ""
	s.traceID = 0
	s.stages = s.stages[:0]
	s.attrs = s.attrs[:0]
	spanPool.Put(s)
}

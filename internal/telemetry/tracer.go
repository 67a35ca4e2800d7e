package telemetry

import (
	"context"
	"log/slog"
	"strconv"
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
// key repeats. Each kind's value renders itself (kindValue): no map is
// built and no reflection runs, whichever handler the logger has.
//
//pubsub:coldpath -- sampled publications only: renders one trace's records into one log event
func (t *Tracer) Log(r *Recorder, traceID uint64, err error) {
	if t == nil {
		return
	}
	recs := r.SnapshotFilter(traceID, KindNone, 0)
	var count [numKinds]int
	var kinds []RecordKind // in the order they first appear
	for _, rec := range recs {
		if count[rec.Kind] == 0 {
			kinds = append(kinds, rec.Kind)
		}
		count[rec.Kind]++
	}
	attrs := make([]slog.Attr, 0, 2+len(kinds))
	attrs = append(attrs, slog.String("trace_id", FormatTraceID(traceID)))
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	values := make([]kindValue, len(kinds))
	for i, k := range kinds {
		values[i] = kindValue{recs: recs, kind: k, n: count[k]}
		attrs = append(attrs, slog.Any(k.String(), &values[i]))
	}
	t.traces.Add(1)
	t.logger.LogAttrs(context.Background(), slog.LevelInfo, "publish", attrs...)
}

// kindValue is the value of one record kind in a sampled publication's
// log event: the object of the named arguments of its one record, or a
// list of such objects. It renders itself as the map[string]int64 (or
// list of them) it stands for would render: keys in sorted order, as
// JSON for a JSON handler and in fmt's map form for a text one.
type kindValue struct {
	recs []Record // the trace's records; n of them are of kind
	kind RecordKind
	n    int
}

// MarshalJSON renders the value as encoding/json renders a
// map[string]int64, or a list of them.
func (v *kindValue) MarshalJSON() ([]byte, error) {
	return appendKind(make([]byte, 0, 64*v.n), v.recs, v.kind, v.n, jsonSyntax), nil
}

// String renders the value as fmt prints a map[string]int64, or a list
// of them: "map[k:v k:v]", "[map[k:v] map[k:v]]".
func (v *kindValue) String() string {
	return string(appendKind(make([]byte, 0, 64*v.n), v.recs, v.kind, v.n, fmtSyntax))
}

// syntax spells a list of records, a record's named arguments and a
// name: encoding/json's form of a map[string]int64, or fmt's.
type syntax struct {
	open, sep, close, objOpen, objSep, objClose, keyOpen, keyClose string
}

var (
	jsonSyntax = syntax{"[", ",", "]", "{", ",", "}", `"`, `":`}
	fmtSyntax  = syntax{"[", " ", "]", "map[", " ", "]", "", ":"}
)

// appendKind appends the records of one kind, n of recs, as the map of
// each one's named arguments renders in sy — keys in name order — or,
// when n > 1, the list of them. Argument names are plain identifiers,
// so no key needs escaping.
func appendKind(b []byte, recs []Record, kind RecordKind, n int, sy syntax) []byte {
	if n > 1 {
		b = append(b, sy.open...)
	}
	first := true
	for _, rec := range recs {
		if rec.Kind != kind {
			continue
		}
		if !first {
			b = append(b, sy.sep...)
		}
		first = false
		b = append(b, sy.objOpen...)
		for m, i := range sortedArgs[kind] {
			if i < 0 {
				break
			}
			if m > 0 {
				b = append(b, sy.objSep...)
			}
			b = append(b, sy.keyOpen...)
			b = append(b, kindArgs[kind][i]...)
			b = append(b, sy.keyClose...)
			b = strconv.AppendInt(b, rec.Args[i], 10)
		}
		b = append(b, sy.objClose...)
	}
	if n > 1 {
		b = append(b, sy.close...)
	}
	return b
}

// sortedArgs lists, per kind, the positions of its named arguments in
// the order of their names — the key order of a map's JSON and fmt
// forms — and then -1s. It is an array of arrays, so building it at
// init allocates nothing.
var sortedArgs = func() (s [numKinds][4]int) {
	for k, names := range kindArgs {
		n := 0
		for i, name := range names {
			if name == "" {
				continue
			}
			j := n
			for ; j > 0 && names[s[k][j-1]] > name; j-- {
				s[k][j] = s[k][j-1]
			}
			s[k][j] = i
			n++
		}
		for ; n < len(s[k]); n++ {
			s[k][n] = -1
		}
	}
	return s
}()

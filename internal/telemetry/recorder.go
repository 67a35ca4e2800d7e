package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RecordKind discriminates flight-recorder records.
type RecordKind uint8

// Flight-recorder record kinds. Every kind carries up to four int64
// arguments whose meaning is given by ArgNames.
const (
	// KindNone marks an empty slot; it is never recorded.
	KindNone RecordKind = iota
	// KindPublish summarises one broker publication: fanout, deliveries
	// and latency. Recorded for every publish, traced or not; a
	// publication the broker refused carries delivered = -1.
	KindPublish
	// KindIngest marks a publish frame arriving at the wire server.
	KindIngest
	// KindMatch carries the index traversal effort of one traced
	// publication's match phase.
	KindMatch
	// KindDecision is a dispatch decision: the chosen delivery method
	// with the interested count, group size and interest ratio.
	KindDecision
	// KindDeliver is one traced event landing in a subscriber buffer or
	// a sink: one record per queue element, naming its first
	// subscription, the queue depth with it in and how many
	// subscriptions it carried.
	KindDeliver
	// KindDrop is one traced event lost to a full subscriber buffer.
	KindDrop
	// KindEvict is a subscription cancelled by the cancel-slow policy.
	KindEvict
	// KindRebuild is a matching-index rebuild installing a fresh base.
	KindRebuild
	// KindKeepaliveMiss is a connection evicted for missing keepalives.
	KindKeepaliveMiss
	// KindReconnect is a reconnecting client's redial attempt.
	KindReconnect
	// KindClientPublish is a wire client sending a publish frame.
	KindClientPublish
	// KindClientRecv is a wire client receiving an event frame: one
	// record for the ids it put on Events (the first and their count),
	// and one per id it dropped to a full buffer.
	KindClientRecv
	// KindWALAppend is one publication appended to the durable log; its
	// Seq is the log-assigned offset, its append_ns the time from the
	// caller's stamp (the publication's entry, on a broker) to the
	// append's end.
	KindWALAppend
	// KindWALSync is one fsync of the durable log's active segment: the
	// records and bytes it made durable, and the time the batch write
	// and the fsync took together.
	KindWALSync
	// KindWALRecover is a durable-log boot recovery: segments scanned,
	// records accepted, torn-tail bytes truncated.
	KindWALRecover
	// KindWALReplay is a replay reader opened over the durable log.
	KindWALReplay
	// KindSlowSub marks a subscription crossing (slow=1) or recovering
	// from (slow=0) the configured lag threshold.
	KindSlowSub
	// KindClientResume is a reconnecting client resuming a
	// subscription from its last-seen offset after a redial.
	KindClientResume
	// KindStages is one traced publication's split over the broker's
	// stages in ns, the pubsub_stage_seconds labels: match and enqueue
	// summed over parts, wal 0 without a log.
	KindStages

	numKinds
)

// kindNames and kindArgs give each kind its display name and the names
// of its four arguments ("" = unused).
var kindNames = [numKinds]string{
	KindNone:          "none",
	KindPublish:       "publish",
	KindIngest:        "ingest",
	KindMatch:         "match",
	KindDecision:      "decision",
	KindDeliver:       "deliver",
	KindDrop:          "drop",
	KindEvict:         "evict",
	KindRebuild:       "rebuild",
	KindKeepaliveMiss: "keepalive_miss",
	KindReconnect:     "reconnect",
	KindClientPublish: "client_publish",
	KindClientRecv:    "client_recv",
	KindWALAppend:     "wal_append",
	KindWALSync:       "wal_sync",
	KindWALRecover:    "wal_recover",
	KindWALReplay:     "wal_replay",
	KindSlowSub:       "slow_sub",
	KindClientResume:  "client_resume",
	KindStages:        "stages",
}

// A multicast is booked once per queue element or frame, not once per
// member: deliver and a delivering client_recv carry the first
// subscription and, in subs, how many the element or frame delivered;
// a drop keeps a record per subscription (drop, and client_recv with
// dropped=1 and subs=1).
var kindArgs = [numKinds][4]string{
	KindPublish:       {"fanout", "delivered", "match_ns", "total_ns"},
	KindIngest:        {"conn", "point_dims", "payload_bytes", ""},
	KindMatch:         {"nodes_visited", "entries_tested", "leaves_visited", "matched"},
	KindDecision:      {"method", "interested", "group_size", "ratio_ppm"},
	KindDeliver:       {"sub", "depth", "subs", ""},
	KindDrop:          {"sub", "policy", "", ""},
	KindEvict:         {"sub", "", "", ""},
	KindRebuild:       {"entries", "overlay_left", "build_ns", "rebuilds"},
	KindKeepaliveMiss: {"conn", "", "", ""},
	KindReconnect:     {"attempt", "ok", "backoff_ms", "subs"},
	KindClientPublish: {"point_dims", "payload_bytes", "", ""},
	KindClientRecv:    {"sub", "subs", "dropped", "first_drop"},
	KindWALAppend:     {"bytes", "synced", "append_ns", ""},
	KindWALSync:       {"records", "sync_ns", "bytes", ""},
	KindWALRecover:    {"segments", "records", "truncated_bytes", "recover_ns"},
	KindWALReplay:     {"from", "end", "", ""},
	KindSlowSub:       {"sub", "lag", "slow", "dropped"},
	KindClientResume:  {"from", "last_seq", "subs", ""},
	KindStages:        {StageWAL, StageIngest, StageMatch, StageEnqueue},
}

// String returns the kind's display name.
func (k RecordKind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ArgNames returns the names of the kind's arguments; unused trailing
// arguments have empty names.
func (k RecordKind) ArgNames() [4]string {
	if k < numKinds {
		return kindArgs[k]
	}
	return [4]string{}
}

// ParseKind converts a kind display name back to the kind.
func ParseKind(s string) (RecordKind, bool) {
	for k := RecordKind(1); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return KindNone, false
}

// FormatTraceID renders a trace id in its canonical 16-hex-digit form.
func FormatTraceID(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// ParseTraceID parses a hexadecimal trace id (with or without an "0x"
// prefix).
func ParseTraceID(s string) (uint64, error) {
	if len(s) > 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q: %w", s, err)
	}
	return id, nil
}

// traceSeed randomises trace ids across process restarts; the low bit
// is forced so the seed is never zero.
var traceSeed = uint64(time.Now().UnixNano()) | 1

var traceCtr atomic.Uint64

// NewTraceID returns a process-unique non-zero 64-bit trace id. It is
// allocation-free and safe for concurrent use: a per-process random
// seed mixed with an atomic counter through a splitmix64 finalizer.
func NewTraceID() uint64 {
	x := traceCtr.Add(1) + traceSeed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Flight-recorder geometry. Each record occupies recWords words: a
// header (write ticket and kind), a timestamp, the trace id, the
// sequence number and four arguments.
const (
	recWords       = 8
	recorderShards = 8
	// DefaultRecorderCapacity is the record capacity of the process-wide
	// Default recorder: 4096 records × 64 bytes = 256 KiB.
	DefaultRecorderCapacity = 4096
)

// epoch is the zero of the one clock every recorder reads, so a stamp
// taken from any recorder is valid on all of them, and its wall time
// renders them.
var epoch = time.Now()

// recorderShard is one writer lane: a power-of-two ring of records and
// the ticket counting the records written to it, both guarded by mu.
// The fields fill one cache line, so adjacent shards never share one.
type recorderShard struct {
	mu   sync.Mutex
	next uint64 // tickets issued; the newest record holds ticket next
	mask uint64
	buf  [][recWords]uint64
	_    [cacheLine - 48]byte
}

// Recorder is an always-on, fixed-memory flight recorder: a sharded
// ring buffer of fixed-size binary records written with zero heap
// allocations per record. All methods are safe on a nil receiver
// (no-ops) and safe for concurrent use.
//
// A writer holds one shard's lock for the single 64-byte store of its
// record, so a record is never torn. It takes the first free shard
// from the one its goroutine hashes to and waits only when all of them
// are held. The ring overwrites the oldest records; memory is bounded
// at creation time and never grows.
type Recorder struct {
	shards [recorderShards]recorderShard
	slots  int // per shard
}

// NewRecorder creates a recorder holding at least capacity records
// (rounded up to a power of two per shard; minimum 512 total). Memory
// use is fixed at 64 bytes per record.
func NewRecorder(capacity int) *Recorder {
	if capacity < 512 {
		capacity = 512
	}
	per := 1
	for per*recorderShards < capacity {
		per <<= 1
	}
	r := &Recorder{slots: per}
	for i := range r.shards {
		r.shards[i].mask = uint64(per - 1)
		r.shards[i].buf = make([][recWords]uint64, per)
	}
	return r
}

var defaultRecorder = sync.OnceValue(func() *Recorder {
	return NewRecorder(DefaultRecorderCapacity)
})

// Default returns the process-wide flight recorder, created on first
// use with DefaultRecorderCapacity. Components that are not handed an
// explicit recorder write here, so diagnostics are always on.
func Default() *Recorder { return defaultRecorder() }

// Capacity returns the total number of record slots.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.slots * recorderShards
}

// Written returns how many records have been written since the
// recorder was created, including those the ring has since overwritten.
func (r *Recorder) Written() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.next
		s.mu.Unlock()
	}
	return n
}

// Now returns the process-wide monotonic clock reading in nanoseconds.
// It is the timestamp source for duration arguments (match_ns,
// build_ns) so records and their arguments share one clock, and every
// recorder reads the same clock.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(epoch).Nanoseconds()
}

// WallTime renders a Now reading as wall-clock time, so callers on a
// hot path can keep the cheap monotonic stamp and convert only when
// someone looks.
func (r *Recorder) WallTime(ns int64) time.Time {
	if r == nil {
		return time.Time{}
	}
	return epoch.Add(time.Duration(ns))
}

// Record appends one record. It is allocation-free and safe on a nil
// receiver; under wrap the oldest record in the writer's shard is
// overwritten.
//
//pubsub:hotpath
func (r *Recorder) Record(kind RecordKind, traceID, seq uint64, a0, a1, a2, a3 int64) {
	if r == nil {
		return
	}
	r.RecordAt(time.Since(epoch).Nanoseconds(), kind, traceID, seq, a0, a1, a2, a3)
}

// RecordAt is Record with a caller-supplied timestamp from Now(), so a
// hot path that already read the clock for the record's own latency
// args does not pay a second read.
//
//pubsub:hotpath
func (r *Recorder) RecordAt(ts int64, kind RecordKind, traceID, seq uint64, a0, a1, a2, a3 int64) {
	if r == nil {
		return
	}
	s := r.lock()
	s.next++ // tickets start at 1: header 0 means empty
	s.buf[(s.next-1)&s.mask] = [recWords]uint64{s.next<<8 | uint64(kind), uint64(ts), traceID, seq,
		uint64(a0), uint64(a1), uint64(a2), uint64(a3)}
	s.mu.Unlock()
}

// lock returns a shard locked for the calling writer: the first free
// one from the shard its goroutine hashes to, or, when every shard is
// held, that shard once it is free. An uncontended goroutine therefore
// always writes to the same shard.
func (r *Recorder) lock() *recorderShard {
	h := shardIndex()
	for i := uint(0); i < recorderShards; i++ {
		if s := &r.shards[(h+i)%recorderShards]; s.mu.TryLock() {
			return s
		}
	}
	s := &r.shards[h%recorderShards]
	s.mu.Lock()
	return s
}

// Record is one decoded flight-recorder record.
type Record struct {
	// Time is the wall-clock render of the record's monotonic timestamp.
	Time time.Time
	// Kind discriminates the record.
	Kind RecordKind
	// TraceID correlates the record with a publication's trace (0 for
	// control-plane records such as rebuilds and reconnects).
	TraceID uint64
	// Seq is the broker sequence number, when the record has one.
	Seq uint64
	// Args are the kind-specific arguments (see RecordKind.ArgNames).
	Args [4]int64
}

// Snapshot copies out every record, oldest first. It allocates (it is
// the dump path, not the hot path).
func (r *Recorder) Snapshot() []Record {
	return r.SnapshotFilter(0, KindNone, 0)
}

// SnapshotFilter is Snapshot restricted to one trace id (0 = all) and
// one kind (KindNone = all), keeping only the most recent limit records
// (0 = all). Records are returned in timestamp order. Each shard is
// locked only while the raw records that pass the filter are copied
// out of its ring; decoding runs unlocked.
func (r *Recorder) SnapshotFilter(traceID uint64, kind RecordKind, limit int) []Record {
	if r == nil {
		return nil
	}
	var raw [][recWords]uint64
	for si := range r.shards {
		s := &r.shards[si]
		s.mu.Lock()
		for i := range s.buf {
			w := &s.buf[i]
			k := RecordKind(w[0] & 0xff)
			if k == KindNone || k >= numKinds ||
				(kind != KindNone && k != kind) ||
				(traceID != 0 && w[2] != traceID) {
				continue
			}
			raw = append(raw, *w)
		}
		s.mu.Unlock()
	}
	out := make([]Record, len(raw))
	for i, w := range raw {
		out[i] = Record{
			Time: r.WallTime(int64(w[1])), Kind: RecordKind(w[0] & 0xff), TraceID: w[2], Seq: w[3],
			Args: [4]int64{int64(w[4]), int64(w[5]), int64(w[6]), int64(w[7])},
		}
	}
	slices.SortStableFunc(out, func(a, b Record) int { return a.Time.Compare(b.Time) })
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// recordJSON is the wire form of one dumped record.
type recordJSON struct {
	Time  time.Time        `json:"time"`
	Kind  string           `json:"kind"`
	Trace string           `json:"trace,omitempty"`
	Seq   uint64           `json:"seq,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// dumpJSON is the top-level /debug/events response body.
type dumpJSON struct {
	Capacity int          `json:"capacity"`
	Records  []recordJSON `json:"records"`
}

func toJSON(rec Record) recordJSON {
	out := recordJSON{Time: rec.Time, Kind: rec.Kind.String(), Seq: rec.Seq, Args: make(map[string]int64, 4)}
	if rec.TraceID != 0 {
		out.Trace = FormatTraceID(rec.TraceID)
	}
	for i, name := range rec.Kind.ArgNames() {
		if name != "" {
			out.Args[name] = rec.Args[i]
		}
	}
	return out
}

// WriteJSON dumps the recorder's records as one JSON object, filtered
// like SnapshotFilter.
func (r *Recorder) WriteJSON(w io.Writer, traceID uint64, kind RecordKind, limit int) error {
	recs := r.SnapshotFilter(traceID, kind, limit)
	dump := dumpJSON{Capacity: r.Capacity(), Records: make([]recordJSON, len(recs))}
	for i, rec := range recs {
		dump.Records[i] = toJSON(rec)
	}
	return json.NewEncoder(w).Encode(dump)
}

// WriteText dumps the recorder's records in a human-readable line
// format (one record per line), filtered like SnapshotFilter. It is
// the SIGQUIT dump format.
func (r *Recorder) WriteText(w io.Writer, traceID uint64, kind RecordKind, limit int) error {
	recs := r.SnapshotFilter(traceID, kind, limit)
	if _, err := fmt.Fprintf(w, "flight recorder: %d record(s), capacity %d\n", len(recs), r.Capacity()); err != nil {
		return err
	}
	for _, rec := range recs {
		if _, err := fmt.Fprintf(w, "%s %-14s trace=%s seq=%d%s\n",
			rec.Time.Format("15:04:05.000000"), rec.Kind, FormatTraceID(rec.TraceID), rec.Seq, formatArgs(rec)); err != nil {
			return err
		}
	}
	return nil
}

// formatArgs renders the named arguments of one record as " k=v ...".
func formatArgs(rec Record) string {
	var b []byte
	for i, name := range rec.Kind.ArgNames() {
		if name != "" {
			b = fmt.Appendf(b, " %s=%d", name, rec.Args[i])
		}
	}
	return string(b)
}

// EventsHandler serves a recorder as JSON. Query parameters: trace
// (hex trace id), kind (record kind name), limit (most recent N).
// Mount it at /debug/events.
func EventsHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var (
			traceID uint64
			kind    RecordKind
			limit   int
			err     error
		)
		q := req.URL.Query()
		if s := q.Get("trace"); s != "" {
			if traceID, err = ParseTraceID(s); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if s := q.Get("kind"); s != "" {
			var ok bool
			if kind, ok = ParseKind(s); !ok {
				http.Error(w, fmt.Sprintf("unknown record kind %q", s), http.StatusBadRequest)
				return
			}
		}
		if s := q.Get("limit"); s != "" {
			if limit, err = strconv.Atoi(s); err != nil || limit < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", s), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w, traceID, kind, limit)
	})
}

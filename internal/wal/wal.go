package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy selects when appended records are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncAlways writes and fsyncs every append before it returns. An
	// acknowledged publication survives any crash; appends pay the fsync.
	SyncAlways SyncPolicy = iota
	// SyncEvery is group commit: appends collect in memory and a
	// background interval writes the batch with one write(2) and fsyncs
	// it. Any crash — of the process, not only of the machine — loses at
	// most one sync window of acknowledged publications, always from the
	// tail: what recovers is a gap-free prefix of what was acknowledged.
	SyncEvery
	// SyncNever writes every append through to the operating system
	// before it returns and never fsyncs. A process crash loses nothing
	// (the OS holds the pages); a machine crash may lose everything since
	// the last OS writeback.
	SyncNever
)

// String returns the policy's display name.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEvery:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("sync(%d)", int(p))
	}
}

// ParseSyncPolicy converts a policy display name back to the policy.
// It is the inverse used by the -fsync flag.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for _, p := range []SyncPolicy{SyncAlways, SyncEvery, SyncNever} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// File is the write side of one segment as the log sees it. *os.File
// satisfies it; fault-injection tests substitute wrappers that fail.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// Options tune a log. The zero value is usable: 64 MiB segments,
// unlimited retention, fsync on every append.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size. Zero selects 64 MiB.
	SegmentBytes int64
	// RetentionBytes caps the log's total size: once exceeded, the
	// oldest whole segments are deleted (the active segment never is).
	// Deleted offsets are no longer replayable. Zero keeps everything.
	RetentionBytes int64
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// SyncInterval is the background fsync cadence under SyncEvery.
	// Zero selects 50ms.
	SyncInterval time.Duration
	// Metrics, when non-nil, receives the log's metric families
	// (append/sync latency, appended bytes, segment and offset gauges,
	// replay and recovery counters). Nil disables metrics.
	Metrics *telemetry.Registry
	// Recorder receives flight-recorder records for appends, syncs,
	// recovery and replays. Nil selects the process-wide
	// telemetry.Default() recorder.
	Recorder *telemetry.Recorder
	// OpenSegment opens a fresh segment file for appending, creating or
	// truncating it. Nil selects os.OpenFile; tests substitute
	// fault-injecting files. Only the write path goes through it —
	// recovery and replay read segments directly.
	OpenSegment func(path string) (File, error)
}

// flushThreshold bounds the pending batch under SyncEvery: an append
// that fills it past this many bytes writes the batch out itself rather
// than wait for the syncer, so the log buffers at most this much plus
// one record and about one 1 KiB append in 1000 pays a write. It is
// 1 MiB and not less so that those appends, and the few each write
// slows down behind it, stay well under 1 % of a publish loop: at
// 256 KiB they were 1 % of it, and the loop's p99 flipped between a
// 4 µs publish and a 40 µs one from run to run.
const flushThreshold = 1 << 20

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.Recorder == nil {
		o.Recorder = telemetry.Default()
	}
	if o.OpenSegment == nil {
		o.OpenSegment = func(path string) (File, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		}
	}
	return o
}

// segment is one log file: records with contiguous offsets starting at
// base. The last element of Log.segs is the active (append) segment.
type segment struct {
	base    uint64 // offset of the segment's first record
	path    string
	size    int64
	records uint64 // records in the segment (base+records = next base)
}

func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", base))
}

// parseSegmentBase extracts the base offset from a segment file name,
// reporting whether the name is a segment at all.
func parseSegmentBase(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	Segments       int    // segment files scanned (before any new active segment)
	Records        uint64 // valid records accepted
	TruncatedBytes int64  // torn-tail bytes removed from the final segment
}

// Stats is a point-in-time summary of the log.
type Stats struct {
	FirstOffset uint64 // oldest replayable offset (NextOffset if empty)
	NextOffset  uint64 // offset the next append will get
	Segments    int
	Bytes       int64 // total size across segments
	Failed      bool  // the log has fail-stopped on an I/O error
}

// Log is a segmented append-only publication log. Create one with
// Open; all methods are safe for concurrent use.
//
// The log fail-stops: once any write or sync fails, every subsequent
// Append returns the original error, so a broker backed by the log
// refuses new publications instead of silently dropping durability.
type Log struct {
	dir  string
	opts Options
	tel  *walTel
	rec  *telemetry.Recorder

	mu     sync.Mutex
	segs   []*segment
	active File
	//pubsub:commit -- readers treat offsets below next as acknowledged history, in a segment file by the time their range is fixed
	next      uint64 // next offset to assign
	first     uint64 // oldest retained offset (== next when empty)
	failed    error  // sticky fail-stop error
	closed    bool
	recovered RecoveryStats

	// The batch: records encoded but not yet handed to the OS. They are
	// already counted in the active segment's size and records and, once
	// acknowledged, in next; flushLocked writes them with one Write.
	// Allocated by the first append, reused afterwards.
	pending     []byte
	pendingRecs uint64
	dirty       int   // records appended since the last fsync
	dirtyBytes  int64 // and their bytes

	// Under SyncEvery a rotation hands the full segment to the syncer
	// (sealing) and appends go on encoding into pending for the next
	// segment, whose file the syncer opens only once the full one is
	// fsynced; active is nil until then. sealed (L = &mu) is broadcast
	// when the seal is over. trash holds retention victims whose files
	// are not deleted yet, oldest first.
	sealing *seal
	sealed  *sync.Cond
	trash   []string

	syncStop chan struct{}
	sealReq  chan struct{} // wakes the syncer for a seal; capacity 1
	syncWG   sync.WaitGroup
}

// seal is one full segment handed from a rotating Append to the syncer.
type seal struct {
	f     File   // the full segment, written out, not yet fsynced
	last  uint64 // its last offset
	recs  int    // records and bytes its fsync makes durable
	bytes int64
	next  *segment // the segment whose file the syncer opens afterwards
	trash []string // retention victims to delete, oldest first
}

// Open creates or recovers the log in dir. Recovery scans every
// segment oldest-first, verifies each record's checksum, length and
// offset continuity, truncates a torn tail on the final segment, and
// fails — rather than silently dropping history — on corruption
// anywhere else. A fresh active segment is then started at the next
// offset.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		rec:      opts.Recorder,
		next:     1,
		first:    1,
		syncStop: make(chan struct{}),
		sealReq:  make(chan struct{}, 1),
	}
	l.sealed = sync.NewCond(&l.mu)
	r0 := l.rec.Now()
	if err := l.recover(); err != nil {
		return nil, err
	}
	// Fresh active segment at the next offset. Any existing file with
	// this base holds zero valid records (a non-empty one would have
	// advanced next past its records), so truncating it is safe.
	seg := l.nextSegment()
	f, err := l.openSegment(seg)
	if err != nil {
		return nil, err
	}
	l.active = f
	l.segs = append(l.segs, seg)
	l.syncDir()
	l.tel = newWALTel(l, opts.Metrics)
	if l.tel != nil {
		l.tel.recoveredRecords.Add(l.recovered.Records)
		l.tel.truncatedBytes.Add(uint64(l.recovered.TruncatedBytes))
	}
	l.rec.Record(telemetry.KindWALRecover, 0, l.next-1,
		int64(l.recovered.Segments), int64(l.recovered.Records),
		l.recovered.TruncatedBytes, l.rec.Now()-r0)
	if opts.Sync == SyncEvery {
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// recover scans the segment files into l.segs and sets next/first.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", l.dir, err)
	}
	var segs []*segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base, ok := parseSegmentBase(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, &segment{base: base, path: filepath.Join(l.dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	l.recovered.Segments = len(segs)

	for i, seg := range segs {
		final := i == len(segs)-1
		if i > 0 {
			prev := segs[i-1]
			if want := prev.base + prev.records; seg.base != want {
				return fmt.Errorf("wal: segment %s starts at offset %d, want %d: missing or reordered segment", seg.path, seg.base, want)
			}
		}
		if err := l.scanSegment(seg, final); err != nil {
			return err
		}
	}
	// Drop a final segment recovery truncated to nothing: a zero-record
	// file would collide with the fresh active segment at the same base.
	if n := len(segs); n > 0 && segs[n-1].records == 0 {
		if err := os.Remove(segs[n-1].path); err != nil {
			return fmt.Errorf("wal: removing empty segment: %w", err)
		}
		segs = segs[:n-1]
	}
	l.segs = segs
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		l.next = last.base + last.records
		l.first = segs[0].base
	}
	return nil
}

// scanSegment validates every record in one segment file. On the final
// segment a short or corrupt tail is truncated away (a crash mid-append
// legitimately leaves one); anywhere else it is an error.
func (l *Log) scanSegment(seg *segment, final bool) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	at := 0
	expect := seg.base
	var scanErr error
	for at < len(data) {
		rec, n, err := DecodeRecord(data[at:])
		if err != nil {
			scanErr = err
			break
		}
		if rec.Offset != expect {
			scanErr = fmt.Errorf("%w: offset %d, want %d", ErrCorruptRecord, rec.Offset, expect)
			break
		}
		at += n
		expect++
	}
	seg.size = int64(at)
	seg.records = expect - seg.base
	l.recovered.Records += seg.records
	if scanErr == nil {
		return nil
	}
	if !final {
		return fmt.Errorf("wal: segment %s corrupt at byte %d (not the log tail, refusing to drop acknowledged history): %w", seg.path, at, scanErr)
	}
	// Torn tail on the final segment: truncate to the last whole record.
	torn := int64(len(data)) - int64(at)
	if err := os.Truncate(seg.path, int64(at)); err != nil {
		return fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
	}
	l.recovered.TruncatedBytes += torn
	return nil
}

// nextSegment describes the segment that starts at l.next.
func (l *Log) nextSegment() *segment {
	return &segment{base: l.next, path: segmentPath(l.dir, l.next)}
}

// openSegment creates seg's file for appending.
func (l *Log) openSegment(seg *segment) (File, error) {
	f, err := l.opts.OpenSegment(seg.path)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	return f, nil
}

// syncDir fsyncs the log directory so segment creations and deletions
// themselves survive a crash. Best-effort: some filesystems refuse to
// sync directories, and the records inside are checksummed anyway.
func (l *Log) syncDir() {
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// fail latches the log's fail-stop state. Whatever is still pending will
// never be written, so it leaves the accounting: a reader is never
// promised an offset that is not in a segment file. (Whole records of a
// torn batch may reappear at recovery; they extend the recovered prefix
// without a gap.) Caller holds l.mu.
func (l *Log) fail(err error) {
	if l.failed != nil {
		return
	}
	l.failed = err
	if l.tel != nil {
		l.tel.failedState.Set(1)
	}
	active := l.segs[len(l.segs)-1]
	active.size -= int64(len(l.pending))
	active.records -= l.pendingRecs
	l.next = min(l.next, active.base+active.records)
	l.pending, l.pendingRecs = nil, 0
}

// Append assigns the next offset to the record and encodes it onto the
// pending batch; the sync policy decides when the batch is written out.
// Under SyncAlways the record is written and fsynced, under SyncNever
// written, before Append returns; under SyncEvery it stays in memory
// until the batch fills, the syncer ticks, the segment rotates or a
// reader asks for it, so the append itself costs no system call and
// never waits for an fsync: the syncer takes both the interval fsync
// and the seal of a full segment off the append lock. Only an append
// that would fill the batch, or rotate again, while a seal is still in
// flight waits for it. A write or sync failure latches the log into
// the fail-stop state and the publication must not be acknowledged.
// The point and payload are copied, not retained.
func (l *Log) Append(traceID uint64, point []float64, payload []byte) (uint64, error) {
	off, _, err := l.AppendAt(l.rec.Now(), traceID, point, payload)
	return off, err
}

// AppendAt is Append timed from t0, a reading of the recorder clock
// (telemetry.Recorder.Now) the caller already took, so a publication
// stamped on entry pays no second read for its append. It returns the
// reading at which the append completed: end - t0 is the append_ns of
// the wal_append record and the sample of the append latency
// histogram. end is 0 when the append failed.
//
//pubsub:coldpath -- opt-in durability: the zero-alloc publish path enters the WAL only when a durable broker is configured
func (l *Log) AppendAt(t0 int64, traceID uint64, point []float64, payload []byte) (off uint64, end int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, 0, l.failed
	}
	if l.closed {
		return 0, 0, ErrClosed
	}
	// Enforce the decoder's limits before anything is encoded: a
	// record DecodeRecord would reject must never be written, or the
	// acknowledged history becomes unrecoverable (recovery refuses
	// corruption anywhere but the tail). An oversized record is a
	// caller error, not an I/O fault, so it does not latch fail-stop —
	// the log stays open for well-formed appends.
	if len(point) > MaxPointDims {
		return 0, 0, fmt.Errorf("%w: point has %d dimensions (max %d)", ErrRecordTooLarge, len(point), MaxPointDims)
	}
	body := recordFixed + 8*len(point) + len(payload)
	if body > MaxBody {
		return 0, 0, fmt.Errorf("%w: %d-byte body (max %d)", ErrRecordTooLarge, body, MaxBody)
	}
	size := int64(frameHeader + body)

	if l.waitsForSealLocked(size) {
		for l.sealing != nil {
			l.sealed.Wait()
		}
		if l.failed != nil {
			return 0, 0, l.failed
		}
		if l.closed {
			return 0, 0, ErrClosed
		}
	}
	if l.rotationDueLocked(size) {
		if err := l.rotateLocked(); err != nil {
			l.fail(err)
			return 0, 0, l.failed
		}
	}
	active := l.segs[len(l.segs)-1]

	off = l.next
	l.pending = appendRecord(l.pending, &Record{Offset: off, TraceID: traceID, Point: point, Payload: payload})
	l.pendingRecs++
	active.size += size
	active.records++
	l.dirty++
	l.dirtyBytes += size
	// Flush, and under SyncAlways fsync, before publishing the new
	// offset: if either fails the record is never acknowledged and never
	// visible to readers, even though its bytes may sit in a torn tail.
	synced := int64(0)
	switch {
	case l.opts.Sync == SyncAlways:
		err, synced = l.syncLocked(), 1
	case l.opts.Sync == SyncNever || len(l.pending) >= flushThreshold:
		err = l.flushLocked()
	}
	if err != nil {
		return 0, 0, err
	}
	l.next = off + 1
	end = l.rec.Now()
	if l.tel != nil {
		l.tel.appends.Inc()
		l.tel.appendedBytes.Add(uint64(size))
		l.tel.appendLatency.ObserveDuration(time.Duration(end - t0))
	}
	l.rec.RecordAt(end, telemetry.KindWALAppend, traceID, off, size, synced, end-t0, 0)
	return off, end, nil
}

// rotationDueLocked reports whether a record of size bytes starts a new
// segment. Caller holds l.mu.
func (l *Log) rotationDueLocked(size int64) bool {
	active := l.segs[len(l.segs)-1]
	return active.records > 0 && active.size+size > l.opts.SegmentBytes
}

// waitsForSealLocked reports whether an append of size bytes must wait
// for the seal in flight: it would write the batch, which has no file
// until the seal is over, or start a second seal. Waiting is what keeps
// the batch under flushThreshold. Caller holds l.mu.
func (l *Log) waitsForSealLocked(size int64) bool {
	return l.sealing != nil && (l.rotationDueLocked(size) || len(l.pending)+int(size) >= flushThreshold)
}

// flushLocked hands the pending batch to the operating system with one
// Write — the only place the log writes a segment — and fail-stops the
// log if the write fails. Under SyncEvery it then starts the kernel's
// writeback of what it wrote, so the fsync that follows finds little
// left to do. Caller holds l.mu and no seal is in flight.
func (l *Log) flushLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	//pubsub:allow locksafe -- the segment write must serialise with offset assignment; l.mu is the log's append lock
	if _, err := l.active.Write(l.pending); err != nil {
		l.fail(fmt.Errorf("wal: writing %d record(s), %d bytes: %w", l.pendingRecs, len(l.pending), err))
		return l.failed
	}
	if l.opts.Sync == SyncEvery {
		active := l.segs[len(l.segs)-1]
		startWriteback(l.active, active.size-int64(len(l.pending)), int64(len(l.pending)))
	}
	if l.tel != nil {
		l.tel.flushes.Inc()
		l.tel.flushedBytes.Add(uint64(len(l.pending)))
	}
	l.pending, l.pendingRecs = l.pending[:0], 0
	return nil
}

// rotateLocked writes out the active segment, starts the next one and
// applies retention. Under SyncEvery the full segment is handed to the
// syncer, which seals it (fsync, close) and only then opens the next
// segment's file and deletes what retention trimmed, while appends go
// on into the pending batch; under the other policies all of that
// happens here. Caller holds l.mu and no seal is in flight.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	full, next := l.segs[len(l.segs)-1], l.nextSegment()
	if l.opts.Sync == SyncEvery {
		l.segs = append(l.segs, next)
		l.trimLocked()
		l.sealing = &seal{f: l.active, last: full.base + full.records - 1,
			recs: l.dirty, bytes: l.dirtyBytes, next: next, trash: l.trash}
		l.active = nil
		l.dirty, l.dirtyBytes = 0, 0
		if l.tel != nil {
			l.tel.rotations.Inc()
		}
		select {
		case l.sealReq <- struct{}{}:
		default: // unreachable: the syncer took the last request before clearing sealing
		}
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment before rotation: %w", err)
	}
	l.dirty, l.dirtyBytes = 0, 0
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	f, err := l.openSegment(next)
	if err != nil {
		return err
	}
	l.active = f
	l.segs = append(l.segs, next)
	if l.tel != nil {
		l.tel.rotations.Inc()
	}
	l.trimLocked()
	l.dropTrashLocked(deleteSegments(l.trash))
	l.syncDir()
	return nil
}

// trimLocked applies retention: while the log exceeds RetentionBytes
// the oldest segments leave it — FirstOffset moves past them — and
// their files join l.trash. The active segment never does. Caller holds
// l.mu.
func (l *Log) trimLocked() {
	if l.opts.RetentionBytes <= 0 {
		return
	}
	total := int64(0)
	for _, s := range l.segs {
		total += s.size
	}
	for len(l.segs) > 1 && total > l.opts.RetentionBytes {
		victim := l.segs[0]
		total -= victim.size
		l.segs = l.segs[1:]
		l.first = l.segs[0].base
		l.trash = append(l.trash, victim.path)
	}
}

// deleteSegments removes the files at paths oldest first and returns
// how many it removed. It stops at the first failure — a newer file
// deleted while an older one stays would leave a gap that recovery
// refuses — and the rest are retried at the next rotation.
func deleteSegments(paths []string) int {
	for i, p := range paths {
		if err := os.Remove(p); err != nil {
			return i
		}
	}
	return len(paths)
}

// dropTrashLocked forgets the n oldest paths of l.trash, whose files
// deleteSegments has removed. Caller holds l.mu.
func (l *Log) dropTrashLocked(n int) {
	l.trash = l.trash[n:]
	if l.tel != nil {
		l.tel.retentionDeletes.Add(uint64(n))
	}
}

// syncLocked flushes the pending batch and fsyncs the active segment,
// latching fail-stop on error. Caller holds l.mu and no seal is in
// flight.
func (l *Log) syncLocked() error {
	t0 := l.rec.Now()
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.active.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync: %w", err))
		return l.failed
	}
	recs, bytes := l.dirty, l.dirtyBytes
	l.dirty, l.dirtyBytes = 0, 0
	active := l.segs[len(l.segs)-1]
	l.syncedLocked(t0, active.base+active.records-1, recs, bytes)
	return nil
}

// syncedLocked accounts one interval or explicit fsync that began at t0
// and made recs records, bytes bytes, through offset last durable.
// Caller holds l.mu.
func (l *Log) syncedLocked(t0 int64, last uint64, recs int, bytes int64) {
	now := l.rec.Now()
	if l.tel != nil {
		l.tel.syncs.Inc()
		l.tel.syncLatency.ObserveDuration(time.Duration(now - t0))
	}
	l.rec.RecordAt(now, telemetry.KindWALSync, 0, last, int64(recs), now-t0, bytes, 0)
}

// Sync writes out and fsyncs every appended record now, regardless of
// policy. It waits for a seal in flight, and fsyncs under the append
// lock.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sealing != nil {
		l.sealed.Wait()
	}
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLoop is the SyncEvery background syncer: it fsyncs every
// SyncInterval and seals each segment a rotation hands over, both with
// the append lock released. It is the only goroutine that closes a
// segment before Close, so neither fsync can race a close; and Close
// waits for it to return, which it does only with no seal in flight.
func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.syncStop:
			l.sealHandedOver()
			return
		case <-l.sealReq:
			l.sealHandedOver()
		case <-t.C:
			l.intervalSync()
		}
	}
}

// sealHandedOver runs the seal a rotation handed to the syncer, if any.
func (l *Log) sealHandedOver() {
	l.mu.Lock()
	s := l.sealing
	l.mu.Unlock()
	if s != nil {
		l.seal(s)
	}
}

// intervalSync writes the batch out under the lock, then fsyncs the
// active segment without it. Appends that arrive meanwhile land after
// what this fsync covers and stay dirty for the next one.
func (l *Log) intervalSync() {
	l.mu.Lock()
	if l.closed || l.failed != nil || l.dirty == 0 || l.sealing != nil {
		l.mu.Unlock()
		return
	}
	t0 := l.rec.Now()
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return // latched; the next Append reports it
	}
	f, recs, bytes := l.active, l.dirty, l.dirtyBytes
	active := l.segs[len(l.segs)-1]
	last := active.base + active.records - 1
	l.dirty, l.dirtyBytes = 0, 0
	l.mu.Unlock()

	err := f.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.fail(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.syncedLocked(t0, last, recs, bytes)
}

// seal finishes a rotation with the append lock released: it fsyncs
// and closes the full segment, deletes the files retention trimmed,
// opens the next segment's file and fsyncs the directory, then installs
// the file and wakes whoever waits. The next file is created only after
// the fsync returns: recovery refuses a torn segment that is not the
// last one, so no byte — not even an empty file — may follow a segment
// that is not yet durable. A failure latches fail-stop and takes the
// next segment, all of it still pending, back out of the log.
func (l *Log) seal(s *seal) {
	t0 := l.rec.Now()
	err := s.f.Sync()
	if err != nil {
		err = fmt.Errorf("wal: syncing segment before rotation: %w", err)
	}
	synced := l.rec.Now()
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: closing segment: %w", cerr)
	}
	var f File
	deleted := 0
	if err == nil {
		deleted = deleteSegments(s.trash)
		f, err = l.openSegment(s.next)
		l.syncDir()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropTrashLocked(deleted)
	l.sealing = nil
	l.sealed.Broadcast()
	if err != nil {
		// The next segment never got a file. Every record counted in it
		// was pending, and fail has taken them back out; now it leaves.
		l.fail(err)
		l.segs = l.segs[:len(l.segs)-1]
		return
	}
	l.active = f
	if l.tel != nil {
		l.tel.syncLatency.ObserveDuration(time.Duration(synced - t0))
	}
	l.rec.RecordAt(synced, telemetry.KindWALSync, 0, s.last, int64(s.recs), synced-t0, s.bytes, 0)
}

// NextOffset returns the offset the next Append will assign. Every
// record with a smaller offset (down to FirstOffset) was accepted by the
// log; under SyncEvery the newest may still be in the pending batch,
// which ReadFrom writes out before it fixes a reader's range.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// FirstOffset returns the oldest offset still retained (equal to
// NextOffset when the log holds no records).
func (l *Log) FirstOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// Recovered reports what Open found on disk.
func (l *Log) Recovered() RecoveryStats { return l.recovered }

// Err returns the sticky fail-stop error, or nil while the log is
// healthy. Once non-nil it never clears: every later Append and Sync
// fails with it, so health probes can surface the root cause.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		FirstOffset: l.first,
		NextOffset:  l.next,
		Segments:    len(l.segs),
		Failed:      l.failed != nil,
	}
	for _, s := range l.segs {
		st.Bytes += s.size
	}
	return st
}

// Close stops the background syncer — after it has finished an fsync
// or a seal already under way — writes out and fsyncs what is pending
// and closes the active segment. Further appends fail with ErrClosed;
// replay readers already open keep working. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.syncStop)
	l.syncWG.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.failed == nil && l.dirty > 0 {
		err = l.syncLocked()
	}
	if l.active == nil {
		return err // a failed seal left no next file
	}
	if cerr := l.active.Close(); err == nil && cerr != nil && l.failed == nil {
		err = fmt.Errorf("wal: closing segment: %w", cerr)
	}
	return err
}

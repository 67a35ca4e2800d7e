package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/telemetry"
)

// manualTick is a SyncEvery log whose syncer never fires on its own:
// the test decides when a sync window ends by calling Sync.
func manualTick(base Options) Options {
	base.Sync, base.SyncInterval = SyncEvery, time.Hour
	return base
}

// crash abandons l the way kill -9 would: the pending batch is gone,
// nothing is written or fsynced on the way out, the syncer stops. A
// seal already handed to the syncer runs to its end first, so this is
// a crash just after it; crashImage takes one in the middle of a seal.
func crash(l *Log) {
	l.mu.Lock()
	l.pending, l.pendingRecs = nil, 0
	l.closed = true
	l.mu.Unlock()
	close(l.syncStop)
	l.syncWG.Wait()
	if l.active != nil {
		l.active.Close()
	}
}

// waitsForSeal reports whether an append of an encoded record of size
// bytes would wait for the seal in flight.
func waitsForSeal(l *Log, size int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitsForSealLocked(int64(size))
}

// copyDir copies the segment files of dir into a fresh directory and
// returns it: the image a process crash at this instant leaves, since
// what was written survives in the page cache, fsynced or not.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// syncGate wraps the segment files a log opens: while it is armed,
// every Sync announces its file on entered and blocks until the test
// sends a result on release. It logs, in order, each file's open and
// its completed Syncs.
type syncGate struct {
	mu      sync.Mutex
	armed   bool
	events  []string
	entered chan string
	release chan error
	opened  bool // release is closed: every Sync passes
}

func newSyncGate() *syncGate {
	return &syncGate{entered: make(chan string, 64), release: make(chan error)}
}

func (g *syncGate) opts(base Options) Options {
	base.OpenSegment = func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		g.event("open " + filepath.Base(path))
		return &gatedFile{File: f, g: g}, nil
	}
	return base
}

func (g *syncGate) arm(on bool) {
	g.mu.Lock()
	g.armed = on
	g.mu.Unlock()
}

func (g *syncGate) event(e string) {
	g.mu.Lock()
	g.events = append(g.events, e)
	g.mu.Unlock()
}

// await returns the name of the next file whose Sync blocks.
func (g *syncGate) await(t *testing.T) string {
	t.Helper()
	select {
	case name := <-g.entered:
		return name
	case <-time.After(10 * time.Second):
		t.Fatal("no segment fsync reached the gate")
		return ""
	}
}

// sealBlocks waits until an append of size bytes to l no longer has to
// wait for a seal (false) or the seal in flight is blocked in the armed
// gate (true).
func (g *syncGate) sealBlocks(t *testing.T, l *Log, size int) bool {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for waitsForSeal(l, size) {
		select {
		case <-g.entered:
			return true
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a seal neither finished nor reached the gate")
		}
	}
	return false
}

// open disarms the gate and lets every blocked or later Sync through.
// Registered as a cleanup, it keeps a failing test from hanging in
// Close.
func (g *syncGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = false
	if !g.opened {
		g.opened = true
		close(g.release)
	}
}

// gatedFile embeds the *os.File, so the log still sees its Fd and
// starts writeback.
type gatedFile struct {
	*os.File
	g *syncGate
}

func (f *gatedFile) Sync() error {
	f.g.mu.Lock()
	armed := f.g.armed
	f.g.mu.Unlock()
	if armed {
		f.g.entered <- filepath.Base(f.Name())
		if err := <-f.g.release; err != nil {
			return err
		}
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.g.event("synced " + filepath.Base(f.Name()))
	return nil
}

// gatedLog opens a log in a fresh directory whose segment fsyncs g
// controls; the gate opens before the log closes.
func gatedLog(t *testing.T, opts Options) (*Log, *syncGate, string) {
	t.Helper()
	g := newSyncGate()
	dir := t.TempDir()
	l := mustOpen(t, dir, g.opts(opts))
	t.Cleanup(g.open)
	return l, g, dir
}

// start runs fn in a goroutine and returns a channel closed when it
// returns.
func start(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// finishes fails the test unless done is closed within 10 s.
func finishes(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

// blocks fails the test if done is closed within 50 ms.
func blocks(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while the segment fsync was blocked", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// appendUntilRotation appends payloadFor records until the log has
// rotated once and returns the first offset of the new segment.
func appendUntilRotation(t *testing.T, l *Log) uint64 {
	t.Helper()
	segs := l.Stats().Segments
	for {
		next := l.NextOffset()
		if _, err := l.Append(next, nil, payloadFor(next)); err != nil {
			t.Fatal(err)
		}
		if l.Stats().Segments > segs {
			return next
		}
	}
}

// writtenThrough is the highest offset l has handed to the OS.
func writtenThrough(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1 - l.pendingRecs
}

// payloadFor derives a record's payload from a key (its offset or its
// trace id), 0 to 2 KiB long, so a reader can check bytes it never saw
// written.
func payloadFor(key uint64) []byte {
	x := key*0x9e3779b97f4a7c15 + 1
	p := make([]byte, (x>>40)%2048)
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// checkPrefix drains r and requires offsets first, first+1, … with the
// payloads payloadFor assigns them; it returns the last offset read
// (first-1 if none).
func checkPrefix(t *testing.T, r *Reader, first uint64) uint64 {
	t.Helper()
	want := first
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return want - 1
		}
		if err != nil {
			t.Fatalf("reading offset %d: %v", want, err)
		}
		if rec.Offset != want || !bytes.Equal(rec.Payload, payloadFor(rec.Offset)) {
			t.Fatalf("record at offset %d: got offset %d, payload intact %v", want, rec.Offset, bytes.Equal(rec.Payload, payloadFor(rec.Offset)))
		}
		want++
	}
}

// TestCrashWindowRecoversAckedPrefix: under SyncEvery a crash may lose
// acknowledged records, but only from the tail and never past the last
// write that completed. Seeded histories of appends, ticks and readers
// — on a sound disk, on one that tears batch writes, and on one where
// the crash comes while a segment seal is blocked in its fsync — are
// abandoned without Close; what recovers must be a gap-free, CRC-clean
// prefix of the acknowledged offsets that holds everything written out
// before the crash, and a live reader must never have been promised
// more than that.
func TestCrashWindowRecoversAckedPrefix(t *testing.T) {
	for _, torn := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("torn=%v/seed=%d", torn, seed), func(t *testing.T) {
				crashHistory(t, seed, torn, false)
			})
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seal/seed=%d", seed), func(t *testing.T) {
			crashHistory(t, seed, false, true)
		})
	}
}

// crashHistory runs one seeded history for
// TestCrashWindowRecoversAckedPrefix. With midSeal, segment files'
// fsyncs are gated from a seeded point on: the history then only
// appends, until an append would wait for the blocked seal, and the
// crash image is the directory as it stands at that moment.
func crashHistory(t *testing.T, seed int64, torn, midSeal bool) {
	dir := t.TempDir()
	// Small segments rotate with records pending; large ones let the
	// batch reach the flush threshold.
	opts := manualTick(Options{SegmentBytes: 64 << 10})
	if seed%2 == 0 && !midSeal {
		opts.SegmentBytes = 4 << 20
	}
	if torn {
		opts = faultOpts(faultnet.NewDisk(faultnet.DiskOptions{Seed: seed, TornWriteProb: 0.1}), opts)
	}
	var gate *syncGate
	if midSeal {
		gate = newSyncGate()
		opts = gate.opts(opts)
	}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if midSeal {
		t.Cleanup(gate.open)
	}
	rng := rand.New(rand.NewSource(seed))
	armAt := 100 + rng.Intn(1200)
	var acked, floor, promised uint64
	var failure error
	image := ""
	for i := 0; i < 1500 && failure == nil && image == ""; i++ {
		op := rng.Intn(100)
		if midSeal && i >= armAt {
			// A Sync or a reader would wait for the blocked seal.
			gate.arm(true)
			op = 99
			size := (&Record{Point: []float64{0}, Payload: payloadFor(acked + 1)}).EncodedSize()
			if gate.sealBlocks(t, l, size) {
				image = copyDir(t, dir)
				break
			}
		}
		switch {
		case op < 4: // the sync window ends
			failure = l.Sync()
		case op == 4: // a subscriber replays
			r, err := l.ReadFrom(0)
			if err != nil {
				failure = err
				break
			}
			if got := checkPrefix(t, r, 1); got != acked {
				t.Fatalf("reader saw offsets through %d, %d were acknowledged", got, acked)
			}
			promised = r.End() - 1
		default:
			off, err := l.Append(uint64(i), []float64{float64(i)}, payloadFor(acked+1))
			if err != nil {
				failure = err
				break
			}
			if off != acked+1 {
				t.Fatalf("append returned offset %d after %d", off, acked)
			}
			acked = off
		}
		if failure == nil {
			floor = max(floor, writtenThrough(l))
		}
	}
	if midSeal && image == "" {
		t.Fatal("the history ended before an append had to wait for a blocked seal")
	}
	if failure != nil {
		if !torn || !errors.Is(failure, faultnet.ErrInjectedWrite) {
			t.Fatalf("history failed: %v", failure)
		}
		// Fail-stop: the tear surfaces on the next append, and a reader
		// is promised only what is in the segment files.
		if _, err := l.Append(1, nil, nil); !errors.Is(err, faultnet.ErrInjectedWrite) {
			t.Fatalf("append after a torn batch = %v, want ErrInjectedWrite", err)
		}
		r, err := l.ReadFrom(0)
		if err != nil {
			t.Fatalf("ReadFrom after fail-stop: %v", err)
		}
		promised = checkPrefix(t, r, 1)
		if promised != r.End()-1 || promised < floor || promised > acked {
			t.Fatalf("after a torn batch the reader got through %d, End %d, written floor %d, acked %d", promised, r.End(), floor, acked)
		}
	}
	if midSeal {
		gate.open()
		dir = image
	}
	crash(l)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()
	got := l2.NextOffset() - 1
	if got < floor || got > acked || got < promised {
		t.Fatalf("recovered through offset %d; written before the crash %d, promised to a reader %d, acknowledged %d", got, floor, promised, acked)
	}
	r, err := l2.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if last := checkPrefix(t, r, 1); last != got {
		t.Fatalf("replay after recovery stopped at %d, log head is %d", last, got)
	}
	// Offsets keep rising: the lost tail's numbers are reused, never
	// skipped and never duplicated.
	if off, err := l2.Append(1, nil, payloadFor(got+1)); err != nil || off != got+1 {
		t.Fatalf("first append after recovery = %d, %v; want %d", off, err, got+1)
	}
}

// TestReadFromWritesOutPendingRecords: a reader opened right after N
// appends gets all N although no tick has run, because ReadFrom writes
// the batch out under the lock hold that fixes its range.
func TestReadFromWritesOutPendingRecords(t *testing.T) {
	l := mustOpen(t, t.TempDir(), manualTick(Options{}))
	for off := uint64(1); off <= 100; off++ {
		if _, err := l.Append(off, nil, payloadFor(off)); err != nil {
			t.Fatal(err)
		}
	}
	if w := writtenThrough(l); w != 0 {
		t.Fatalf("%d records reached the OS before anyone asked: appends are not batched", w)
	}
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.End() != 101 || writtenThrough(l) != 100 {
		t.Fatalf("reader End = %d, written through %d; want 101 and 100", r.End(), writtenThrough(l))
	}
	if last := checkPrefix(t, r, 1); last != 100 {
		t.Fatalf("reader stopped at offset %d, want 100", last)
	}
}

// TestBatchIsBoundedByFlushThreshold: with no tick at all the pending
// batch never reaches flushThreshold — the append that fills it writes
// it out — so the log buffers a bounded amount and one append in a
// thousand pays a write.
func TestBatchIsBoundedByFlushThreshold(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := mustOpen(t, t.TempDir(), manualTick(Options{Metrics: reg}))
	payload := make([]byte, 1024)
	const n = 4000
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, nil, payload); err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		held := len(l.pending)
		l.mu.Unlock()
		if held >= flushThreshold {
			t.Fatalf("after append %d the batch holds %d bytes, threshold is %d", i, held, flushThreshold)
		}
	}
	rec := Record{Payload: payload}
	want := float64(n * rec.EncodedSize() / flushThreshold)
	if f := reg.CounterValue("pubsub_wal_flushes_total"); f != want {
		t.Fatalf("%g flushes for %d KiB-sized appends, want %g", f, n, want)
	}
}

// TestReaderNeverSeesPartialRecord: while appenders and the syncer keep
// running, every reader yields exactly the offsets below its End, whole
// and in order, and its End covers every offset assigned before it was
// opened.
func TestReaderNeverSeesPartialRecord(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{Sync: SyncEvery, SyncInterval: time.Millisecond, SegmentBytes: 256 << 10})
	const appenders, each = 4, 600
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(a*each + i + 1)
				if _, err := l.Append(id, nil, payloadFor(id)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last reader, over everything
		default:
		}
		assigned := l.NextOffset()
		r, err := l.ReadFrom(0)
		if err != nil {
			t.Fatal(err)
		}
		if r.End() < assigned {
			t.Fatalf("reader End %d is below offset %d assigned before it opened", r.End(), assigned)
		}
		want := uint64(1)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reader with End %d at offset %d: %v", r.End(), want, err)
			}
			if rec.Offset != want || !bytes.Equal(rec.Payload, payloadFor(rec.TraceID)) {
				t.Fatalf("reader with End %d: record %d damaged (offset %d)", r.End(), want, rec.Offset)
			}
			want++
		}
		if want != r.End() {
			t.Fatalf("reader stopped at %d, its End is %d", want, r.End())
		}
		if finished && want != appenders*each+1 {
			t.Fatalf("final reader stopped at %d, want %d", want, appenders*each+1)
		}
	}
}

// TestRotationAndRetentionWithRecordsPending: segment sizes, FirstOffset
// and Stats are decided at append time, so the same input leaves the
// same files whether every record is written through (SyncNever, the
// parent's path) or batches sit pending across rotations (SyncEvery
// with no tick).
func TestRotationAndRetentionWithRecordsPending(t *testing.T) {
	type outcome struct {
		stats Stats
		files map[string]int64
	}
	run := func(opts Options) outcome {
		dir := t.TempDir()
		opts.SegmentBytes, opts.RetentionBytes = 20<<10, 70<<10
		l := mustOpen(t, dir, opts)
		for off := uint64(1); off <= 300; off++ {
			if _, err := l.Append(off, []float64{1, 2}, payloadFor(off)); err != nil {
				t.Fatal(err)
			}
		}
		out := outcome{stats: l.Stats(), files: map[string]int64{}}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range entries {
			info, err := os.Stat(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out.files[e.Name()] = info.Size()
			total += info.Size()
		}
		if total != out.stats.Bytes {
			t.Fatalf("%v: Stats().Bytes = %d, the files hold %d", opts.Sync, out.stats.Bytes, total)
		}
		return out
	}
	through, batched := run(Options{Sync: SyncNever}), run(manualTick(Options{}))
	if through.stats != batched.stats {
		t.Fatalf("Stats differ: written through %+v, batched %+v", through.stats, batched.stats)
	}
	if through.stats.FirstOffset == 1 || through.stats.Segments < 3 {
		t.Fatalf("input too small to rotate and trim: %+v", through.stats)
	}
	if fmt.Sprint(through.files) != fmt.Sprint(batched.files) {
		t.Fatalf("segment files differ:\nwritten through %v\nbatched         %v", through.files, batched.files)
	}
}

// TestFailedBatchWriteIsFailStop: a batch the OS refuses latches the
// log, surfaces on the next Append, and takes its records back out of
// what readers are promised.
func TestFailedBatchWriteIsFailStop(t *testing.T) {
	d := faultnet.NewDisk(faultnet.DiskOptions{FailWriteAfter: 2})
	l := mustOpen(t, t.TempDir(), faultOpts(d, manualTick(Options{})))
	appendN(t, l, 3)
	if err := l.Sync(); err != nil { // write 1 lands
		t.Fatal(err)
	}
	appendN(t, l, 4) // acknowledged, pending
	if err := l.Sync(); !errors.Is(err, faultnet.ErrInjectedWrite) {
		t.Fatalf("Sync over a failing batch write = %v, want ErrInjectedWrite", err)
	}
	if _, err := l.Append(1, nil, nil); !errors.Is(err, faultnet.ErrInjectedWrite) {
		t.Fatalf("append after a failed batch write = %v, want ErrInjectedWrite", err)
	}
	if st := l.Stats(); !st.Failed || st.NextOffset != 4 {
		t.Fatalf("Stats = %+v, want Failed with the lost batch taken back (NextOffset 4)", st)
	}
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if recs := drain(t, r); len(recs) != 3 {
		t.Fatalf("replay after fail-stop: %d records, want the 3 that were written", len(recs))
	}
}

// TestBatchMetrics: flushes and flushed bytes count write calls, not
// records, and a wal_sync record carries the batch it made durable.
func TestBatchMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(64)
	l := mustOpen(t, t.TempDir(), manualTick(Options{Metrics: reg, Recorder: rec}))
	appendN(t, l, 5)
	if f := reg.CounterValue("pubsub_wal_flushes_total"); f != 0 {
		t.Fatalf("%g flushes before any tick", f)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	bytes := float64(l.Stats().Bytes)
	if f, b := reg.CounterValue("pubsub_wal_flushes_total"), reg.CounterValue("pubsub_wal_flushed_bytes_total"); f != 1 || b != bytes {
		t.Fatalf("one tick over 5 records: %g flushes, %g bytes; want 1 and %g", f, b, bytes)
	}
	if a, b := reg.CounterValue("pubsub_wal_appends_total"), reg.CounterValue("pubsub_wal_appended_bytes_total"); a != 5 || b != bytes {
		t.Fatalf("appends = %g, appended bytes = %g; want 5 and %g", a, b, bytes)
	}
	syncs := rec.SnapshotFilter(0, telemetry.KindWALSync, 0)
	if len(syncs) != 1 || syncs[0].Seq != 5 || syncs[0].Args[0] != 5 || float64(syncs[0].Args[2]) != bytes {
		t.Fatalf("wal_sync records = %+v, want one for offset 5 with 5 records and %g bytes", syncs, bytes)
	}
}

// TestAppendDoesNotWaitForFsync: under SyncEvery no fsync runs under
// the append lock. While the interval fsync is blocked, appends go on,
// threshold flushes included; while a segment's seal is blocked in its
// fsync, the append that rotated returns at once and appends go on
// filling the batch up to flushThreshold — only the one that would
// reach it waits, and it returns once the seal is over.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	payload := make([]byte, 1000)
	size := (&Record{Payload: payload}).EncodedSize()
	appendKiB := func(l *Log, n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append(1, nil, payload); err != nil {
				t.Error(err)
				return
			}
		}
	}

	t.Run("interval", func(t *testing.T) {
		l, g, _ := gatedLog(t, Options{Sync: SyncEvery, SyncInterval: time.Millisecond})
		g.arm(true)
		appendKiB(l, 1)
		g.await(t)
		finishes(t, start(func() { appendKiB(l, 2*flushThreshold/size) }), "2 MiB of appends behind a blocked interval fsync")
		g.open()
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := l.NextOffset(), uint64(1+2*flushThreshold/size+1); got != want {
			t.Fatalf("NextOffset = %d, want %d", got, want)
		}
	})

	t.Run("seal", func(t *testing.T) {
		const segBytes = 2 << 20
		l, g, _ := gatedLog(t, manualTick(Options{SegmentBytes: segBytes}))
		g.arm(true)
		perSeg := segBytes / size             // records the first segment takes
		beside := (flushThreshold - 1) / size // records the batch takes beside a seal
		finishes(t, start(func() { appendKiB(l, perSeg+beside) }), "filling a segment and the batch behind its blocked seal")
		g.await(t)
		if n := l.NextOffset() - 1; n != uint64(perSeg+beside) {
			t.Fatalf("%d records acknowledged, want %d", n, perSeg+beside)
		}
		l.mu.Lock()
		held := len(l.pending)
		l.mu.Unlock()
		if held+size < flushThreshold {
			t.Fatalf("the batch holds %d bytes: the next append would not fill it", held)
		}
		filling := start(func() { appendKiB(l, 1) })
		blocks(t, filling, "the append that fills the batch")
		g.arm(false)
		g.release <- nil
		finishes(t, filling, "the append that fills the batch, after the seal")
		if n := l.NextOffset() - 1; n != uint64(perSeg+beside+1) {
			t.Fatalf("%d records acknowledged, want %d", n, perSeg+beside+1)
		}
	})
}

// TestSealWritesNextSegmentOnlyAfterFsync: recovery refuses a torn
// segment that is not the log's last, so no byte — not even an empty
// file — of segment N+1 may exist before segment N's fsync has
// returned. While a seal is blocked, N+1's file does not exist; over
// many rotations the gate's event log opens each segment only after
// its predecessor's fsync returned.
func TestSealWritesNextSegmentOnlyAfterFsync(t *testing.T) {
	l, g, dir := gatedLog(t, manualTick(Options{SegmentBytes: 16 << 10}))
	g.arm(true)
	base := appendUntilRotation(t, l)
	g.await(t)
	if _, err := os.Stat(segmentPath(dir, base)); !os.IsNotExist(err) {
		t.Fatalf("segment %d's file exists while its predecessor's fsync is blocked (stat: %v)", base, err)
	}
	g.open()
	for i := 0; i < 20; i++ {
		appendUntilRotation(t, l)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	g.mu.Lock()
	events := slices.Clone(g.events)
	g.mu.Unlock()
	synced := map[string]bool{}
	var prev string
	rotations := 0
	for _, e := range events {
		kind, name, _ := strings.Cut(e, " ")
		switch kind {
		case "synced":
			synced[name] = true
		case "open":
			if prev != "" && !synced[prev] {
				t.Fatalf("%s opened before %s's fsync returned:\n%s", name, prev, strings.Join(events, "\n"))
			}
			if prev != "" {
				rotations++
			}
			prev = name
		}
	}
	if rotations < 20 {
		t.Fatalf("%d rotations in the event log, want at least 20", rotations)
	}
}

// TestReadFromWaitsForSeal: a reader asked for during a seal returns
// only after it, when every segment of its range has a file, and its
// End covers every offset assigned before the call.
func TestReadFromWaitsForSeal(t *testing.T) {
	l, g, _ := gatedLog(t, manualTick(Options{SegmentBytes: 64 << 10}))
	g.arm(true)
	appendUntilRotation(t, l)
	for i := 0; i < 5; i++ {
		next := l.NextOffset()
		if _, err := l.Append(next, nil, payloadFor(next)); err != nil {
			t.Fatal(err)
		}
	}
	g.await(t)
	assigned := l.NextOffset()
	var r *Reader
	var err error
	reading := start(func() { r, err = l.ReadFrom(0) })
	blocks(t, reading, "ReadFrom")
	g.arm(false)
	g.release <- nil
	finishes(t, reading, "ReadFrom after the seal")
	if err != nil {
		t.Fatal(err)
	}
	if r.End() < assigned {
		t.Fatalf("reader End %d is below offset %d assigned before it was asked for", r.End(), assigned)
	}
	if last := checkPrefix(t, r, 1); last != r.End()-1 {
		t.Fatalf("reader stopped at %d, End is %d", last, r.End())
	}
}

// TestCloseWaitsForSeal: Close returns only after a seal in flight is
// over, and what it leaves recovers in full.
func TestCloseWaitsForSeal(t *testing.T) {
	l, g, dir := gatedLog(t, manualTick(Options{SegmentBytes: 64 << 10}))
	g.arm(true)
	appendUntilRotation(t, l)
	g.await(t)
	acked := l.NextOffset() - 1
	var err error
	closing := start(func() { err = l.Close() })
	blocks(t, closing, "Close")
	g.arm(false)
	g.release <- nil
	finishes(t, closing, "Close after the seal")
	if err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	if got := l2.NextOffset() - 1; got != acked {
		t.Fatalf("recovered through %d, %d were acknowledged", got, acked)
	}
}

// TestFailedSealIsFailStop: a seal whose fsync fails latches the log,
// and the next segment — never given a file, every record in it still
// pending — leaves the accounting: NextOffset steps back to what the
// files hold, readers and recovery agree with it.
func TestFailedSealIsFailStop(t *testing.T) {
	l, g, dir := gatedLog(t, manualTick(Options{SegmentBytes: 64 << 10}))
	g.arm(true)
	base := appendUntilRotation(t, l)
	for i := 0; i < 5; i++ {
		next := l.NextOffset()
		if _, err := l.Append(next, nil, payloadFor(next)); err != nil {
			t.Fatal(err)
		}
	}
	g.await(t)
	g.arm(false)
	g.release <- faultnet.ErrInjectedSync
	if err := l.Sync(); !errors.Is(err, faultnet.ErrInjectedSync) {
		t.Fatalf("Sync after a failed seal = %v, want ErrInjectedSync", err)
	}
	if _, err := l.Append(1, nil, nil); !errors.Is(err, faultnet.ErrInjectedSync) {
		t.Fatalf("append after a failed seal = %v, want ErrInjectedSync", err)
	}
	if st := l.Stats(); !st.Failed || st.NextOffset != base || st.Segments != 1 {
		t.Fatalf("Stats = %+v, want Failed, NextOffset %d and the one sealed segment", st, base)
	}
	if _, err := os.Stat(segmentPath(dir, base)); !os.IsNotExist(err) {
		t.Fatalf("the failed seal left segment %d's file (stat: %v)", base, err)
	}
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if last := checkPrefix(t, r, 1); last != base-1 || r.End() != base {
		t.Fatalf("reader after a failed seal stopped at %d with End %d, want %d and %d", last, r.End(), base-1, base)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{})
	if got := l2.NextOffset(); got != base {
		t.Fatalf("recovery's NextOffset = %d, want %d", got, base)
	}
}

// TestIntervalFsyncFailureBeforeSeal: the interval fsync fails while a
// rotation has handed the segment to the syncer behind it. The log
// fail-stops at once, the next segment's pending records leave it, and
// the seal that still runs afterwards leaves the files and the
// accounting in agreement.
func TestIntervalFsyncFailureBeforeSeal(t *testing.T) {
	l, g, dir := gatedLog(t, Options{Sync: SyncEvery, SyncInterval: time.Millisecond, SegmentBytes: 64 << 10})
	g.arm(true)
	if _, err := l.Append(1, nil, payloadFor(1)); err != nil {
		t.Fatal(err)
	}
	g.await(t) // the interval fsync
	base := appendUntilRotation(t, l)
	for i := 0; i < 3; i++ {
		next := l.NextOffset()
		if _, err := l.Append(next, nil, payloadFor(next)); err != nil {
			t.Fatal(err)
		}
	}
	g.release <- faultnet.ErrInjectedSync
	g.await(t) // the seal's fsync, after the failure
	g.arm(false)
	g.release <- nil
	if err := l.Sync(); !errors.Is(err, faultnet.ErrInjectedSync) {
		t.Fatalf("Sync after a failed interval fsync = %v, want ErrInjectedSync", err)
	}
	st := l.Stats()
	if !st.Failed || st.NextOffset != base {
		t.Fatalf("Stats = %+v, want Failed and NextOffset %d", st, base)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.Segments {
		t.Fatalf("%d segment files, Stats counts %d", len(entries), st.Segments)
	}
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if last := checkPrefix(t, r, 1); last != base-1 {
		t.Fatalf("reader stopped at %d, want %d", last, base-1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustOpen(t, dir, Options{}).NextOffset(); got != base {
		t.Fatalf("recovery's NextOffset = %d, want %d", got, base)
	}
}

package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
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
// nothing is written or fsynced on the way out, the syncer stops.
func crash(l *Log) {
	l.mu.Lock()
	l.pending, l.pendingRecs = nil, 0
	l.closed = true
	close(l.syncStop)
	l.active.Close()
	l.mu.Unlock()
	l.syncWG.Wait()
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
// write that completed. Twenty seeded histories of appends, ticks and
// readers — on a sound disk and on one that tears batch writes — are
// abandoned without Close; what recovers must be a gap-free, CRC-clean
// prefix of the acknowledged offsets that holds everything written out
// before the crash, and a live reader must never have been promised
// more than that.
func TestCrashWindowRecoversAckedPrefix(t *testing.T) {
	for _, torn := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("torn=%v/seed=%d", torn, seed), func(t *testing.T) {
				dir := t.TempDir()
				// Small segments rotate with records pending; large ones let
				// the batch reach the flush threshold.
				opts := manualTick(Options{SegmentBytes: 64 << 10})
				if seed%2 == 0 {
					opts.SegmentBytes = 4 << 20
				}
				if torn {
					opts = faultOpts(faultnet.NewDisk(faultnet.DiskOptions{Seed: seed, TornWriteProb: 0.1}), opts)
				}
				l, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				var acked, floor, promised uint64
				var failure error
				for i := 0; i < 1500 && failure == nil; i++ {
					switch op := rng.Intn(100); {
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
				if failure != nil {
					if !torn || !errors.Is(failure, faultnet.ErrInjectedWrite) {
						t.Fatalf("history failed: %v", failure)
					}
					// Fail-stop: the tear surfaces on the next append, and a
					// reader is promised only what is in the segment files.
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
				// Offsets keep rising: the lost tail's numbers are reused,
				// never skipped and never duplicated.
				if off, err := l2.Append(1, nil, payloadFor(got+1)); err != nil || off != got+1 {
					t.Fatalf("first append after recovery = %d, %v; want %d", off, err, got+1)
				}
			})
		}
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

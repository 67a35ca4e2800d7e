package wal

import (
	"errors"
	"fmt"
	"io"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// faultOpts wires a faultnet disk controller into a log's segment
// opener: every active segment the log creates is fault-injected.
func faultOpts(d *faultnet.Disk, base Options) Options {
	base.OpenSegment = func(path string) (File, error) {
		return d.Create(path)
	}
	return base
}

// TestAppendFailStopOnSyncError: under -fsync always, the first fsync
// failure must refuse that append AND every later one — an
// acknowledged-but-not-durable publication must be impossible.
func TestAppendFailStopOnSyncError(t *testing.T) {
	d := faultnet.NewDisk(faultnet.DiskOptions{FailSyncAfter: 3})
	l := mustOpen(t, t.TempDir(), faultOpts(d, Options{Sync: SyncAlways}))
	appendN(t, l, 2) // syncs 1 and 2 succeed
	if _, err := l.Append(9, []float64{1}, []byte("doomed")); !errors.Is(err, faultnet.ErrInjectedSync) {
		t.Fatalf("append over failing fsync = %v, want ErrInjectedSync", err)
	}
	// Fail-stop is sticky: later appends fail even though the disk's
	// write path still works.
	if _, err := l.Append(10, []float64{1}, []byte("also doomed")); err == nil {
		t.Fatal("append after fsync failure succeeded: silent durability loss")
	}
	if st := l.Stats(); !st.Failed || st.NextOffset != 3 {
		t.Fatalf("Stats = %+v, want Failed with NextOffset 3", st)
	}
	// Explicit Sync reports the latched error too.
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after fail-stop returned nil")
	}
	// The durable prefix stays replayable.
	r, err := l.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if recs := drain(t, r); len(recs) != 2 {
		t.Fatalf("replay after fail-stop: %d records, want the 2 acked ones", len(recs))
	}
}

// TestAppendENOSPC: running out of space fails the append with an
// ENOSPC-wrapping error, latches fail-stop, and recovery truncates the
// torn crossing write.
func TestAppendENOSPC(t *testing.T) {
	dir := t.TempDir()
	d := faultnet.NewDisk(faultnet.DiskOptions{WriteLimitBytes: 150})
	l := mustOpen(t, dir, faultOpts(d, Options{Sync: SyncNever}))
	var acked uint64
	var lastErr error
	for i := 0; i < 100; i++ {
		off, err := l.Append(uint64(i), []float64{float64(i)}, []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			lastErr = err
			break
		}
		acked = off
	}
	if lastErr == nil {
		t.Fatal("never hit the byte budget")
	}
	if !errors.Is(lastErr, syscall.ENOSPC) {
		t.Fatalf("append error %v does not unwrap to ENOSPC", lastErr)
	}
	if _, err := l.Append(1, nil, nil); err == nil {
		t.Fatal("append after ENOSPC succeeded")
	}
	l.Close()

	// Recovery over the real files: the torn crossing write is truncated;
	// every acked record survives.
	l2 := mustOpen(t, dir, Options{})
	if got := l2.NextOffset() - 1; got != acked {
		t.Fatalf("recovered %d records, acked %d", got, acked)
	}
	if l2.Recovered().TruncatedBytes == 0 {
		t.Fatal("recovery reports no truncation despite the torn ENOSPC write")
	}
}

// TestTornWritesNeverLoseAckedRecords drives appends over a disk that
// tears writes randomly; whenever an append is acked it must survive
// recovery, and whenever it fails nothing after it may survive.
func TestTornWritesNeverLoseAckedRecords(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		d := faultnet.NewDisk(faultnet.DiskOptions{Seed: seed, TornWriteProb: 0.2})
		l, err := Open(dir, faultOpts(d, Options{Sync: SyncNever}))
		if err != nil {
			t.Fatal(err)
		}
		var acked uint64
		for i := 0; i < 50; i++ {
			off, err := l.Append(uint64(i), []float64{float64(i)}, []byte(fmt.Sprintf("p%d", i)))
			if err != nil {
				break
			}
			acked = off
		}
		l.Close()

		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		if got := l2.NextOffset() - 1; got != acked {
			t.Fatalf("seed %d: recovered %d records, acked %d", seed, got, acked)
		}
		r, _ := l2.ReadFrom(0)
		for want := uint64(1); ; want++ {
			rec, err := r.Next()
			if err == io.EOF {
				if want != acked+1 {
					t.Fatalf("seed %d: replay stopped at %d, want %d", seed, want-1, acked)
				}
				break
			}
			if err != nil {
				t.Fatalf("seed %d: replay: %v", seed, err)
			}
			if rec.Offset != want || string(rec.Payload) != fmt.Sprintf("p%d", want-1) {
				t.Fatalf("seed %d: replayed record %d corrupted", seed, want)
			}
		}
		l2.Close()
	}
}

// TestWriteErrorIsFailStop: a plain write error (no bytes land) latches
// the log exactly like a sync error.
func TestWriteErrorIsFailStop(t *testing.T) {
	d := faultnet.NewDisk(faultnet.DiskOptions{FailWriteAfter: 3})
	l := mustOpen(t, t.TempDir(), faultOpts(d, Options{Sync: SyncNever}))
	appendN(t, l, 2)
	if _, err := l.Append(1, nil, nil); !errors.Is(err, faultnet.ErrInjectedWrite) {
		t.Fatalf("append = %v, want ErrInjectedWrite", err)
	}
	if _, err := l.Append(1, nil, nil); !errors.Is(err, faultnet.ErrInjectedWrite) {
		t.Fatalf("fail-stop not sticky: %v", err)
	}
}

// TestIntervalSyncFailureSurfacesOnAppend: under -fsync interval the
// background syncer hits the error — on the fsync or on the batch write
// before it; the next append must report it rather than keep acking
// undurable publications.
func TestIntervalSyncFailureSurfacesOnAppend(t *testing.T) {
	for _, tc := range []struct {
		name string
		disk faultnet.DiskOptions
		want error
	}{
		{"fsync", faultnet.DiskOptions{FailSyncAfter: 1}, faultnet.ErrInjectedSync},
		{"batch write", faultnet.DiskOptions{FailWriteAfter: 1}, faultnet.ErrInjectedWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := faultnet.NewDisk(tc.disk)
			l := mustOpen(t, t.TempDir(), faultOpts(d, Options{Sync: SyncEvery, SyncInterval: time.Millisecond}))
			appendN(t, l, 1)
			deadline := 2000
			for i := 0; ; i++ {
				if _, err := l.Append(1, nil, nil); err != nil {
					if !errors.Is(err, tc.want) {
						t.Fatalf("append = %v, want %v", err, tc.want)
					}
					break
				}
				if i >= deadline {
					t.Fatal("background sync failure never surfaced on Append")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// errInjectedClose is the Close failure closeFaults injects.
var errInjectedClose = errors.New("wal test: injected close failure")

// closeFaults wires a log's segment opener to faultnet files whose
// Close fails after closing the file: the one fault the disk controller
// leaves out.
func closeFaults(base Options) Options {
	d := faultnet.NewDisk(faultnet.DiskOptions{})
	base.OpenSegment = func(path string) (File, error) {
		f, err := d.Create(path)
		if err != nil {
			return nil, err
		}
		return failingClose{f}, nil
	}
	return base
}

type failingClose struct{ *faultnet.FaultFile }

func (f failingClose) Close() error {
	if err := f.FaultFile.Close(); err != nil {
		return err
	}
	return errInjectedClose
}

// checkFailedRotation requires that l, which acknowledged offset 1 and
// then failed to retire its first segment with want, holds only that
// segment, has not advanced NextOffset, refuses later appends with the
// latched error, and recovers from dir to the same end.
func checkFailedRotation(t *testing.T, l *Log, dir string, want error) {
	t.Helper()
	// Sync waits for a seal in flight.
	if err := l.Sync(); !errors.Is(err, want) {
		t.Fatalf("Sync after the failed rotation = %v, want the latched %v", err, want)
	}
	if st := l.Stats(); !st.Failed || st.NextOffset != 2 || st.Segments != 1 {
		t.Fatalf("Stats = %+v, want Failed, NextOffset 2 and the one segment", st)
	}
	if _, err := l.Append(3, nil, nil); !errors.Is(err, want) {
		t.Fatalf("append after the failed rotation = %v, want the latched %v", err, want)
	}
	_ = l.Close()
	if got := mustOpen(t, dir, Options{}).NextOffset(); got != 2 {
		t.Fatalf("recovery's NextOffset = %d, want 2", got)
	}
}

// TestRotationFaultIsFailStop: under -fsync always and never a rotation
// fsyncs and closes the full segment before it opens the next one. If
// either fails, the append that rotates fails with that error, nothing
// past the full segment is written, and the log fail-stops.
func TestRotationFaultIsFailStop(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		for _, tc := range []struct {
			name string
			opts func(base Options) Options
			want error
		}{
			{"fsync", func(base Options) Options {
				// The rotation's fsync is the first one under never, the
				// second (after the first append's) under always.
				failAt := 1
				if policy == SyncAlways {
					failAt = 2
				}
				return faultOpts(faultnet.NewDisk(faultnet.DiskOptions{FailSyncAfter: failAt}), base)
			}, faultnet.ErrInjectedSync},
			{"close", func(base Options) Options {
				return closeFaults(base)
			}, errInjectedClose},
		} {
			t.Run(fmt.Sprintf("%v/%s", policy, tc.name), func(t *testing.T) {
				dir := t.TempDir()
				// One record fills a segment: the second append rotates.
				l := mustOpen(t, dir, tc.opts(Options{Sync: policy, SegmentBytes: 1}))
				appendN(t, l, 1)
				if _, err := l.Append(2, nil, nil); !errors.Is(err, tc.want) {
					t.Fatalf("rotating append = %v, want %v", err, tc.want)
				}
				checkFailedRotation(t, l, dir, tc.want)
			})
		}
	}
}

// TestSealCloseFailureIsFailStop: under -fsync interval the syncer seals
// the full segment after the rotating append was acknowledged from
// memory. A seal whose Close fails latches the log like a failed fsync:
// the next segment never gets a file, the acknowledged record pending
// for it leaves the accounting, and NextOffset steps back to where it
// stood before the rotating append.
func TestSealCloseFailureIsFailStop(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, closeFaults(manualTick(Options{SegmentBytes: 1})))
	appendN(t, l, 1)
	// The second append rotates: it hands the first segment to the syncer.
	if _, err := l.Append(2, nil, nil); err != nil {
		t.Fatalf("rotating append = %v, want an acknowledgement", err)
	}
	checkFailedRotation(t, l, dir, errInjectedClose)
}

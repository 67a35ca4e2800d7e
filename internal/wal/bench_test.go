package wal

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/telemetry"
)

// benchLog opens a log shaped like the ledger's durable workload (8 MiB
// segments, 128 MiB retention) with a private recorder, and a 1 KiB
// payload to append to it.
func benchLog(b *testing.B, policy SyncPolicy) (*Log, []float64, []byte) {
	b.Helper()
	l, err := Open(b.TempDir(), Options{
		Sync:           policy,
		SegmentBytes:   8 << 20,
		RetentionBytes: 128 << 20,
		Recorder:       telemetry.NewRecorder(1024),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l, []float64{101.5, 2500}, make([]byte, 1024)
}

// BenchmarkAppend is one appender under each sync policy. Under
// interval the steady state must not allocate: the record is encoded in
// place on the pending batch.
func BenchmarkAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncEvery, SyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			l, point, payload := benchLog(b, policy)
			rec := Record{Point: point, Payload: payload}
			b.SetBytes(int64(rec.EncodedSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(uint64(i), point, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendParallel is GOMAXPROCS appenders contending for the
// append lock, which under interval is now held for an encode and not
// for a system call.
func BenchmarkAppendParallel(b *testing.B) {
	b.Run(SyncEvery.String(), func(b *testing.B) {
		l, point, payload := benchLog(b, SyncEvery)
		rec := Record{Point: point, Payload: payload}
		b.SetBytes(int64(rec.EncodedSize()))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := l.Append(1, point, payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkReadFrom reads a log of 100 000 small records, the ones
// internal/wire's BenchmarkResume replays over loopback, from its first
// offset to its end in-process. Its records/s is the bound that resume
// rate is read against.
func BenchmarkReadFrom(b *testing.B) {
	const history = 100_000
	l, err := Open(b.TempDir(), Options{Sync: SyncNever, Recorder: telemetry.NewRecorder(512)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	for i := 1; i <= history; i++ {
		if _, err := l.Append(0, []float64{float64(i%10 + 1)}, []byte(fmt.Sprintf("e%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := l.ReadFrom(1)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if n != history {
			b.Fatalf("read %d records, want %d", n, history)
		}
	}
	b.ReportMetric(float64(history*b.N)/b.Elapsed().Seconds(), "records/s")
}

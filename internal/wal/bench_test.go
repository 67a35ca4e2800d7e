package wal

import (
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

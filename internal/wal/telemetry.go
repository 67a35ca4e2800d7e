package wal

import (
	"repro/internal/telemetry"
)

// walTel bundles the log's metric handles. A nil *walTel is the
// disabled state: call sites nil-check before touching it, so a log
// without a registry pays nothing beyond its own bookkeeping.
type walTel struct {
	appends          *telemetry.Counter
	appendedBytes    *telemetry.Counter
	appendLatency    *telemetry.Histogram
	flushes          *telemetry.Counter
	flushedBytes     *telemetry.Counter
	syncs            *telemetry.Counter
	syncLatency      *telemetry.Histogram
	rotations        *telemetry.Counter
	retentionDeletes *telemetry.Counter
	recoveredRecords *telemetry.Counter
	truncatedBytes   *telemetry.Counter
	replays          *telemetry.Counter
	replayedRecords  *telemetry.Counter
	failedState      *telemetry.Gauge
}

// newWALTel registers the log's metric families against reg plus
// scrape-time gauges reading l's state. Nil reg disables metrics.
func newWALTel(l *Log, reg *telemetry.Registry) *walTel {
	if reg == nil {
		return nil
	}
	t := &walTel{
		appends: reg.Counter("pubsub_wal_appends_total",
			"Records appended to the publication log."),
		appendedBytes: reg.Counter("pubsub_wal_appended_bytes_total",
			"Bytes appended to the publication log."),
		appendLatency: reg.Histogram("pubsub_wal_append_seconds",
			"Log append latency including the write under the never policy, the write and fsync under always.", telemetry.LatencyBuckets()),
		flushes: reg.Counter("pubsub_wal_flushes_total",
			"Batch writes issued against the active segment; appends per flush is records per write."),
		flushedBytes: reg.Counter("pubsub_wal_flushed_bytes_total",
			"Bytes handed to the operating system by batch writes."),
		syncs: reg.Counter("pubsub_wal_syncs_total",
			"Interval and explicit fsyncs of the active segment; segment seals are counted in pubsub_wal_segment_rotations_total."),
		syncLatency: reg.Histogram("pubsub_wal_sync_seconds",
			"fsync latency: interval and explicit fsyncs, including the batch write before them, and under the interval policy the seal fsync of each full segment; interval and seal fsyncs run with the append lock released.", telemetry.LatencyBuckets()),
		rotations: reg.Counter("pubsub_wal_segment_rotations_total",
			"Active segment rotations."),
		retentionDeletes: reg.Counter("pubsub_wal_segments_deleted_total",
			"Sealed segments deleted by retention."),
		recoveredRecords: reg.Counter("pubsub_wal_recovered_records_total",
			"Records accepted by boot-time recovery."),
		truncatedBytes: reg.Counter("pubsub_wal_truncated_bytes_total",
			"Torn-tail bytes truncated by boot-time recovery."),
		replays: reg.Counter("pubsub_wal_replays_total",
			"Replay readers opened."),
		replayedRecords: reg.Counter("pubsub_wal_replayed_records_total",
			"Records streamed to replay readers."),
		failedState: reg.Gauge("pubsub_wal_failed",
			"1 when the log has fail-stopped on an I/O error."),
	}
	reg.GaugeFunc("pubsub_wal_segments",
		"Segment files in the publication log.", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return float64(len(l.segs))
		})
	reg.GaugeFunc("pubsub_wal_first_offset",
		"Oldest offset still replayable.", func() float64 {
			return float64(l.FirstOffset())
		})
	reg.GaugeFunc("pubsub_wal_next_offset",
		"Offset the next append will be assigned.", func() float64 {
			return float64(l.NextOffset())
		})
	reg.GaugeFunc("pubsub_wal_bytes",
		"Total bytes across all segments.", func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			total := int64(0)
			for _, s := range l.segs {
				total += s.size
			}
			return float64(total)
		})
	return t
}

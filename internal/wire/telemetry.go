package wire

import (
	"net"

	"repro/internal/telemetry"
)

// wireTel bundles the server's metric handles. A nil *wireTel disables
// instrumentation: the handle methods and the nil-safe collectors make
// every record site a single nil check.
type wireTel struct {
	activeConns     *telemetry.Gauge
	connsTotal      *telemetry.Counter
	bytesIn         *telemetry.Counter
	bytesOut        *telemetry.Counter
	framesIn        *telemetry.Counter
	framesOut       *telemetry.Counter
	eventsOut       *telemetry.Counter
	writeLatency    *telemetry.Histogram
	keepaliveMisses *telemetry.Counter
	// stageWrite is the waterfall's subscriber-socket-write stage
	// (shared pubsub_stage_seconds family; the broker registers the
	// upstream stages). Event frames only, with the frame's trace id
	// as the bucket exemplar.
	stageWrite *telemetry.Histogram
}

func newWireTel(reg *telemetry.Registry) *wireTel {
	if reg == nil {
		return nil
	}
	return &wireTel{
		activeConns: reg.Gauge("pubsub_wire_active_connections",
			"Currently open server connections."),
		connsTotal: reg.Counter("pubsub_wire_connections_total",
			"Connections accepted since start."),
		bytesIn: reg.Counter("pubsub_wire_bytes_read_total",
			"Bytes read from peers."),
		bytesOut: reg.Counter("pubsub_wire_bytes_written_total",
			"Bytes written to peers."),
		framesIn: reg.Counter("pubsub_wire_frames_read_total",
			"Frames read from peers."),
		framesOut: reg.Counter("pubsub_wire_frames_written_total",
			"Frames written to peers."),
		eventsOut: reg.Counter("pubsub_wire_events_written_total",
			"Event deliveries written to peers: one per event frame, or per subscription id of a grouped frame."),
		writeLatency: reg.Histogram("pubsub_wire_write_seconds",
			"Frame write latency, including any deadline wait.", telemetry.LatencyBuckets()),
		keepaliveMisses: reg.Counter("pubsub_wire_keepalive_misses_total",
			"Connections evicted because the peer sent nothing within the idle timeout."),
		stageWrite: telemetry.StageHistogram(reg, telemetry.StageWrite),
	}
}

// countingConn wraps a net.Conn, accumulating byte counts into the
// shared registry counters. It is installed only when metrics are
// enabled, so uninstrumented servers keep the bare conn.
type countingConn struct {
	net.Conn
	in, out *telemetry.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}
